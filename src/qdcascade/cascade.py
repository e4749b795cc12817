"""States produced by the two-pulse excitation of a biexciton-exciton ladder.

A three-level ladder (ground |g>, exciton |X>, biexciton |B>) is pumped to
|B> at t = 0, decays freely for a delay dt while emitting into the "early"
photon modes, receives a second pulse that swaps the |g> and |B> amplitudes,
and then completes its cascade into the "late" modes. Conventions used
throughout:

* photon modes are qubits in the photon-number basis, ordered
  (early-B, early-X, late-B, late-X), most significant factor first, so the
  four-mode basis index of a pattern is its big-endian bit encoding;
* all pulse phases are absorbed so that state amplitudes stay real and
  non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

NORM_ATOL = 1e-12


class ModeLabel(IntEnum):
    """The four photon modes, in fixed tensor order."""

    EARLY_B = 0
    EARLY_X = 1
    LATE_B = 2
    LATE_X = 3

    @classmethod
    def parse(cls, token: str) -> "ModeLabel":
        key = token.strip().lower().replace("-", "_")
        aliases = {
            "eb": cls.EARLY_B, "early_b": cls.EARLY_B,
            "ex": cls.EARLY_X, "early_x": cls.EARLY_X,
            "lb": cls.LATE_B, "late_b": cls.LATE_B,
            "lx": cls.LATE_X, "late_x": cls.LATE_X,
        }
        if key not in aliases:
            raise ValueError(f"unknown mode label {token!r} (use early-b, early-x, late-b, late-x)")
        return aliases[key]


@dataclass(frozen=True)
class DecayParams:
    """Physical knobs: the two decay rates and the pulse delay (same time units)."""

    gamma_b: float
    gamma_x: float
    delta_t: float

    def __post_init__(self):
        self.check(self.gamma_b, self.gamma_x, self.delta_t)

    @staticmethod
    def check(gamma_b: float, gamma_x: float, delta_t: float, name: str = "delta_t") -> None:
        """Check the rates (gamma_x first: the CLI derives the default gamma_b
        from it) and the delay, called ``name`` in the error messages."""
        if not (math.isfinite(gamma_x) and gamma_x > 0.0):
            raise ValueError(f"gamma_x must be positive and finite, got {gamma_x}")
        if not (math.isfinite(gamma_b) and gamma_b > 0.0):
            raise ValueError(f"gamma_b must be positive and finite, got {gamma_b}")
        if not (math.isfinite(delta_t) and delta_t >= 0.0):
            raise ValueError(f"{name} must be non-negative and finite, got {delta_t}")
        if not math.isfinite(gamma_x * delta_t):
            raise ValueError(f"gamma_x * {name} must be finite, got {gamma_x} * {delta_t}")


@dataclass(frozen=True)
class Amplitudes:
    """Branch amplitudes (alpha, beta, gamma) of the early-window superposition:
    floats for one delay, or arrays with one entry per delay of a grid
    (``grid_amplitudes``), for which every property is an array too.

    alpha: still in |B>, no photon emitted;
    beta:  one early B photon emitted, waiting in |X>;
    gamma: full cascade completed early, back in |g>.
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    gamma: float | np.ndarray

    def __post_init__(self):
        # every point checked at once; the first bad point raises its own error
        rows = np.column_stack([self.alpha, self.beta, self.gamma])
        in_range = (rows >= 0.0) & (rows <= 1.0 + NORM_ATOL)
        norm = (rows * rows).sum(axis=1)
        normalized = np.abs(norm - 1.0) <= NORM_ATOL
        k = (in_range.all(axis=1) & normalized).argmin()
        for name, value, ok in zip(("alpha", "beta", "gamma"), rows[k].tolist(), in_range[k]):
            if not ok:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not normalized[k]:
            raise ValueError(f"amplitudes are not normalized: sum of squares is {norm[k]:.15g}")

    @property
    def alpha2(self) -> float | np.ndarray:
        return self.alpha * self.alpha

    @property
    def beta2(self) -> float | np.ndarray:
        return self.beta * self.beta

    @property
    def gamma2(self) -> float | np.ndarray:
        return self.gamma * self.gamma

    @property
    def ghz_fidelity(self) -> float | np.ndarray:
        """Overlap |<GHZ|psi>|^2 of the four-mode state with GHZ_4: (alpha+gamma)^2 / 2."""
        return (self.alpha + self.gamma) * (self.alpha + self.gamma) / 2.0


def amplitudes(p: DecayParams) -> Amplitudes:
    """Branch amplitudes of the delay ``p.delta_t``, as floats: one point of ``grid_amplitudes``."""
    return Amplitudes(*(float(x[0]) for x in _branch_amplitudes(p.gamma_b, p.gamma_x, [p.delta_t])))


def grid_amplitudes(gamma_b: float, gamma_x: float, dts) -> Amplitudes:
    """Branch amplitudes of each delay in ``dts``, as one ``Amplitudes`` of
    arrays. The rates and delays are checked once by the rules of
    ``DecayParams``, the amplitudes once by those of ``Amplitudes``; a grid
    that breaks one raises the error of its first bad point."""
    return Amplitudes(*_branch_amplitudes(gamma_b, gamma_x, dts))


def _branch_amplitudes(gamma_b: float, gamma_x: float, dts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, gamma) arrays of the delays ``dts``, checked by the
    rules of ``DecayParams`` only. alpha^2 = exp(-gamma_b dt) is the
    surviving biexciton population and
    beta^2 = gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)
    the exciton population fed by it, evaluated in the form symmetric in the
    two rates, gamma_b dt exp(-min(gamma_b, gamma_x) dt) (1 - exp(-y)) / y
    with y = |gamma_x - gamma_b| dt. It has no cancellation near equal rates,
    where it tends to gamma_b dt exp(-gamma_b dt), and no overflow at long
    delays. Where gamma_b dt itself overflows, the product would be inf * 0;
    there dt / y is cancelled to 1 / |gamma_x - gamma_b| instead."""
    dts = np.asarray(dts, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf marks a bad point, a NaN takes the fallback
        good = (dts >= 0.0) & np.isfinite(gamma_x * dts)
        DecayParams(gamma_b, gamma_x, float(dts[good.argmin()]))  # the rates, and the first bad delay if any
        alpha2 = np.exp(-gamma_b * dts)
        decay = np.exp(-min(gamma_b, gamma_x) * dts)
        y = abs(gamma_x - gamma_b) * dts
        beta2 = gamma_b * dts * decay * np.where(y > 0.0, -np.expm1(-y) / y, 1.0)
        fallback = gamma_b * decay * (-np.expm1(-y) / abs(gamma_x - gamma_b) if gamma_x != gamma_b else dts)
    beta2 = np.minimum(np.where(np.isnan(beta2), fallback, beta2), 1.0)
    gamma2 = np.maximum(1.0 - alpha2 - beta2, 0.0)
    return np.sqrt(alpha2), np.sqrt(beta2), np.sqrt(gamma2)


FOUR_MODE_DIMS = (2, 2, 2, 2)
BRANCH_KETS = (0b0000, 0b1001, 0b1111)  # basis indices of the alpha, beta, gamma branches


def final_state(p: DecayParams) -> np.ndarray:
    """Four-mode photon-number state after the full two-pulse protocol.

    alpha |0000> + beta |1001> + gamma |1111>, basis index big-endian over
    (early-B, early-X, late-B, late-X).
    """
    a = amplitudes(p)
    v = np.zeros(16, dtype=np.complex128)
    v[list(BRANCH_KETS)] = a.alpha, a.beta, a.gamma
    return v


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"a GHZ state needs at least 2 qubits, got {n}")
    v = np.zeros(2**n, dtype=np.complex128)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


def branch_densities(amps: Amplitudes, dephase: float | None = None) -> np.ndarray:
    """The final-state densities of ``amps`` (one point or a grid) on
    ``BRANCH_KETS`` as one stack, shape (N, 3, 3): R = c c^T of the
    amplitudes c = (alpha, beta, gamma), dephased to
    d R + (1 - d) diag(c^2) unless ``dephase`` is None: a valid density for
    any d in [0, 1]; any other d raises ValueError."""
    if dephase is not None and not 0.0 <= dephase <= 1.0:
        raise ValueError(f"dephase must lie in [0, 1], got {dephase}")
    c = np.column_stack([amps.alpha, amps.beta, amps.gamma])
    rho = c[:, :, None] * c[:, None, :]
    if dephase is not None:
        diagonal = np.arange(3)
        populations = rho[:, diagonal, diagonal]
        rho *= dephase
        rho[:, diagonal, diagonal] += (1.0 - dephase) * populations
    return rho


def dephased_density(p: DecayParams, d: float) -> np.ndarray:
    """Density matrix of the final state with all coherences attenuated by d:
    the 16x16 embedding of its ``branch_densities`` block on ``BRANCH_KETS``.

    d = 1 returns the pure projector unchanged; d = 0 keeps only the
    populations. ``branch_densities`` rejects a d outside [0, 1].
    """
    rho = np.zeros((16, 16), dtype=np.complex128)
    rho[np.ix_(BRANCH_KETS, BRANCH_KETS)] = branch_densities(amplitudes(p), d)[0]
    return rho
