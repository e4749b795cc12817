"""States produced by the two-pulse excitation of a biexciton-exciton ladder.

A three-level ladder (ground |g>, exciton |X>, biexciton |B>) is pumped to
|B> at t = 0, decays freely for a delay dt while emitting into the "early"
photon modes, receives a second pulse that swaps the |g> and |B> amplitudes,
and then completes its cascade into the "late" modes. Conventions used
throughout:

* three-level basis order (g, X, B) = (0, 1, 2), bottom of the ladder first;
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

    def short_name(self) -> str:
        return {0: "early_b", 1: "early_x", 2: "late_b", 3: "late_x"}[int(self)]


@dataclass(frozen=True)
class DecayParams:
    """Physical knobs: the two decay rates and the pulse delay (same time units)."""

    gamma_b: float
    gamma_x: float
    delta_t: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma_b) and self.gamma_b > 0.0):
            raise ValueError(f"gamma_b must be positive and finite, got {self.gamma_b}")
        if not (math.isfinite(self.gamma_x) and self.gamma_x > 0.0):
            raise ValueError(f"gamma_x must be positive and finite, got {self.gamma_x}")
        if not (math.isfinite(self.delta_t) and self.delta_t >= 0.0):
            raise ValueError(f"delta_t must be non-negative and finite, got {self.delta_t}")


@dataclass(frozen=True)
class Amplitudes:
    """Branch amplitudes (alpha, beta, gamma) of the early-window superposition.

    alpha: still in |B>, no photon emitted;
    beta:  one early B photon emitted, waiting in |X>;
    gamma: full cascade completed early, back in |g>.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not 0.0 <= value <= 1.0 + NORM_ATOL:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        norm = self.alpha**2 + self.beta**2 + self.gamma**2
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"amplitudes are not normalized: sum of squares is {norm:.15g}")

    @property
    def alpha2(self) -> float:
        return self.alpha**2

    @property
    def beta2(self) -> float:
        return self.beta**2

    @property
    def gamma2(self) -> float:
        return self.gamma**2


def amplitudes(p: DecayParams) -> Amplitudes:
    """Branch amplitudes after free decay for the delay ``p.delta_t``.

    alpha^2 = exp(-gamma_b dt) is the surviving biexciton population and
    beta^2 = gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)
    the exciton population fed by it, evaluated in the form symmetric in the
    two rates, gamma_b dt exp(-min(gamma_b, gamma_x) dt) (1 - exp(-y)) / y
    with y = |gamma_x - gamma_b| dt. It has no cancellation near equal rates,
    where it tends to gamma_b dt exp(-gamma_b dt), and no overflow at long
    delays.
    """
    gb, gx, dt = p.gamma_b, p.gamma_x, p.delta_t
    alpha2 = math.exp(-gb * dt)
    y = abs(gx - gb) * dt
    beta2 = gb * dt * math.exp(-min(gb, gx) * dt) * (-math.expm1(-y) / y if y > 0.0 else 1.0)
    beta2 = min(beta2, 1.0)
    gamma2 = max(1.0 - alpha2 - beta2, 0.0)
    return Amplitudes(math.sqrt(alpha2), math.sqrt(beta2), math.sqrt(gamma2))


# basis index helpers for the 3LS (x) early-B (x) early-X space, dims (3, 2, 2)
_G, _X, _B = 0, 1, 2
EARLY_DIMS = (3, 2, 2)
FOUR_MODE_DIMS = (2, 2, 2, 2)


def _early_index(level: int, n_b: int, n_x: int) -> int:
    return level * 4 + n_b * 2 + n_x


def early_state(p: DecayParams) -> np.ndarray:
    """Joint emitter + early-mode state at the end of the first decay window.

    alpha |B>|00> + beta |X>|10> + gamma |g>|11>, over dims (3, 2, 2).
    """
    a = amplitudes(p)
    v = np.zeros(12, dtype=np.complex128)
    v[_early_index(_B, 0, 0)] = a.alpha
    v[_early_index(_X, 1, 0)] = a.beta
    v[_early_index(_G, 1, 1)] = a.gamma
    return v


def apply_second_pulse(state: np.ndarray) -> np.ndarray:
    """Swap the |g> and |B> amplitudes for every photonic configuration.

    The pulse drives the two-photon g-B resonance only; |X> amplitudes are
    untouched. Norm is preserved exactly.
    """
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    if v.shape[0] != 12:
        raise ValueError(f"expected a dimension-12 state over (3LS, early-B, early-X), got {v.shape[0]}")
    out = v.copy()
    out[0:4] = v[8:12]
    out[8:12] = v[0:4]
    return out


def complete_late_decay(state: np.ndarray) -> np.ndarray:
    """Let every ladder branch finish its cascade into the late modes.

    |g> emits nothing, |X> emits a late X photon, |B> emits both late
    photons; the emitter factor is dropped (it always ends in |g>). Maps a
    dimension-12 state onto the four-mode space (early-B, early-X, late-B,
    late-X).
    """
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    if v.shape[0] != 12:
        raise ValueError(f"expected a dimension-12 state over (3LS, early-B, early-X), got {v.shape[0]}")
    late_pattern = {_G: 0b00, _X: 0b01, _B: 0b11}
    out = np.zeros(16, dtype=np.complex128)
    for level in (_G, _X, _B):
        for n_b in (0, 1):
            for n_x in (0, 1):
                amp = v[_early_index(level, n_b, n_x)]
                if amp != 0.0:
                    out[(n_b * 2 + n_x) * 4 + late_pattern[level]] += amp
    return out


def final_state(p: DecayParams) -> np.ndarray:
    """Four-mode photon-number state after the full two-pulse protocol.

    alpha |0000> + beta |1001> + gamma |1111>, basis index big-endian over
    (early-B, early-X, late-B, late-X).
    """
    a = amplitudes(p)
    v = np.zeros(16, dtype=np.complex128)
    v[0b0000] = a.alpha
    v[0b1001] = a.beta
    v[0b1111] = a.gamma
    return v


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"a GHZ state needs at least 2 qubits, got {n}")
    v = np.zeros(2**n, dtype=np.complex128)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


def ghz_fidelity(p: DecayParams) -> float:
    """Overlap |<GHZ|psi>|^2 of the four-mode state with GHZ_4: (alpha+gamma)^2 / 2."""
    a = amplitudes(p)
    return (a.alpha + a.gamma) ** 2 / 2.0


def dephased_density(p: DecayParams, d: float) -> np.ndarray:
    """Density matrix of the final state with all coherences attenuated by d.

    d = 1 returns the pure projector unchanged; d = 0 keeps only the
    populations. Any d in [0, 1] is a convex mixture of the two, hence a
    valid density matrix.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"dephasing attenuation must lie in [0, 1], got {d}")
    v = final_state(p)
    rho = np.outer(v, v.conj())
    populations = np.diag(np.diag(rho))
    return d * rho + (1.0 - d) * populations
