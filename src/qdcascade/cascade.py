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
MAX_ECHOED_DIGITS = 30


def _int_text(n: int) -> str:
    """An integer for a one-line error: its digits, or beyond
    ``MAX_ECHOED_DIGITS`` of them their count, so the line stays short."""
    digits = len(str(abs(n)))
    if digits <= MAX_ECHOED_DIGITS:
        return str(n)
    return f"a {digits}-digit {'negative ' if n < 0 else ''}integer"


class ModeLabel(IntEnum):
    """The four photon modes, in fixed tensor order."""

    EARLY_B = 0
    EARLY_X = 1
    LATE_B = 2
    LATE_X = 3

    @classmethod
    def parse(cls, token: str) -> "ModeLabel":
        key = token.strip().lower().replace("-", "_")
        if key not in _MODE_ALIASES:
            raise ValueError(f"unknown mode label {token!r} (use early-b, early-x, late-b, late-x)")
        return _MODE_ALIASES[key]


# each mode's short and long name, as ModeLabel.parse reads them after case
# folding and "-" to "_"
_MODE_ALIASES = {
    "eb": ModeLabel.EARLY_B, "early_b": ModeLabel.EARLY_B,
    "ex": ModeLabel.EARLY_X, "early_x": ModeLabel.EARLY_X,
    "lb": ModeLabel.LATE_B, "late_b": ModeLabel.LATE_B,
    "lx": ModeLabel.LATE_X, "late_x": ModeLabel.LATE_X,
}


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


FOUR_MODE_DIMS = (2, 2, 2, 2)
BRANCH_KETS = (0b0000, 0b1001, 0b1111)  # basis indices of the alpha, beta, gamma branches
# the flat indices of the 3x3 block on BRANCH_KETS in a flattened 16x16 matrix, row by row
_BRANCH_BLOCK = np.array([16 * i + j for i in BRANCH_KETS for j in BRANCH_KETS])
_BRANCH_BLOCK.flags.writeable = False


def check_dephase(dephase: float) -> None:
    """Raise ValueError unless the dephasing factor lies in [0, 1]; a NaN does not."""
    if not 0.0 <= dephase <= 1.0:
        raise ValueError(f"dephase must lie in [0, 1], got {dephase}")


class BranchState:
    """Final states on ``BRANCH_KETS``: the amplitudes c = (alpha, beta,
    gamma), a read-only copy of shape (3,) for one delay or (N, 3), one row
    per delay, and one dephasing factor d, checked by ``check_dephase``.
    Row k is the density d c c^T + (1 - d) diag(c^2), pure at d = 1 (no
    dephasing). Each amplitude must lie in [0, 1] and each row be normalized
    within NORM_ATOL; a grid that breaks a rule raises the error of its
    first bad point. Each property is a numpy float for one delay, an array
    for a grid.

    alpha: still in |B>, no photon emitted;
    beta:  one early B photon emitted, waiting in |X>;
    gamma: full cascade completed early, back in |g>.
    """

    def __init__(self, c, dephase: float = 1.0):
        self.c = np.array(c, dtype=float)
        self.c.flags.writeable = False
        if self.c.ndim not in (1, 2) or self.c.shape[-1] != 3:
            raise ValueError(f"amplitudes must have shape (3,) or (N, 3), got {self.c.shape}")
        check_dephase(dephase)
        self.d = float(dephase)
        # the whole grid passes at once when no amplitude is negative and no
        # norm is off, as an amplitude above 1 + NORM_ATOL puts its norm off
        # by more than NORM_ATOL (initial=0.0 passes an empty grid, a NaN
        # fails); only a grid that fails looks for its first bad point, which
        # raises its own error
        rows = self.c.reshape(-1, 3)
        norm = (rows * rows).sum(axis=1)
        defect = np.abs(norm - 1.0)
        if rows.min(initial=0.0) >= 0.0 and defect.max(initial=0.0) <= NORM_ATOL:
            return
        in_range = (rows >= 0.0) & (rows <= 1.0 + NORM_ATOL)
        k = (in_range.all(axis=1) & (defect <= NORM_ATOL)).argmin()
        for name, value, ok in zip(("alpha", "beta", "gamma"), rows[k].tolist(), in_range[k]):
            if not ok:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        raise ValueError(f"amplitudes are not normalized: sum of squares is {norm[k]:.15g}")

    @property
    def alpha2(self) -> float | np.ndarray:
        return self.c.T[0] * self.c.T[0]

    @property
    def beta2(self) -> float | np.ndarray:
        return self.c.T[1] * self.c.T[1]

    @property
    def gamma2(self) -> float | np.ndarray:
        return self.c.T[2] * self.c.T[2]

    @property
    def ghz_fidelity(self) -> float | np.ndarray:
        """Overlap |<GHZ|psi>|^2 of the four-mode state with GHZ_4: (alpha+gamma)^2 / 2."""
        alpha_gamma = self.c.T[0] + self.c.T[2]
        return alpha_gamma * alpha_gamma / 2.0

    def density(self) -> np.ndarray:
        """The densities as one real stack, shape (N, 3, 3): c c^T at d = 1."""
        c = self.c.reshape(-1, 3)
        rho = c[:, :, None] * c[:, None, :] * self.d
        rho.reshape(-1, 9)[:, ::4] += (1.0 - self.d) * (c * c)  # the diagonals, as a strided view
        return rho


def amplitudes(p: DecayParams) -> BranchState:
    """The state of the delay ``p.delta_t``: one point of ``grid_amplitudes``, c of shape (3,)."""
    return BranchState(_branch_amplitudes(p.gamma_b, p.gamma_x, [p.delta_t])[0])


def grid_amplitudes(gamma_b: float, gamma_x: float, dts, dephase: float = 1.0) -> BranchState:
    """The state of each delay in ``dts``, one ``BranchState`` of shape
    (N, 3). The rates and delays are checked once by the rules of
    ``DecayParams``, the amplitudes once by those of ``BranchState``; a grid
    that breaks one raises the error of its first bad point."""
    return BranchState(_branch_amplitudes(gamma_b, gamma_x, dts), dephase)


def _branch_amplitudes(gamma_b: float, gamma_x: float, dts) -> np.ndarray:
    """The amplitudes (alpha, beta, gamma) of the delays ``dts``, one row
    each, checked by the rules of ``DecayParams`` only. alpha^2 =
    exp(-gamma_b dt) is the surviving biexciton population and
    beta^2 = gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)
    the exciton population fed by it, evaluated in the form symmetric in the
    two rates, gamma_b dt exp(-min(gamma_b, gamma_x) dt) (1 - exp(-y)) / y
    with y = |gamma_x - gamma_b| dt. It has no cancellation near equal rates,
    where it tends to gamma_b dt exp(-gamma_b dt), and no overflow at long
    delays. Where gamma_b dt itself overflows, the product would be inf * 0;
    there, and only there, dt / y is cancelled to 1 / |gamma_x - gamma_b|
    instead. (1 - exp(-y)) / y is taken as expm1(-y) / -y, the same bits
    with one negation fewer, as negating is exact."""
    dts = np.asarray(dts, dtype=float).reshape(-1)
    c = np.empty((dts.size, 3))
    alpha2, beta2, gamma2 = c.T  # views of the three columns, filled in place
    with np.errstate(over="ignore", invalid="ignore"):  # an inf marks a bad point, a NaN takes the fallback
        good = (dts >= 0.0) & np.isfinite(gamma_x * dts)
        DecayParams.check(gamma_b, gamma_x, float(dts[good.argmin()]))  # the rates, and the first bad delay if any
        gamma_b_dts = gamma_b * dts
        np.exp(-gamma_b_dts, out=alpha2)
        decay = np.exp(-min(gamma_b, gamma_x) * dts)
        minus_y = -abs(gamma_x - gamma_b) * dts
        np.multiply(gamma_b_dts * decay, np.where(minus_y < 0.0, np.expm1(minus_y) / minus_y, 1.0), out=beta2)
        overflowed = np.isnan(beta2)
        if overflowed.any():
            minus_y, decay = minus_y[overflowed], decay[overflowed]
            beta2[overflowed] = gamma_b * decay * (
                np.expm1(minus_y) / -abs(gamma_x - gamma_b) if gamma_x != gamma_b else dts[overflowed])
    np.minimum(beta2, 1.0, out=beta2)
    np.subtract(1.0, alpha2, out=gamma2)
    gamma2 -= beta2
    np.maximum(gamma2, 0.0, out=gamma2)
    return np.sqrt(c, out=c)


def final_state(p: DecayParams) -> np.ndarray:
    """Four-mode photon-number state after the full two-pulse protocol.

    alpha |0000> + beta |1001> + gamma |1111>, basis index big-endian over
    (early-B, early-X, late-B, late-X).
    """
    v = np.zeros(16, dtype=np.complex128)
    v[list(BRANCH_KETS)] = amplitudes(p).c
    return v


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"a GHZ state needs at least 2 qubits, got {n}")
    v = np.zeros(2**n, dtype=np.complex128)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


def dephased_density(p: DecayParams, d: float) -> np.ndarray:
    """Density matrix of the final state with all coherences attenuated by d:
    the 16x16 embedding of its ``BranchState`` block on ``BRANCH_KETS``.

    d = 1 returns the pure projector unchanged; d = 0 keeps only the
    populations. ``BranchState`` rejects a d outside [0, 1].
    """
    rho = np.zeros(256, dtype=np.complex128)
    rho[_BRANCH_BLOCK] = grid_amplitudes(p.gamma_b, p.gamma_x, [p.delta_t], d).density().reshape(9)
    return rho.reshape(16, 16)
