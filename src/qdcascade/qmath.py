"""Dense complex linear algebra for small tensor-product Hilbert spaces.

States are 1-D complex numpy arrays, operators and density matrices 2-D
complex arrays. Subsystem structure is passed explicitly as a sequence of
per-factor dimensions; index 0 is the leftmost (most significant) tensor
factor, so the basis index of a product state is the big-endian mixed-radix
encoding of the per-factor indices. All entropies are in bits.

Every matrix function acts on the last two axes and broadcasts over any
leading axes, so a stack of shape (..., n, n) is evaluated in one call: a
2-D input gives a scalar (``np.float64``), a stack gives an array of the
leading shape. Each guard reduces over the whole stack, so one bad matrix
fails the call.

Spectra come from LAPACK through ``np.linalg.eigvalsh``. Every guard is
written so that NaN fails it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

DENSITY_ATOL = 1e-12
EIG_CLAMP_FLOOR = -1e-8


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(f"expected a nonempty square matrix or stack of them, got shape {m.shape}")
    return m


def hermiticity_defect(a) -> float:
    """Largest absolute deviation of a matrix from its conjugate transpose,
    the worst over a stack."""
    m = _as_square(a)
    defect = m.conj().swapaxes(-1, -2)  # in place below: one temporary stack, not two
    return float(np.abs(np.subtract(defect, m, out=defect)).max())


def _require_hermitian(m: np.ndarray) -> None:
    defect = hermiticity_defect(m)
    if not defect <= DENSITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")


def _require_unit_trace(m: np.ndarray) -> None:
    defect = np.abs(m.trace(axis1=-2, axis2=-1) - 1.0).max()
    if not defect <= DENSITY_ATOL:
        raise ValueError(f"density matrix trace is off 1 by {defect:.3e}")


def require_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity and unit trace; positivity is enforced where the
    spectrum is actually computed."""
    m = _as_square(rho)
    _require_hermitian(m)
    _require_unit_trace(m)
    return m


def density_from_state(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a (normalized) state vector."""
    v = np.asarray(psi, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


def _check_shape(dims: Sequence[int], ambient: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != ambient:
        raise ValueError(f"subsystem dimensions {dims} do not multiply to the ambient dimension {ambient}")
    return dims


def _check_subset(indices: Iterable[int], nsub: int, what: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    for i in idx:
        if i < 0 or i >= nsub:
            raise ValueError(f"{what} index {i} out of range for {nsub} subsystems")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate {what} index in {idx}")
    return tuple(sorted(idx))


def partial_trace(rho, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    Kept factors stay in their original order. Tracing out everything yields
    the 1x1 matrix [[tr(rho)]].
    """
    m = _as_square(rho)
    dims = _check_shape(dims, m.shape[-1])
    keep = _check_subset(keep, len(dims), "keep")
    lead = m.shape[:-2]
    tensor = m.reshape(lead + dims + dims)
    remaining = list(dims)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=len(lead) + ax, axis2=len(lead) + ax + len(remaining))
        del remaining[ax]
    d = math.prod(remaining)
    return tensor.reshape(lead + (d, d))


def partial_transpose(rho, dims: Sequence[int], subset: Iterable[int]) -> np.ndarray:
    """Transpose the listed tensor factors, leaving the rest untouched."""
    m = _as_square(rho)
    dims = _check_shape(dims, m.shape[-1])
    subset = _check_subset(subset, len(dims), "transpose")
    lead, n = m.ndim - 2, len(dims)
    axes = list(range(lead + 2 * n))
    for i in subset:
        axes[lead + i], axes[lead + i + n] = axes[lead + i + n], axes[lead + i]
    return m.reshape(m.shape[:-2] + dims + dims).transpose(axes).reshape(m.shape)


def eig_hermitian(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending along the last axis."""
    a = _as_square(h)
    _require_hermitian(a)
    return np.linalg.eigvalsh(a)


def vn_entropy(rho) -> float | np.ndarray:
    """Von Neumann entropy in bits, -sum(lambda log2 lambda), 0 log 0 := 0.

    Small negative eigenvalues (round-off from partial traces) are dropped;
    anything below -1e-8 is rejected.
    """
    m = _as_square(rho)
    _require_unit_trace(m)
    return _spectrum_entropy(eig_hermitian(m))


def _spectrum_entropy(evals: np.ndarray) -> float | np.ndarray:
    """-sum(lambda log2 lambda) over the last axis of a stack of spectra, in
    any order: entries in [-1e-8, 0] are dropped, any lower one is rejected."""
    lowest = evals.min()
    if not lowest >= EIG_CLAMP_FLOOR:
        raise ValueError(f"eigenvalue {lowest:.3e} below {EIG_CLAMP_FLOOR:.0e}; not a density matrix")
    pos = np.where(evals > 0.0, evals, 1.0)  # 1 log2 1 = 0 stands in for the dropped ones
    return np.maximum(-(pos * np.log2(pos)).sum(axis=-1), 0.0)[()]  # (x, 0.0) maps -0.0 to 0.0
