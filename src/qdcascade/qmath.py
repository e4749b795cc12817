"""Dense complex linear algebra for small tensor-product Hilbert spaces.

States are 1-D complex numpy arrays, operators and density matrices 2-D
complex arrays. Subsystem structure is passed explicitly as a sequence of
per-factor dimensions; index 0 is the leftmost (most significant) tensor
factor, so the basis index of a product state is the big-endian mixed-radix
encoding of the per-factor indices. All entropies are in bits.

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
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(a) -> float:
    """Largest absolute deviation of a matrix from its conjugate transpose."""
    m = _as_square(a)
    return float(np.max(np.abs(m - m.conj().T)))


def _require_hermitian(m: np.ndarray) -> None:
    defect = hermiticity_defect(m)
    if not defect <= DENSITY_ATOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")


def _require_unit_trace(m: np.ndarray) -> None:
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= DENSITY_ATOL:
        raise ValueError(f"density matrix trace is {tr:.15g}, expected 1")


def require_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity and unit trace; positivity is enforced where the
    spectrum is actually computed."""
    m = _as_square(rho)
    _require_hermitian(m)
    _require_unit_trace(m)
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


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
    dims = _check_shape(dims, m.shape[0])
    keep = _check_subset(keep, len(dims), "keep")
    tensor = m.reshape(dims + dims)
    remaining = list(dims)
    for ax in sorted(set(range(len(dims))) - set(keep), reverse=True):
        tensor = np.trace(tensor, axis1=ax, axis2=ax + len(remaining))
        del remaining[ax]
    d = math.prod(remaining) if remaining else 1
    return tensor.reshape(d, d)


def partial_transpose(rho, dims: Sequence[int], subset: Iterable[int]) -> np.ndarray:
    """Transpose the listed tensor factors, leaving the rest untouched."""
    m = _as_square(rho)
    dims = _check_shape(dims, m.shape[0])
    subset = _check_subset(subset, len(dims), "transpose")
    n = len(dims)
    axes = list(range(2 * n))
    for i in subset:
        axes[i], axes[i + n] = axes[i + n], axes[i]
    return m.reshape(dims + dims).transpose(axes).reshape(m.shape)


def eig_hermitian(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    a = _as_square(h)
    _require_hermitian(a)
    return np.linalg.eigvalsh(a)


def vn_entropy(rho) -> float:
    """Von Neumann entropy in bits, -sum(lambda log2 lambda), 0 log 0 := 0.

    Small negative eigenvalues (round-off from partial traces) are dropped;
    anything below -1e-8 is rejected.
    """
    m = _as_square(rho)
    _require_unit_trace(m)
    evals = eig_hermitian(m)
    if not evals[0] >= EIG_CLAMP_FLOOR:
        raise ValueError(f"eigenvalue {evals[0]:.3e} below {EIG_CLAMP_FLOOR:.0e}; not a density matrix")
    pos = evals[evals > 0.0]
    return max(0.0, float(-np.sum(pos * np.log2(pos))))


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(eig_hermitian(a))))


def binary_entropy(p: float) -> float:
    """Shannon entropy of a (p, 1-p) distribution, in bits."""
    return shannon_entropy((p, 1.0 - p))


def shannon_entropy(probs: Iterable[float]) -> float:
    """Shannon entropy of a probability vector, in bits, 0 log 0 := 0."""
    out = 0.0
    for p in probs:
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise ValueError(f"probability {p} outside [0, 1]")
        if p > 0.0:
            out -= p * math.log2(p)
    return max(0.0, out)
