"""Bipartite correlation measures over the four photon modes.

The four modes admit seven unordered bipartitions; each is a candidate
quantum channel between two parties. Mutual information quantifies the
correlations carried by a channel, conditional mutual information the
secret-communication rate that survives an eavesdropper holding part of the
receiving side, and negativity witnesses genuine entanglement across a cut.

Every measure is a signed sum of entries of one entropy table,
``subset_entropies``: the von Neumann entropies of mode subsets, each
computed once and keyed by the subset's 4-bit mask. A caller with several
measures of one state builds the table once over the union of their
``subsets`` and reads it with ``mi_from_table`` and ``cmi_from_table``.
Each table is checked against subadditivity and the Araki-Lieb inequality,
so a fault in a reduction or a spectrum that breaks them fails loudly.

Like ``qmath``, every measure takes a 16x16 density matrix or a stack of
them, shape (..., 16, 16); one bad matrix fails the whole stack. The table,
MI and CMI also take a branch density, shape (..., 3, 3): the block of a
state on the cascade's three branch kets ``cascade.BRANCH_KETS``, zero
elsewhere, which every reduction keeps at most 3x3. A mask reduces a branch density by a fixed 0/1 fold of its entries; masks
with equal folds (on the branch kets early-B and late-X take equal bits, as
do early-X and late-B) share one reduction and one spectrum. Every
reduction below the whole state is diagonal or holds one coherent 2x2
block, whose spectrum has a closed form, so a branch table makes one
eigensolve, the whole state's 3x3 stack under the guards of
``qmath.vn_entropy``; the reduced spectra share its eigenvalue floor. Per
grid point fig3 needs 7 reduced spectra for its 15 masks, fig4 6 for its 12.
``cascade.branch_densities`` builds the CLI's delay-grid states; ``negativity`` does not take them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

import numpy as np

from . import qmath
from .cascade import BRANCH_KETS, FOUR_MODE_DIMS, ModeLabel

ALL_MODES: FrozenSet[ModeLabel] = frozenset(ModeLabel)

NEGATIVE_ROUNDOFF_TOL = 1e-9
ENTROPY_INEQUALITY_ATOL = 1e-10
ALL_MODES_MASK = 0b1111


def _mode_set(modes: Iterable[ModeLabel]) -> frozenset[ModeLabel]:
    return frozenset(ModeLabel(m) for m in modes)


def mode_mask(modes: Iterable[ModeLabel]) -> int:
    """4-bit mask of a mode subset in basis-index bit order: mode m sets bit
    3 - m, so early-B is the most significant bit, as in the kets of
    ``cascade`` ({early-B, late-X} is 0b1001)."""
    return sum(8 >> mode for mode in _mode_set(modes))


@dataclass(frozen=True)
class Channel:
    """An unordered bipartition (p1 | p2) of the four modes."""

    id: int
    p1: frozenset[ModeLabel]
    p2: frozenset[ModeLabel]

    def __post_init__(self):
        p1, p2 = _mode_set(self.p1), _mode_set(self.p2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        if not p1 or not p2:
            raise ValueError("both sides of a channel must be nonempty")
        if p1 & p2:
            raise ValueError(f"channel sides overlap: {sorted(p1 & p2)}")
        if p1 | p2 != ALL_MODES:
            raise ValueError("channel sides must cover all four modes")

    @functools.cached_property
    def subsets(self) -> tuple[int, int, int]:
        """Masks of the entropies its mutual information sums: p1 p2, p1, p2."""
        return ALL_MODES_MASK, mode_mask(self.p1), mode_mask(self.p2)


# p1 of channels 1-7 by mode number (0 early-B, 1 early-X, 2 late-B, 3 late-X):
# the smaller side, or of two equal sides the one holding early-B
_CHANNEL_P1 = ({0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {0, 3})
_CHANNELS = tuple(Channel(id=i + 1, p1=p1, p2=set(ALL_MODES) - p1) for i, p1 in enumerate(_CHANNEL_P1))


def enumerate_channels() -> list[Channel]:
    """The seven bipartitions, ids 1-4 the single-mode splits in mode order,
    ids 5-7 the balanced splits with early-B's partner cycling through
    early-X, late-B, late-X."""
    return list(_CHANNELS)


def channel_by_id(n: int) -> Channel:
    if not 1 <= n <= 7:
        raise ValueError(f"channel id must be in 1..7, got {n}")
    return _CHANNELS[n - 1]


@dataclass(frozen=True)
class EveSplit:
    """Three-way split of the modes: Alice, Bob, and an eavesdropper holding
    part of Bob's original side. Eve may be empty."""

    alice: frozenset[ModeLabel]
    bob: frozenset[ModeLabel]
    eve: frozenset[ModeLabel] = field(default_factory=frozenset)

    def __post_init__(self):
        alice, bob, eve = _mode_set(self.alice), _mode_set(self.bob), _mode_set(self.eve)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "eve", eve)
        if alice & bob or alice & eve or bob & eve:
            raise ValueError("overlapping subsets in the Alice/Bob/Eve split")
        if alice | bob | eve != ALL_MODES:
            missing = sorted(ALL_MODES - (alice | bob | eve))
            raise ValueError(f"split does not cover all modes; missing {missing}")
        if not alice:
            raise ValueError("Alice's subset must be nonempty")
        if not bob:
            raise ValueError("Bob's subset must be nonempty")

    @functools.cached_property
    def subsets(self) -> tuple[int, int, int, int, int]:
        """Masks of the entropies its secret rate sums: ABE, A, E, AE, BE."""
        a, b, e = mode_mask(self.alice), mode_mask(self.bob), mode_mask(self.eve)
        return ALL_MODES_MASK, a, e, a | e, b | e

    @classmethod
    def from_alice_eve(cls, alice: Iterable[ModeLabel], eve: Iterable[ModeLabel] = ()) -> "EveSplit":
        a, e = _mode_set(alice), _mode_set(eve)
        return cls(alice=a, bob=ALL_MODES - a - e, eve=e)


def _four_mode_matrix(rho) -> np.ndarray:
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape[-2:] != (16, 16):
        raise ValueError(f"dimension mismatch: expected 16x16 four-mode density matrices, got {m.shape}")
    return m


def subset_entropies(rho, subsets: Iterable[int]) -> dict[int, float | np.ndarray]:
    """Von Neumann entropy of each mode subset in ``subsets``, keyed by its
    ``mode_mask`` (mode m is bit 3 - m, early-B the most significant); mask
    0 is the empty subset, whose entropy is that of the trace.

    ``rho`` is a 16x16 density (stack) or a 3x3 branch density (stack). Each
    distinct mask is computed once. On 16x16 densities that is one
    ``qmath.vn_entropy`` call per mask, of ``qmath.partial_trace``. On branch
    densities masks with equal ``_fold`` matrices share one closed-form
    spectrum; ``_branch_spectra`` stacks them as (..., k, 3) for one Shannon
    sum under ``vn_entropy``'s eigenvalue floor.
    The whole state, mask 0b1111, is always in the table and computed first,
    by ``qmath.vn_entropy``: its entropy validates the stack. The table is
    then checked against subadditivity and Araki-Lieb.
    """
    branch = np.shape(rho)[-2:] == (3, 3)
    m = np.asarray(rho) if branch else _four_mode_matrix(rho)
    table = {ALL_MODES_MASK: qmath.vn_entropy(m)}
    by_fold: dict[bytes, list[int]] = {}
    for mask in sorted(set(subsets) - {ALL_MODES_MASK}):
        if not 0 <= mask < ALL_MODES_MASK:
            raise ValueError(f"mode mask must lie in 0..15, got {mask}")
        if branch:
            by_fold.setdefault(_fold(mask).tobytes(), []).append(mask)
        else:
            reduced = qmath.partial_trace(m, FOUR_MODE_DIMS, [mode for mode in ModeLabel if mask & (8 >> mode)])
            table[mask] = qmath.vn_entropy(reduced)
    if by_fold:
        groups = list(by_fold.values())  # equal folds, equal reductions: one spectrum per group
        s = qmath._spectrum_entropy(_branch_spectra(m, [masks[0] for masks in groups]))
        table.update((mask, s[..., j][()]) for j, masks in enumerate(groups) for mask in masks)
    _check_entropy_inequalities(table)
    return table


def _branch_spectra(m: np.ndarray, masks: list[int]) -> np.ndarray:
    """Zero-padded spectra, shape (..., k, 3), of the branch density ``m``
    reduced to each of the k ``masks``: the diagonal of sum_ij m_ij F_ij,
    F = ``_fold(mask)`` (all masks in one product), with the one coherent
    pair (p, q) of the same fold, if any, replaced by its 2x2 block's
    ``_pair_spectrum``; no fold below the whole state has two."""
    folds = np.stack([_fold(mask) for mask in masks], axis=2)
    reduced = (m.reshape(m.shape[:-2] + (9,)) @ folds.reshape(9, -1)).reshape(m.shape[:-2] + folds.shape[2:])
    j, p, q = np.nonzero(np.triu(folds.any(axis=(0, 1)), 1))
    pairs = np.bincount(j, minlength=len(masks))
    if pairs.max() > 1:
        raise ArithmeticError(f"the fold of modes {masks[pairs.argmax()]:04b} couples {pairs.max()} branch pairs")
    spectra = np.diagonal(reduced, axis1=-2, axis2=-1).real.copy()
    a, b = spectra[..., j, p], spectra[..., j, q]
    spectra[..., j, p], spectra[..., j, q] = _pair_spectrum(a, b, reduced[..., j, p, q])
    return spectra


def _pair_spectrum(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (l+, l-) of the Hermitian blocks [[a, c], [c*, b]]:
    l+ = (a+b)/2 + hypot((a-b)/2, |c|) and l- = (ab - |c|^2) / l+, which
    does not cancel as (a+b)/2 - hypot(...) does; l- = 0 where l+ = 0."""
    c = np.abs(c)
    upper = (a + b) / 2.0 + np.hypot((a - b) / 2.0, c)
    lower = np.divide(a * b - c * c, upper, out=np.zeros_like(upper), where=upper != 0.0)
    return upper, lower


@functools.cache
def _fold(mask: int) -> np.ndarray:
    """The 0/1 matrix F, shape (k, k, k, k) for the k ``BRANCH_KETS``, that
    reduces a branch density m to the modes of ``mask``: V (m o C) V^T over
    the g <= k distinct restrictions of the kets to ``mask``, where C_ij = 1
    if kets i and j agree off ``mask`` and V merges the kets that agree on
    it, is sum_ij m_ij F_ij, zero-padded from g x g to k x k. Distinct masks
    can have equal folds. Each fold is built on first use and kept
    read-only."""
    groups = sorted({ket & mask for ket in BRANCH_KETS})
    k = len(BRANCH_KETS)
    fold = np.zeros((k, k, k, k))
    for (i, a), (j, b) in itertools.product(enumerate(BRANCH_KETS), repeat=2):
        if (a ^ b) & ~mask == 0:
            fold[i, j, groups.index(a & mask), groups.index(b & mask)] = 1.0
    fold.flags.writeable = False
    return fold


def _check_entropy_inequalities(table: dict[int, float | np.ndarray]) -> None:
    """Raise ArithmeticError unless, for each pair of disjoint subsets X, Y
    whose union is in the table too, subadditivity S(XY) <= S(X) + S(Y) and
    Araki-Lieb |S(X) - S(Y)| <= S(XY) hold within ENTROPY_INEQUALITY_ATOL.

    For Y the complement of X and a pure state, Araki-Lieb is
    S(X) = S(complement of X): unless the two masks have equal folds, both
    sides come from different reductions and spectra, so a fault in
    either shows.
    """
    for x, y in itertools.combinations(table, 2):
        if x & y or (x | y) not in table:
            continue
        sx, sy, sxy = table[x], table[y], table[x | y]
        excess = np.max(np.maximum(sxy - sx - sy, np.abs(sx - sy) - sxy))
        if not excess <= ENTROPY_INEQUALITY_ATOL:
            raise ArithmeticError(
                f"entropies of modes {x:04b} and {y:04b} break subadditivity or Araki-Lieb by {excess:.3e}"
            )


def _clamp_roundoff(value, what: str):
    lowest = np.min(value)
    if not lowest >= -NEGATIVE_ROUNDOFF_TOL:
        raise ArithmeticError(f"{what} came out {lowest:.3e}, far below zero")
    return np.maximum(value, 0.0)[()]  # (x, 0.0) maps -0.0 to 0.0


def mi_from_table(table: dict[int, float | np.ndarray], ch: Channel) -> float | np.ndarray:
    """I(p1 : p2) = S(p1) + S(p2) - S(p1, p2), in bits, from a table that
    holds ``ch.subsets``."""
    s12, s1, s2 = (table[mask] for mask in ch.subsets)
    return _clamp_roundoff(s1 + s2 - s12, "mutual information")


def mutual_information(rho, ch: Channel) -> float | np.ndarray:
    """I(p1 : p2) = S(p1) + S(p2) - S(p1, p2), in bits."""
    return mi_from_table(subset_entropies(rho, ch.subsets), ch)


def cmi_from_table(table: dict[int, float | np.ndarray], split: EveSplit) -> float | np.ndarray:
    """Secret rate I(Alice : Bob | Eve) = I(A : BE) - I(A : E), in bits, from
    a table that holds ``split.subsets``."""
    s_abe, s_a, s_e, s_ae, s_be = (table[mask] for mask in split.subsets)
    i_a_be = s_a + s_be - s_abe
    i_a_e = s_a + s_e - s_ae
    return _clamp_roundoff(i_a_be - i_a_e, "conditional mutual information")


def conditional_mutual_information(rho, split: EveSplit) -> float | np.ndarray:
    """Secret rate I(Alice : Bob | Eve) = I(A : BE) - I(A : E), in bits."""
    return cmi_from_table(subset_entropies(rho, split.subsets), split)


def negativity(rho, ch: Channel) -> float | np.ndarray:
    """Entanglement negativity (||rho^(T_p1)||_1 - 1) / 2 across a channel."""
    m = qmath.require_density_matrix(_four_mode_matrix(rho))
    transposed = qmath.partial_transpose(m, FOUR_MODE_DIMS, ch.p1)
    return (qmath.trace_norm(transposed) - 1.0) / 2.0
