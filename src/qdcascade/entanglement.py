"""Bipartite correlation measures over the four photon modes.

The four modes admit seven unordered bipartitions; each is a candidate
quantum channel between two parties. Mutual information quantifies the
correlations carried by a channel, conditional mutual information the
secret-communication rate that survives an eavesdropper holding part of the
receiving side, and negativity witnesses genuine entanglement across a cut.

Every measure is a signed sum of entries of one entropy table,
``subset_entropies``: the von Neumann entropies of mode subsets, each
computed once and keyed by the subset's 4-bit mask. The empty subset's
entropy is 0 exactly and never solved. A rate has one reader,
``cmi_from_table``: a channel's mutual information is the secret rate of its
``split``, the split with no eavesdropper. A caller with several rates of one
state builds the table once over the union of their splits' ``subsets`` and
reads each with ``cmi_from_table``. The table's row order, reductions and
checked triples are planned once per mask set, and one vectorized pass
checks it against subadditivity and Araki-Lieb: a fault in a reduction or a
spectrum that breaks them fails loudly.

Like ``qmath``, every measure takes a 16x16 density matrix or a stack of
them, shape (..., 16, 16); one bad matrix fails the whole stack. The table,
MI and CMI also take a ``cascade.BranchState`` (not ``negativity``):
amplitudes c, (N, 3) or one point's (3,), read as (1, 3), on
``cascade.BRANCH_KETS`` and one dephasing factor d.
Tracing out modes merges the kets that agree on the kept modes, adding
their populations c^2, and keeps the coherence d c_i c_j of the one pair of
kets, if any, that agree on the traced modes: a 2x2 block with a
closed-form spectrum. A pure state (d = 1) has the whole-state spectrum
(1, 0, 0) and entropy 0 exactly, so a pure table makes no eigensolve; each
row of a dephased one takes a real 3x3 eigensolve. The whole state's
spectrum leads the reduced ones in one stack, which takes one check against
``qmath``'s eigenvalue floor and one Shannon sum.

A channel's partial transpose, which ``negativity`` takes, is a fixed
permutation of a 16x16 matrix's 256 entries: entry (i, j) takes entry
(i ^ x, j ^ x), where x = (i ^ j) & ``mode_mask(p1)`` swaps the bits of the
row and column indices on the modes of p1. It is built once per channel
side, cached, and applied as one ``take``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable

import numpy as np

from . import qmath
from .cascade import BRANCH_KETS, FOUR_MODE_DIMS, BranchState, ModeLabel, _int_text

ALL_MODES: FrozenSet[ModeLabel] = frozenset(ModeLabel)

NEGATIVE_ROUNDOFF_TOL = 1e-9
ENTROPY_INEQUALITY_ATOL = 1e-10
ALL_MODES_MASK = 0b1111
_PURE_SPECTRUM = np.array([1.0, 0.0, 0.0])  # of a pure state, whose entropy is 0 exactly
_PURE_SPECTRUM.flags.writeable = False


def _mode_set(modes: Iterable[ModeLabel]) -> frozenset[ModeLabel]:
    return frozenset(ModeLabel(m) for m in modes)


def mode_mask(modes: Iterable[ModeLabel]) -> int:
    """4-bit mask of a mode subset in basis-index bit order: mode m sets bit
    3 - m, so early-B is the most significant bit, as in the kets of
    ``cascade`` ({early-B, late-X} is 0b1001)."""
    return sum(8 >> mode for mode in _mode_set(modes))


@dataclass(frozen=True)
class Channel:
    """An unordered bipartition (p1 | p2) of the four modes, p2 the rest."""

    id: int
    p1: frozenset[ModeLabel]

    def __post_init__(self):
        object.__setattr__(self, "p1", _mode_set(self.p1))
        if not self.p1 or not self.p2:
            raise ValueError("both sides of a channel must be nonempty")

    @property
    def p2(self) -> frozenset[ModeLabel]:
        return ALL_MODES - self.p1

    @functools.cached_property
    def split(self) -> EveSplit:
        """Alice p1, Bob p2 and no Eve: its secret rate is the channel's
        mutual information."""
        return EveSplit(self.p1)


# p1 of channels 1-7 by mode number (0 early-B, 1 early-X, 2 late-B, 3 late-X):
# the smaller side, or of two equal sides the one holding early-B
_CHANNEL_P1 = ({0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {0, 3})
_CHANNELS = tuple(Channel(id=i + 1, p1=p1) for i, p1 in enumerate(_CHANNEL_P1))


def enumerate_channels() -> list[Channel]:
    """The seven bipartitions, ids 1-4 the single-mode splits in mode order,
    ids 5-7 the balanced splits with early-B's partner cycling through
    early-X, late-B, late-X."""
    return list(_CHANNELS)


def channel_by_id(n: int) -> Channel:
    if not 1 <= n <= 7:
        raise ValueError(f"channel id must be in 1..7, got {_int_text(n)}")
    return _CHANNELS[n - 1]


@dataclass(frozen=True)
class EveSplit:
    """Three-way split of the modes: Alice's, an eavesdropper's (possibly none)
    and Bob's, the rest. Alice and Eve are disjoint, Alice and Bob nonempty."""

    alice: frozenset[ModeLabel]
    eve: frozenset[ModeLabel] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "alice", _mode_set(self.alice))
        object.__setattr__(self, "eve", _mode_set(self.eve))
        if self.alice & self.eve:
            raise ValueError("overlapping subsets in the Alice/Bob/Eve split")
        if not self.alice:
            raise ValueError("Alice's subset must be nonempty")
        if not self.bob:
            raise ValueError("Bob's subset must be nonempty")

    @property
    def bob(self) -> frozenset[ModeLabel]:
        return ALL_MODES - self.alice - self.eve

    @functools.cached_property
    def subsets(self) -> tuple[int, int, int, int, int]:
        """Masks of the entropies its secret rate sums: ABE, A, E, AE, BE."""
        a, b, e = mode_mask(self.alice), mode_mask(self.bob), mode_mask(self.eve)
        return ALL_MODES_MASK, a, e, a | e, b | e


def _four_mode_matrix(rho) -> np.ndarray:
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape[-2:] != (16, 16):
        raise ValueError(f"dimension mismatch: expected 16x16 four-mode density matrices, got {m.shape}")
    return m


def subset_entropies(rho, subsets: Iterable[int]) -> dict[int, float | np.ndarray]:
    """Von Neumann entropy of each mode subset in ``subsets``, keyed by its
    ``mode_mask`` (mode m is bit 3 - m, early-B the most significant); mask
    0 is the empty subset, whose entropy is 0 exactly: it is never solved,
    and its entry, if asked for, is zeros of the other entries' shape.

    ``rho`` is a 16x16 density (stack) or a ``BranchState``, whose table
    holds arrays of one entry at one point. The whole state, mask 0b1111,
    is always in the table, first, then the other masks in ascending order;
    ``_table_plan`` holds all that the masks alone decide, and leaves mask 0
    out of its rows and triples. On 16x16 densities each mask is one
    ``qmath.vn_entropy`` (of a ``qmath.partial_trace`` below the whole
    state), whose checks validate the stack. On a branch state one product
    sums the populations each reduction merges and the coherent pairs take
    ``_pair_spectrum``; the whole state's spectrum, (1, 0, 0) if it is pure
    and a real 3x3 eigensolve per row if it is dephased, leads them in one
    stack, and all spectra take one check against ``vn_entropy``'s floor and
    one Shannon sum. The table is then checked against subadditivity and
    Araki-Lieb in one vectorized pass.
    """
    order, rows, groups, (i, j, pi, pj), triples = _table_plan(masks := frozenset(subsets))
    if isinstance(rho, BranchState):
        c, d = rho.c.reshape(-1, 3), rho.d
        spectra = (c * c) @ groups  # three entries per reduction, zero-padded
        spectra[:, pi], spectra[:, pj] = _pair_spectrum(
            spectra.take(pi, axis=1), spectra.take(pj, axis=1), c.take(i, axis=1) * c.take(j, axis=1) * d)
        whole = np.linalg.eigvalsh(rho.density()) if d != 1.0 else np.broadcast_to(_PURE_SPECTRUM, (len(c), 3))
        entries = qmath._spectrum_entropy(
            np.concatenate([whole[:, None], spectra.reshape(len(c), -1, 3)], axis=1)).T[rows]
    else:
        m = _four_mode_matrix(rho)
        entries = np.stack([qmath.vn_entropy(m)] + [qmath.vn_entropy(qmath.partial_trace(m, FOUR_MODE_DIMS, [
            mode for mode in ModeLabel if mask & (8 >> mode)])) for mask in order[1:]])
    _check_entropy_inequalities(entries, order, triples)
    table = dict(zip(order, entries))
    if 0 in masks:
        table = {ALL_MODES_MASK: table.pop(ALL_MODES_MASK), 0: np.zeros(entries.shape[1:])[()], **table}
    return table


@functools.lru_cache(maxsize=32)
def _table_plan(masks: frozenset[int]) -> tuple:
    """A table's solved keys in row order (the whole state, then ascending
    masks; not the empty subset, whose entropy is 0 and is never solved);
    the spectrum of each row in a stack of the whole state's, 0, then one
    per distinct ``_reduction``, s + 1 for the reduction s; the groups of
    the reductions as one read-only (3, 3k) 0/1 matrix, column 3s + g
    summing the populations of reduction s's group g; the coherent pairs as
    index arrays (ket i, ket j, and the columns 3s + g of their groups); and
    the rows of each checked X, Y, XY. Not cached when it raises: a bad mask, or
    a reduction coupling two pairs."""
    if not masks <= set(range(16)):
        raise ValueError(f"mode mask must lie in 0..15, got {min(masks - set(range(16)))}")
    order = (ALL_MODES_MASK, *sorted(masks - {0, ALL_MODES_MASK}))
    for mask in order[1:]:
        if len(pairs := _reduction(mask)[1]) > 1:
            raise ArithmeticError(f"the reduction to modes {mask:04b} couples {len(pairs)} branch pairs")
    distinct: dict[tuple, int] = {}  # masks that reduce alike share one spectrum
    rows = np.array([0] + [1 + distinct.setdefault(_reduction(mask), len(distinct)) for mask in order[1:]],
                    dtype=np.intp)
    kets = range(len(BRANCH_KETS))
    groups = np.array([[g[i] == c for g, _ in distinct for c in kets] for i in kets], dtype=float)
    groups.flags.writeable = False
    pairs = np.array([(i, j, 3 * s + g[i], 3 * s + g[j]) for s, (g, p) in enumerate(distinct) for i, j in p],
                     dtype=np.intp)
    row = {mask: i for i, mask in enumerate(order)}
    triples = [(row[x], row[y], row[x | y]) for x, y in itertools.combinations(order, 2) if not x & y and x | y in row]
    return order, rows, groups, pairs.reshape(-1, 4).T, np.array(triples, dtype=np.intp).reshape(-1, 3).T


def _pair_spectrum(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (l+, l-) of the real symmetric blocks [[a, c], [c, b]]:
    l+ = (a+b)/2 + hypot((a-b)/2, c) and l- = (ab - c^2) / l+, which does
    not cancel as (a+b)/2 - hypot(...) does; l- = 0 where l+ = 0."""
    upper = (a + b) / 2.0 + np.hypot((a - b) / 2.0, c)
    lower = np.divide(a * b - c * c, upper, out=np.zeros(upper.shape), where=upper != 0.0)
    return upper, lower


@functools.cache
def _reduction(mask: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """How tracing a branch state down to the modes of ``mask`` acts on
    ``BRANCH_KETS``: ket i joins group ``groups[i]``, the index of its
    restriction to ``mask`` among the distinct ones in ascending order, and
    the populations of one group add; the coherence of kets i < j survives,
    at (group of i, group of j), for each (i, j) in ``pairs``, the kets
    that differ on ``mask`` only."""
    restrictions = sorted({ket & mask for ket in BRANCH_KETS})
    groups = tuple(restrictions.index(ket & mask) for ket in BRANCH_KETS)
    pairs = tuple((i, j) for (i, a), (j, b) in itertools.combinations(enumerate(BRANCH_KETS), 2) if not (a ^ b) & ~mask)
    return groups, pairs


def _check_entropy_inequalities(entries: np.ndarray, masks: tuple[int, ...], triples: np.ndarray) -> None:
    """Raise ArithmeticError unless, for each pair of disjoint subsets X, Y
    whose union is in the table too, subadditivity S(XY) <= S(X) + S(Y) and
    Araki-Lieb |S(X) - S(Y)| <= S(XY) hold within ENTROPY_INEQUALITY_ATOL on
    ``entries``, the table of ``masks`` stacked row by row, for the rows
    (X, Y, XY) in ``triples``; the error names the first failing pair in
    ``itertools.combinations`` order over the rows.

    For Y the complement of X and a pure state, Araki-Lieb is
    S(X) = S(complement of X): unless the two masks reduce alike, both
    sides come from different reductions and spectra, so a fault in
    either shows.
    """
    sx, sy, sxy = entries.take(triples, axis=0)
    excess = np.maximum(sxy - sx - sy, np.abs(sx - sy) - sxy)
    if excess.max(initial=0.0) <= ENTROPY_INEQUALITY_ATOL:  # the whole table at once: an empty one passes, a NaN fails
        return
    worst = excess.max(axis=tuple(range(1, excess.ndim)))
    failed = np.flatnonzero(~(worst <= ENTROPY_INEQUALITY_ATOL))  # NaN fails
    if failed.size:
        x, y, _ = (masks[i] for i in triples[:, failed[0]])
        raise ArithmeticError(
            f"entropies of modes {x:04b} and {y:04b} break subadditivity or Araki-Lieb by {worst[failed[0]]:.3e}"
        )


def mutual_information(rho, ch: Channel) -> float | np.ndarray:
    """I(p1 : p2) = S(p1) + S(p2) - S(p1, p2), in bits: the secret rate of
    ``ch.split``."""
    return cmi_from_table(subset_entropies(rho, ch.split.subsets), ch.split)


def cmi_from_table(table: dict[int, float | np.ndarray], split: EveSplit) -> float | np.ndarray:
    """Secret rate I(Alice : Bob | Eve) = I(A : BE) - I(A : E), in bits, from
    a table that holds ``split.subsets``. With no Eve, I(A : E) is 0 and is
    left out: the rate is the mutual information S(A) + S(B) - S(AB). A rate
    at most NEGATIVE_ROUNDOFF_TOL below 0 is round-off and comes out 0.0;
    one further below raises ArithmeticError."""
    s_abe, s_a, s_e, s_ae, s_be = (table[mask] for mask in split.subsets)
    i_a_be = s_a + s_be - s_abe
    rate = i_a_be - (s_a + s_e - s_ae) if split.eve else i_a_be
    lowest = np.minimum.reduce(rate, axis=None)  # a table may hold floats or arrays
    if not lowest >= -NEGATIVE_ROUNDOFF_TOL:
        raise ArithmeticError(f"conditional mutual information came out {lowest:.3e}, far below zero")
    return np.maximum(rate, 0.0)[()]  # (x, 0.0) maps -0.0 to 0.0


def conditional_mutual_information(rho, split: EveSplit) -> float | np.ndarray:
    """Secret rate I(Alice : Bob | Eve) = I(A : BE) - I(A : E), in bits."""
    return cmi_from_table(subset_entropies(rho, split.subsets), split)


@functools.cache  # one entry per subset of the four modes, at most 16
def _transpose_index(p1: frozenset[ModeLabel]) -> np.ndarray:
    """The partial transpose over the modes ``p1`` as a read-only
    permutation of the 256 entries of a flattened 16x16 matrix: entry
    (i, j) takes entry (i ^ x, j ^ x), x = (i ^ j) & ``mode_mask(p1)``."""
    i, j = np.divmod(np.arange(256, dtype=np.intp), 16)
    x = (i ^ j) & mode_mask(p1)
    index = (i ^ x) * 16 + (j ^ x)
    index.flags.writeable = False
    return index


def _partial_transpose(m: np.ndarray, p1: frozenset[ModeLabel]) -> np.ndarray:
    """The partial transpose over the modes ``p1`` of a 16x16 matrix or
    stack, as one ``take`` of the cached permutation."""
    return m.reshape(m.shape[:-2] + (256,)).take(_transpose_index(p1), axis=-1).reshape(m.shape)


def negativity(rho, ch: Channel) -> float | np.ndarray:
    """Entanglement negativity (||rho^(T_p1)||_1 - 1) / 2 across a channel.

    The partial transpose is a permutation of the entries, built once per
    ``ch.p1`` and cached (``_transpose_index``). It permutes the off-diagonal
    entries and keeps the diagonal, so its Hermiticity defect and its trace
    are those of ``rho``, bit for bit: ``rho`` is checked once, and its
    transpose is solved unchecked."""
    m = qmath.require_density_matrix(_four_mode_matrix(rho))
    return (np.abs(np.linalg.eigvalsh(_partial_transpose(m, ch.p1))).sum(axis=-1)[()] - 1.0) / 2.0
