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
Its row order, reductions and checked triples are planned once per mask set,
and one vectorized pass checks it against subadditivity and Araki-Lieb:
a fault in a reduction or a spectrum that breaks them fails loudly.

Like ``qmath``, every measure takes a 16x16 density matrix or a stack of
them, shape (..., 16, 16); one bad matrix fails the whole stack. The table,
MI and CMI also take a branch density (..., 3, 3) of the delay grids'
``cascade.branch_densities`` (not ``negativity``): a state's block on the
branch kets ``cascade.BRANCH_KETS``. Tracing out modes merges the kets
that agree on the kept modes, adding their populations, and keeps the
coherence of the one pair of kets, if any, that agree on the traced modes:
a 2x2 block with a closed-form spectrum. So a branch table makes one
eigensolve, of the whole state's 3x3 stack under ``qmath.vn_entropy``'s
guards and eigenvalue floor, which all its spectra share.
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

    ``rho`` is a 16x16 density (stack) or a 3x3 branch density (stack). The
    whole state, mask 0b1111, is always in the table and computed first, by
    ``qmath.vn_entropy``: its entropy validates the stack. ``_table_plan``
    holds all that the masks alone decide. On 16x16 densities every other
    mask is one ``qmath.vn_entropy`` of a ``qmath.partial_trace``; on branch
    densities one product sums the populations that each reduction merges,
    the coherent pairs take ``_pair_spectrum``, and the spectra take one
    Shannon sum under ``vn_entropy``'s floor. The table is then checked
    against subadditivity and Araki-Lieb in one vectorized pass.
    """
    branch = np.shape(rho)[-2:] == (3, 3)
    m = np.asarray(rho) if branch else _four_mode_matrix(rho)
    whole = qmath.vn_entropy(m)
    order, rows, groups, (r, i, j, gi, gj), triples = _table_plan(frozenset(subsets))
    if branch and len(order) > 1:
        spectra = (np.diagonal(m, axis1=-2, axis2=-1).real @ groups).reshape(m.shape[:-2] + (-1, 3))  # zero-padded
        spectra[..., r, gi], spectra[..., r, gj] = _pair_spectrum(
            spectra[..., r, gi], spectra[..., r, gj], m[..., i, j])
        entries = np.concatenate([whole[None], np.moveaxis(qmath._spectrum_entropy(spectra), -1, 0)[rows]])
    else:
        entries = np.stack([whole] + [qmath.vn_entropy(qmath.partial_trace(m, FOUR_MODE_DIMS, [
            mode for mode in ModeLabel if mask & (8 >> mode)])) for mask in order[1:]])
    _check_entropy_inequalities(entries, order, triples)
    return dict(zip(order, entries))


@functools.lru_cache(maxsize=32)
def _table_plan(masks: frozenset[int]) -> tuple:
    """A table's keys in row order (the whole state, then ascending masks);
    the spectrum of each later row, one per distinct ``_reduction``; their
    groups as one read-only (3, 3k) 0/1 matrix, column 3s + g summing the
    populations of spectrum s's group g; the coherent pairs as index arrays
    (spectrum, ket i, ket j, group of i, group of j); and the rows of each
    checked X, Y, XY. Not cached when it raises: a bad mask, or a reduction
    coupling two pairs."""
    if not masks <= set(range(16)):
        raise ValueError(f"mode mask must lie in 0..15, got {min(masks - set(range(16)))}")
    order = (ALL_MODES_MASK, *sorted(masks - {ALL_MODES_MASK}))
    for mask in order[1:]:
        if len(pairs := _reduction(mask)[1]) > 1:
            raise ArithmeticError(f"the reduction to modes {mask:04b} couples {len(pairs)} branch pairs")
    distinct: dict[tuple, int] = {}  # masks that reduce alike share one spectrum
    rows = np.array([distinct.setdefault(_reduction(mask), len(distinct)) for mask in order[1:]], dtype=np.intp)
    kets = range(len(BRANCH_KETS))
    groups = np.array([[g[i] == c for g, _ in distinct for c in kets] for i in kets], dtype=float)
    groups.flags.writeable = False
    pairs = np.array([(r, i, j, g[i], g[j]) for r, (g, p) in enumerate(distinct) for i, j in p], dtype=np.intp)
    row = {mask: i for i, mask in enumerate(order)}
    triples = [(row[x], row[y], row[x | y]) for x, y in itertools.combinations(order, 2) if not x & y and x | y in row]
    return order, rows, groups, pairs.reshape(-1, 5).T, np.array(triples, dtype=np.intp).reshape(-1, 3).T


def _pair_spectrum(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (l+, l-) of the Hermitian blocks [[a, c], [c*, b]]:
    l+ = (a+b)/2 + hypot((a-b)/2, |c|) and l- = (ab - |c|^2) / l+, which
    does not cancel as (a+b)/2 - hypot(...) does; l- = 0 where l+ = 0."""
    c = np.abs(c)
    upper = (a + b) / 2.0 + np.hypot((a - b) / 2.0, c)
    lower = np.divide(a * b - c * c, upper, out=np.zeros_like(upper), where=upper != 0.0)
    return upper, lower


@functools.cache
def _reduction(mask: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """How tracing a branch density down to the modes of ``mask`` acts on
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
    sx, sy, sxy = entries[triples]
    excess = np.maximum(sxy - sx - sy, np.abs(sx - sy) - sxy)
    worst = np.max(excess, axis=tuple(range(1, excess.ndim)))
    failed = np.flatnonzero(~(worst <= ENTROPY_INEQUALITY_ATOL))  # NaN fails
    if failed.size:
        x, y, _ = (masks[i] for i in triples[:, failed[0]])
        raise ArithmeticError(
            f"entropies of modes {x:04b} and {y:04b} break subadditivity or Araki-Lieb by {worst[failed[0]]:.3e}"
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
