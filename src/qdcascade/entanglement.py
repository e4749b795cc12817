"""Bipartite correlation measures over the four photon modes.

The four modes admit seven unordered bipartitions; each is a candidate
quantum channel between two parties. Mutual information quantifies the
correlations carried by a channel, conditional mutual information the
secret-communication rate that survives an eavesdropper holding part of the
receiving side, and negativity witnesses genuine entanglement across a cut.

Like ``qmath``, every measure takes a 16x16 density matrix or a stack of
them, shape (..., 16, 16); one bad matrix fails the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

import numpy as np

from . import qmath
from .cascade import FOUR_MODE_DIMS, ModeLabel

ALL_MODES: FrozenSet[ModeLabel] = frozenset(ModeLabel)

NEGATIVE_ROUNDOFF_TOL = 1e-9
CMI_CONSISTENCY_ATOL = 1e-10


def _mode_set(modes: Iterable[ModeLabel]) -> frozenset[ModeLabel]:
    out = frozenset(ModeLabel(m) for m in modes)
    return out


def _sorted_ordinals(modes: Iterable[ModeLabel]) -> tuple[int, ...]:
    return tuple(sorted(int(m) for m in modes))


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

    @classmethod
    def from_p1(cls, modes: Iterable[ModeLabel], id: int = 0) -> "Channel":
        """Build the bipartition holding ``modes`` on one side, canonically
        oriented so that the smaller side (ties: the side containing
        early-B, else the lexicographically smaller one) is p1."""
        p1 = _mode_set(modes)
        p2 = ALL_MODES - p1
        if len(p1) > len(p2):
            p1, p2 = p2, p1
        elif len(p1) == len(p2):
            if ModeLabel.EARLY_B in p2:
                p1, p2 = p2, p1
            elif ModeLabel.EARLY_B not in p1 and sorted(p2) < sorted(p1):
                p1, p2 = p2, p1
        return cls(id=id, p1=p1, p2=p2)


_CHANNEL_P1 = (
    (ModeLabel.EARLY_B,),
    (ModeLabel.EARLY_X,),
    (ModeLabel.LATE_B,),
    (ModeLabel.LATE_X,),
    (ModeLabel.EARLY_B, ModeLabel.EARLY_X),
    (ModeLabel.EARLY_B, ModeLabel.LATE_B),
    (ModeLabel.EARLY_B, ModeLabel.LATE_X),
)


def enumerate_channels() -> list[Channel]:
    """The seven bipartitions, ids 1-4 the single-mode splits in mode order,
    ids 5-7 the balanced splits with early-B's partner cycling through
    early-X, late-B, late-X."""
    return [Channel.from_p1(p1, id=i + 1) for i, p1 in enumerate(_CHANNEL_P1)]


def channel_by_id(n: int) -> Channel:
    if not 1 <= n <= 7:
        raise ValueError(f"channel id must be in 1..7, got {n}")
    return enumerate_channels()[n - 1]


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

    @classmethod
    def from_alice_eve(cls, alice: Iterable[ModeLabel], eve: Iterable[ModeLabel] = ()) -> "EveSplit":
        a, e = _mode_set(alice), _mode_set(eve)
        return cls(alice=a, bob=ALL_MODES - a - e, eve=e)


def _four_mode_matrix(rho) -> np.ndarray:
    m = np.asarray(rho, dtype=np.complex128)
    if m.shape[-2:] != (16, 16):
        raise ValueError(f"dimension mismatch: expected 16x16 four-mode density matrices, got {m.shape}")
    return m


def _subsystem_entropy(rho: np.ndarray, modes: Iterable[ModeLabel]) -> float | np.ndarray:
    keep = _sorted_ordinals(modes)
    return qmath.vn_entropy(qmath.partial_trace(rho, FOUR_MODE_DIMS, keep))


def _clamp_roundoff(value, what: str):
    lowest = np.min(value)
    if not lowest >= -NEGATIVE_ROUNDOFF_TOL:
        raise ArithmeticError(f"{what} came out {lowest:.3e}, far below zero")
    return np.maximum(value, 0.0)[()]  # (x, 0.0) maps -0.0 to 0.0


def mutual_information(rho, ch: Channel) -> float | np.ndarray:
    """I(p1 : p2) = S(p1) + S(p2) - S(p1, p2), in bits.

    S(p1, p2) is computed first: its entropy validates the full state.
    """
    m = _four_mode_matrix(rho)
    s12 = qmath.vn_entropy(m)
    s1 = _subsystem_entropy(m, ch.p1)
    s2 = _subsystem_entropy(m, ch.p2)
    return _clamp_roundoff(s1 + s2 - s12, "mutual information")


def average_mutual_information(rho) -> float | np.ndarray:
    """Arithmetic mean of the mutual information over the seven channels."""
    channels = enumerate_channels()
    return sum(mutual_information(rho, ch) for ch in channels) / len(channels)


def conditional_mutual_information(rho, split: EveSplit) -> float | np.ndarray:
    """Secret rate I(Alice : Bob | Eve) = I(A : BE) - I(A : E), in bits.

    The same quantity is recomputed through the four-entropy identity
    S(AE) + S(BE) - S(E) - S(ABE) as an internal consistency guard. S(ABE)
    is computed first: its entropy validates the full state.
    """
    m = _four_mode_matrix(rho)
    s_abe = qmath.vn_entropy(m)
    s_a = _subsystem_entropy(m, split.alice)
    s_e = _subsystem_entropy(m, split.eve)
    s_ae = _subsystem_entropy(m, split.alice | split.eve)
    s_be = _subsystem_entropy(m, split.bob | split.eve)

    i_a_be = s_a + s_be - s_abe
    i_a_e = s_a + s_e - s_ae
    difference_of_mis = i_a_be - i_a_e
    four_entropy = s_ae + s_be - s_e - s_abe
    gap = np.max(np.abs(difference_of_mis - four_entropy))
    if not gap <= CMI_CONSISTENCY_ATOL:
        raise ArithmeticError(f"conditional mutual information paths disagree by {gap:.3e}")
    return _clamp_roundoff(difference_of_mis, "conditional mutual information")


def negativity(rho, ch: Channel) -> float | np.ndarray:
    """Entanglement negativity (||rho^(T_p1)||_1 - 1) / 2 across a channel."""
    m = qmath.require_density_matrix(_four_mode_matrix(rho))
    transposed = qmath.partial_transpose(m, FOUR_MODE_DIMS, _sorted_ordinals(ch.p1))
    return (qmath.trace_norm(transposed) - 1.0) / 2.0
