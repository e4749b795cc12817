"""Channel enumeration, mutual information, secret rates, negativity."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdcascade import cascade, cli, entanglement, qmath
from qdcascade.cascade import FOUR_MODE_DIMS, DecayParams, ModeLabel
from qdcascade.entanglement import Channel, EveSplit

import oracle_math

LN2 = math.log(2.0)
POINT = DecayParams(2.0, 1.0, LN2 / 2)  # alpha^2 = 1/2
EB, EX, LB, LX = ModeLabel
GHZ_BRANCH = cascade.BranchState(cascade.ghz_state(4)[list(cascade.BRANCH_KETS)].real)


def final_density(params):
    return qmath.density_from_state(cascade.final_state(params))


def ghz_density():
    return qmath.density_from_state(cascade.ghz_state(4))


def vacuum_density():
    v = np.zeros(16, dtype=complex)
    v[0] = 1.0
    return np.outer(v, v.conj())


def h(p):
    return oracle_math.binary_entropy(p)


def branch_probs(params):
    a = cascade.amplitudes(params)
    return a.alpha2, a.beta2, a.gamma2


def grid_params(dts, gamma_b=2.0, gamma_x=1.0):
    return [DecayParams(gamma_b, gamma_x, float(dt)) for dt in dts]


def grid_stack(grid, d=1.0):
    """The dephased densities of a delay grid as one (N, 16, 16) stack."""
    return np.stack([oracle_math.dephase(final_density(p), d) for p in grid])


# --------------------------------------------------------------------------
# channels
# --------------------------------------------------------------------------

def test_enumerate_channels_table():
    channels = entanglement.enumerate_channels()
    assert len(channels) == (2**4 - 2) // 2 == 7
    assert [ch.id for ch in channels] == [1, 2, 3, 4, 5, 6, 7]
    expected_p1 = [
        {EB}, {EX}, {LB}, {LX},
        {EB, EX}, {EB, LB}, {EB, LX},
    ]
    for ch, p1 in zip(channels, expected_p1):
        assert ch.p1 == frozenset(p1)
        assert ch.p2 == frozenset(ModeLabel) - frozenset(p1)
        assert len(ch.p1) <= len(ch.p2)


def test_channel_by_id_bounds():
    assert entanglement.channel_by_id(5).p1 == frozenset({EB, EX})
    with pytest.raises(ValueError):
        entanglement.channel_by_id(0)
    with pytest.raises(ValueError):
        entanglement.channel_by_id(8)


def test_channel_canonical_orientation():
    # p1 is the smaller side; of two equal sides, the one holding early-B
    for ch in entanglement.enumerate_channels():
        assert len(ch.p1) < len(ch.p2) or len(ch.p1) == len(ch.p2) and EB in ch.p1, ch
    # built once: every call hands out the same seven channels
    assert all(entanglement.channel_by_id(ch.id) is ch for ch in entanglement.enumerate_channels())


def test_channel_validation():
    for p1 in (frozenset(), frozenset(ModeLabel)):
        with pytest.raises(ValueError, match="both sides of a channel must be nonempty"):
            Channel(id=1, p1=p1)


def mask_modes(mask):
    """The modes of a 4-bit mask: mode m is bit 3 - m."""
    return frozenset(m for m in ModeLabel if mask >> (3 - m) & 1)


def test_splits_and_channels_derive_their_last_side():
    # all 256 (alice, eve) masks: the 50 valid splits, and each bad one
    # refused by its first broken rule
    valid = 0
    for a, e in itertools.product(range(16), repeat=2):
        b = 0b1111 & ~(a | e)
        rule = "overlapping" if a & e else "Alice's" if not a else "Bob's" if not b else None
        if rule:
            with pytest.raises(ValueError, match=rule):
                EveSplit(mask_modes(a), mask_modes(e))
            continue
        split = EveSplit(mask_modes(a), mask_modes(e))
        valid += 1
        assert split.bob == mask_modes(b)
        assert split.subsets == (0b1111, a, e, a | e, b | e)
    assert valid == 50
    for ch in entanglement.enumerate_channels():
        p1 = sum(1 << (3 - m) for m in ch.p1)
        assert ch.p2 == mask_modes(0b1111 ^ p1)
        assert ch.subsets == (0b1111, p1, 0b1111 ^ p1)


# --------------------------------------------------------------------------
# mutual information
# --------------------------------------------------------------------------

def test_mi_ghz_flat_across_all_channels():
    rho = ghz_density()
    for ch in entanglement.enumerate_channels():
        assert abs(entanglement.mutual_information(rho, ch) - 2.0) < 1e-12


def test_mi_product_state_zero():
    rho = vacuum_density()
    for ch in entanglement.enumerate_channels():
        assert entanglement.mutual_information(rho, ch) < 1e-12


def test_mi_working_point_values():
    rho = final_density(POINT)
    mi1 = entanglement.mutual_information(rho, entanglement.channel_by_id(1))
    mi5 = entanglement.mutual_information(rho, entanglement.channel_by_id(5))
    assert abs(mi1 - 2.0) < 1e-10
    # 2 * ternary entropy of (1/2, sqrt(2)-1, 3/2-sqrt(2))
    assert abs(mi5 - 2.6612902346796816) < 1e-9
    direct = 2.0 * oracle_math.shannon_entropy(branch_probs(POINT))
    assert abs(mi5 - direct) < 1e-10


def test_mi_symmetric_under_side_swap():
    rng = np.random.default_rng(71)
    z = rng.normal(size=16) + 1j * rng.normal(size=16)
    z /= np.linalg.norm(z)
    for rho in (final_density(POINT), np.outer(z, z.conj())):
        for ch in entanglement.enumerate_channels():
            flipped = Channel(id=ch.id, p1=ch.p2)
            a = entanglement.mutual_information(rho, ch)
            b = entanglement.mutual_information(rho, flipped)
            assert abs(a - b) < 1e-12


def test_mi_pure_state_shortcut():
    rng = np.random.default_rng(73)
    z = rng.normal(size=16) + 1j * rng.normal(size=16)
    z /= np.linalg.norm(z)
    rho = np.outer(z, z.conj())
    for ch in entanglement.enumerate_channels():
        mi = entanglement.mutual_information(rho, ch)
        s1 = qmath.vn_entropy(
            qmath.partial_trace(rho, (2, 2, 2, 2), sorted(int(m) for m in ch.p1))
        )
        assert abs(mi - 2.0 * s1) < 1e-10


def test_mi_closed_forms_across_delay_grid():
    grid = grid_params(np.geomspace(0.02, 5.0, 25))
    stacked = {c: entanglement.mutual_information(grid_stack(grid), entanglement.channel_by_id(c))
               for c in range(1, 8)}
    for k, params in enumerate(grid):
        a2, b2, g2 = branch_probs(params)
        rho = final_density(params)
        single = {c: entanglement.mutual_information(rho, entanglement.channel_by_id(c))
                  for c in range(1, 8)}
        lam_plus = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * a2 * g2))
        for mi in (single, {c: stacked[c][k] for c in range(1, 8)}):
            assert abs(mi[1] - 2 * h(a2)) < 1e-10
            assert abs(mi[2] - 2 * h(g2)) < 1e-10
            assert abs(mi[3] - 2 * h(g2)) < 1e-10
            assert abs(mi[4] - 2 * h(a2)) < 1e-10
            assert abs(mi[5] - 2 * oracle_math.shannon_entropy((a2, b2, g2))) < 1e-10
            assert abs(mi[6] - mi[5]) < 1e-10
            assert abs(mi[7] - 2 * h(lam_plus)) < 1e-10


def test_mi_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        entanglement.mutual_information(np.eye(8) / 8, entanglement.channel_by_id(1))


def test_average_mi():
    # the channel average is the mi_avg column of a sweep; dt = 0 leaves the vacuum
    def mi_avg(ghz_reference=False):
        spec = cli.SweepSpec(2.0, 1.0, 0.0, POINT.delta_t, points=2, ghz_reference=ghz_reference)
        header, rows = cli.sweep_table(spec)
        return [row[header.index("mi_avg")] for row in rows]

    assert all(abs(avg - 2.0) < 1e-12 for avg in mi_avg(ghz_reference=True))
    vacuum, avg = mi_avg()
    assert vacuum < 1e-12
    assert avg < 2.0
    assert abs(avg - 1.6486150894700935) < 1e-9


# --------------------------------------------------------------------------
# conditional mutual information
# --------------------------------------------------------------------------

def test_cmi_ghz_single_eve_baseline():
    rho = ghz_density()
    for eve in ({EX}, {LB}, {LX}):
        split = EveSplit({EB}, eve)
        assert abs(entanglement.conditional_mutual_information(rho, split) - 1.0) < 1e-10


def test_cmi_product_state_zero():
    split = EveSplit({EB}, {EX})
    assert entanglement.conditional_mutual_information(vacuum_density(), split) == 0.0


def test_cmi_working_point_eve_early_x():
    rho = final_density(POINT)
    split = EveSplit({EB}, {EX})
    cmi = entanglement.conditional_mutual_information(rho, split)
    assert abs(cmi - 1.9083982468759764) < 1e-9
    a2, b2, g2 = branch_probs(POINT)
    closed = h(a2) - h(g2) + oracle_math.shannon_entropy((a2, b2, g2))
    assert abs(cmi - closed) < 1e-10


def test_cmi_channel5_symmetric_point():
    # e^{-gamma_x dt} = 1/2 makes the branch distribution (1/4, 1/2, 1/4)
    params = DecayParams(2.0, 1.0, LN2)
    a2, b2, g2 = branch_probs(params)
    np.testing.assert_allclose((a2, b2, g2), (0.25, 0.5, 0.25), atol=1e-14)
    rho = final_density(params)
    for eve in ({LB}, {LX}):
        split = EveSplit({EB, EX}, eve)
        cmi = entanglement.conditional_mutual_information(rho, split)
        assert abs(cmi - 1.5) < 1e-9


def test_cmi_channel5_closed_forms_across_grid():
    # eve = late-B: H3 + h(alpha^2) - h(gamma^2); eve = late-X: mirrored sign
    eve_lb = EveSplit({EB, EX}, {LB})
    eve_lx = EveSplit({EB, EX}, {LX})
    grid = grid_params(np.geomspace(0.05, 3.0, 15))
    stack = grid_stack(grid)
    stacked_b = entanglement.conditional_mutual_information(stack, eve_lb)
    stacked_x = entanglement.conditional_mutual_information(stack, eve_lx)
    for k, params in enumerate(grid):
        a2, b2, g2 = branch_probs(params)
        rho = final_density(params)
        h3 = oracle_math.shannon_entropy((a2, b2, g2))
        got_b = entanglement.conditional_mutual_information(rho, eve_lb)
        got_x = entanglement.conditional_mutual_information(rho, eve_lx)
        for b, x in ((got_b, got_x), (stacked_b[k], stacked_x[k])):
            assert abs(b - (h3 + h(a2) - h(g2))) < 1e-10
            assert abs(x - (h3 - h(a2) + h(g2))) < 1e-10


def test_cmi_eve_late_x_never_beats_ghz():
    # reduced state of (early-B, late-X) has eigenvalues (1 +- sqrt(1 - 4
    # alpha^2 gamma^2))/2, so the rate is h(lambda+) <= 1
    split = EveSplit({EB}, {LX})
    grid = grid_params(np.geomspace(0.01, 8.0, 30))
    stacked = entanglement.conditional_mutual_information(grid_stack(grid), split)
    for k, params in enumerate(grid):
        a2, _, g2 = branch_probs(params)
        lam_plus = 0.5 * (1.0 + math.sqrt(1.0 - 4.0 * a2 * g2))
        single = entanglement.conditional_mutual_information(final_density(params), split)
        for cmi in (single, stacked[k]):
            assert abs(cmi - h(lam_plus)) < 1e-10
            assert cmi <= 1.0 + 1e-9


def test_cmi_with_empty_eve_reduces_to_mi():
    rho = final_density(POINT)
    for ch_id in (1, 2, 3, 4, 5):
        ch = entanglement.channel_by_id(ch_id)
        split = EveSplit(alice=ch.p1)
        cmi = entanglement.conditional_mutual_information(rho, split)
        mi = entanglement.mutual_information(rho, ch)
        assert abs(cmi - mi) < 1e-10


def test_cmi_rejects_invalid_splits():
    with pytest.raises(ValueError, match="overlapping subsets in the Alice/Bob/Eve split"):
        EveSplit(alice=frozenset({EB}), eve=frozenset({EB, LX}))
    with pytest.raises(ValueError, match="Alice's subset must be nonempty"):
        EveSplit(alice=frozenset())
    with pytest.raises(ValueError, match="Bob's subset must be nonempty"):
        EveSplit(alice=frozenset(ModeLabel))


def test_three_qubit_ghz_with_uncorrelated_eve():
    # best-case reference: 3-qubit GHZ shared by Alice and Bob, Eve holding
    # an uncorrelated pure qubit; the generic rate is 2.0 for one shared
    # qubit (and also for two) -- not more
    zero = np.array([1.0, 0.0], dtype=complex)
    psi = np.kron(cascade.ghz_state(3), zero)
    rho = np.outer(psi, psi.conj())
    one_qubit = EveSplit(alice=frozenset({EB}), eve=frozenset({LX}))
    two_qubit = EveSplit(alice=frozenset({EB, EX}), eve=frozenset({LX}))
    assert (one_qubit.bob, two_qubit.bob) == ({EX, LB}, {LB})
    for split in (one_qubit, two_qubit):
        cmi = entanglement.conditional_mutual_information(rho, split)
        assert abs(cmi - 2.0) < 1e-10


# --------------------------------------------------------------------------
# negativity
# --------------------------------------------------------------------------

def test_negativity_product_state_zero():
    for ch in entanglement.enumerate_channels():
        assert abs(entanglement.negativity(vacuum_density(), ch)) < 1e-12


def test_negativity_bell_pair_embedded():
    # bell pair on (early-B, early-X), vacuum elsewhere: 0.5 across every
    # cut separating the pair, 0 across the cuts keeping it together
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    vac = np.array([1, 0, 0, 0], dtype=complex)
    psi = np.kron(bell, vac)
    rho = np.outer(psi, psi.conj())
    for ch_id in (1, 2, 6, 7):
        neg = entanglement.negativity(rho, entanglement.channel_by_id(ch_id))
        assert abs(neg - 0.5) < 1e-12
    for ch_id in (3, 4, 5):
        assert abs(entanglement.negativity(rho, entanglement.channel_by_id(ch_id))) < 1e-12


def test_negativity_fully_dephased_is_zero():
    rho = cascade.dephased_density(POINT, 0.0)
    for ch in entanglement.enumerate_channels():
        assert entanglement.negativity(rho, ch) < 1e-10


def test_negativity_monotone_in_coherence():
    params = DecayParams(2.0, 1.0, 0.5)
    grid = np.linspace(0.0, 1.0, 11)
    for ch in entanglement.enumerate_channels():
        values = [entanglement.negativity(cascade.dephased_density(params, float(d)), ch)
                  for d in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0


def test_classical_correlations_survive_full_dephasing():
    rho = cascade.dephased_density(POINT, 0.0)
    ch1 = entanglement.channel_by_id(1)
    assert entanglement.mutual_information(rho, ch1) > 0.1
    assert entanglement.negativity(rho, ch1) < 1e-10


# --------------------------------------------------------------------------
# stacks of states
# --------------------------------------------------------------------------

def test_dephased_stack_matches_single_matrices_bitwise():
    grid = grid_params(np.geomspace(0.01, 10.0, 20), gamma_b=1.3)
    stack = grid_stack(grid, d=0.73)
    split = EveSplit({EB, EX}, {LX})
    for ch in entanglement.enumerate_channels():
        mi = entanglement.mutual_information(stack, ch)
        neg = entanglement.negativity(stack, ch)
        assert mi.shape == neg.shape == (len(grid),)
        for k, rho in enumerate(stack):
            assert mi[k] == entanglement.mutual_information(rho, ch)
            assert neg[k] == entanglement.negativity(rho, ch)
    cmi = entanglement.conditional_mutual_information(stack, split)
    assert list(cmi) == [entanglement.conditional_mutual_information(rho, split) for rho in stack]


@pytest.mark.parametrize("d", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("points", [1, 16, 64])
def test_a_grid_rates_alike_alone_and_in_a_larger_stack(points, d):
    # cli.optimize_delay evaluates a round's grid in one branch state with a
    # guess at the next round's: a row's CMI must not depend on the rows
    # stacked with it. Each amplitude is elementwise, each 3x3 eigensolve
    # stands alone and each column of the 0/1 population sum adds at most
    # two nonzero populations, except the mask-0 column of an empty Eve,
    # which adds three
    grid = np.linspace(0.05, 2.0, points) if points > 1 else np.array([0.3])
    other = np.linspace(0.25, 0.4, 16)
    for split in oracle_math.ALL_SPLITS:
        def cmi(dts):
            return entanglement.conditional_mutual_information(cascade.grid_amplitudes(2.3, 1.0, dts, d), split)
        alone = cmi(grid).tobytes()
        assert cmi(np.concatenate([grid, other]))[:points].tobytes() == alone, split
        assert cmi(np.concatenate([other, grid]))[len(other):].tobytes() == alone, split


# --------------------------------------------------------------------------
# invariants over drawn rates, delay grids and dephasing
# --------------------------------------------------------------------------

rates = st.floats(0.1, 10.0)
delay_grids = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6)
property_settings = settings(derandomize=True, database=None, deadline=None, max_examples=30)


@property_settings
@given(seed=st.integers(0, 2**32 - 1), k=st.one_of(st.none(), st.integers(1, 4)))
def test_cached_partial_transpose_is_the_general_one_bitwise(seed, k):
    # negativity transposes by a permutation cached per channel side; on a
    # random complex matrix, or a stack of k, it must give what
    # qmath.partial_transpose gives, bit for bit, on every channel
    rng = np.random.default_rng(seed)
    shape = (16, 16) if k is None else (k, 16, 16)
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for ch in entanglement.enumerate_channels():
        got = entanglement._partial_transpose(m, ch.p1)
        want = qmath.partial_transpose(m, FOUR_MODE_DIMS, ch.p1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), ch.id


@property_settings
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4))
def test_negativity_of_a_drawn_stack_is_that_of_each_matrix(seed, k):
    # random full-rank complex densities: A A^H, made exactly Hermitian, at unit trace
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, 16, 16)) + 1j * rng.normal(size=(k, 16, 16))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    rho /= rho.trace(axis1=-2, axis2=-1).real[:, None, None]
    for ch in entanglement.enumerate_channels():
        neg = entanglement.negativity(rho, ch)
        assert neg.shape == (k,)
        assert [float(x).hex() for x in neg] == [float(entanglement.negativity(m, ch)).hex() for m in rho], ch.id


@property_settings
@given(gb=rates, gx=rates, dts=delay_grids, d=st.floats(0.0, 1.0), split=st.sampled_from(oracle_math.ALL_SPLITS))
def test_invariants_on_drawn_stacks(gb, gx, dts, d, split):
    grid = grid_params(dts, gamma_b=gb, gamma_x=gx)
    for a2, b2, g2 in map(branch_probs, grid):
        assert abs(a2 + b2 + g2 - 1.0) <= 1e-12
    stack = grid_stack(grid, d)
    for ch in entanglement.enumerate_channels():
        mi = entanglement.mutual_information(stack, ch)
        assert np.all((0.0 <= mi) & (mi <= 2.0 * min(len(ch.p1), len(ch.p2))))
    assert np.all(entanglement.conditional_mutual_information(stack, split) >= 0.0)


@property_settings
@given(gb=rates, gx=rates, dts=delay_grids, d=st.floats(0.0, 1.0), lower=st.floats(0.0, 1.0))
def test_pure_and_dephasing_invariants_on_drawn_stacks(gb, gx, dts, d, lower):
    grid = grid_params(dts, gamma_b=gb, gamma_x=gx)
    pure = grid_stack(grid)
    for k in range(1, 8):
        keep = [m for m in range(4) if k >> m & 1]
        complement = [m for m in range(4) if m not in keep]
        s = qmath.vn_entropy(qmath.partial_trace(pure, FOUR_MODE_DIMS, keep))
        s_c = qmath.vn_entropy(qmath.partial_trace(pure, FOUR_MODE_DIMS, complement))
        np.testing.assert_allclose(s, s_c, rtol=0.0, atol=1e-10)
    more, less = grid_stack(grid, d), grid_stack(grid, d * lower)
    for ch in entanglement.enumerate_channels():
        assert np.all(entanglement.negativity(less, ch) <= entanglement.negativity(more, ch) + 1e-12)


# --------------------------------------------------------------------------
# the entropy table
# --------------------------------------------------------------------------

def kept_modes(mask):
    """Modes of a 4-bit mask, early-B the most significant bit."""
    return [m for m in ModeLabel if mask >> (3 - m) & 1]


def assert_same_table(got, want):
    assert list(got) == list(want)
    for mask in want:
        assert got[mask].tobytes() == want[mask].tobytes(), mask


def test_mode_mask_bit_order():
    assert entanglement.mode_mask(()) == 0
    assert entanglement.mode_mask({EB}) == 0b1000
    assert entanglement.mode_mask({EB, LX}) == 0b1001  # the ket |1001> of beta
    assert entanglement.mode_mask(ModeLabel) == 0b1111
    assert all(entanglement.mode_mask(kept_modes(mask)) == mask for mask in range(16))


@property_settings
@given(gb=rates, dts=delay_grids, d=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), seed=st.integers(0, 2**32 - 1))
def test_subset_entropies_equal_each_reduced_entropy(gb, dts, d, seed):
    # a dephased (or, at d = 1, pure) cascade stack plus a random complex pure state
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    stack = np.concatenate([grid_stack(grid_params(dts, gamma_b=gb), d), np.outer(psi, psi.conj())[None]])
    table = entanglement.subset_entropies(stack, range(16))
    assert sorted(table) == list(range(16))
    for mask, entropy in table.items():
        expected = qmath.vn_entropy(qmath.partial_trace(stack, FOUR_MODE_DIMS, kept_modes(mask)))
        assert entropy.tobytes() == expected.tobytes(), mask


def test_subset_entropies_of_pure_cascade_states():
    grid = grid_params(np.geomspace(0.01, 10.0, 40))
    table = entanglement.subset_entropies(grid_stack(grid), range(16))
    # one plan per mask set: the masks in any iterable, order or multiplicity
    # give the same table, the whole state first, then ascending masks
    branch = cascade.grid_amplitudes(2.0, 1.0, [p.delta_t for p in grid])
    masks = [0b0110, 0b1000, 0b0001, 0b1001]
    for rho, order in ((grid_stack(grid), [0b1111, 0b0001, 0b0110, 0b1000, 0b1001]),
                       (branch, [0b1111, 0b0001, 0b0110, 0b1000, 0b1001])):
        want = entanglement.subset_entropies(rho, masks)
        assert list(want) == order
        for given in (masks + masks[::2], set(masks), (mask for mask in masks), masks[::-1]):
            assert_same_table(entanglement.subset_entropies(rho, given), want)
    for mask in range(16):
        np.testing.assert_allclose(table[mask], table[0b1111 ^ mask], rtol=0.0, atol=1e-10)
    # one mode: early-B and late-X are empty only on the alpha branch,
    # early-X and late-B are full only on the gamma branch
    a2, _, g2 = np.transpose([branch_probs(p) for p in grid])
    for mask, p in {0b1000: a2, 0b0100: g2, 0b0010: g2, 0b0001: a2}.items():
        closed = [oracle_math.binary_entropy(x) for x in p]
        np.testing.assert_allclose(table[mask], closed, rtol=0.0, atol=1e-10)


def test_subset_entropies_reject_bad_masks():
    for rho in (ghz_density(), GHZ_BRANCH) * 2:  # a plan that raised is not cached
        with pytest.raises(ValueError, match="mode mask must lie in 0..15, got 16"):
            entanglement.subset_entropies(rho, [16])
    # a branch state is the only branch input: a 3x3 density is refused too
    for rho in (np.eye(8) / 8, np.eye(3) / 3):
        with pytest.raises(ValueError, match="dimension"):
            entanglement.subset_entropies(rho, [1])


FIG4_SPLITS = [EveSplit(alice, eve)
               for alice, eve in (({EB}, {EX}), ({EB}, {LB}), ({EB}, {LX}), ({EB, EX}, {LB}), ({EB, EX}, {LX}))]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    ratio=st.floats(0.05, 20.0),
    d=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    dts=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 800.0)), min_size=1, max_size=6),
)
@example(ratio=1.0, d=1.0, dts=[0.0, LN2, 800.0])  # equal rates
@example(ratio=20.0, d=0.0, dts=[0.0, 1e-3, 40.0])
def test_branch_table_matches_the_dense_table(ratio, d, dts):
    # the grid commands' branch-state path against the 16x16 path: all 16
    # masks, the 7 channels and the 5 fig4 splits (the GHZ table's are
    # test_ghz_table_matches_the_dense_ghz_state's)
    grid = grid_params(dts, gamma_b=ratio)
    branch = cascade.grid_amplitudes(ratio, 1.0, dts, d)
    got = entanglement.subset_entropies(branch, range(16))
    want = entanglement.subset_entropies(grid_stack(grid, d), range(16))
    # a pure state has whole-state entropy 0.0 exactly
    if d == 1.0:
        assert got[0b1111].tolist() == [0.0] * len(dts)
    for mask in range(16):
        np.testing.assert_allclose(got[mask], want[mask], rtol=0.0, atol=1e-12, err_msg=f"mask {mask:04b}")
        # spectra stacked for one Shannon sum give, bit for bit, each mask's entropy asked for alone
        alone = entanglement.subset_entropies(branch, [mask])[mask]
        assert got[mask].tobytes() == alone.tobytes(), mask
    for ch in entanglement.enumerate_channels():
        np.testing.assert_allclose(entanglement.mi_from_table(got, ch), entanglement.mi_from_table(want, ch),
                                   rtol=0.0, atol=1e-12, err_msg=f"channel {ch.id}")
    for split in FIG4_SPLITS:
        np.testing.assert_allclose(entanglement.cmi_from_table(got, split), entanglement.cmi_from_table(want, split),
                                   rtol=0.0, atol=1e-12, err_msg=str(split))


def test_ghz_table_matches_the_dense_ghz_state():
    # every grid command's GHZ baseline: the table, built once, against the
    # 16x16 GHZ state for all 16 masks, the 7 channels and all 50 splits
    table = cli._ghz_table()
    assert cli._ghz_table() is table and list(table) == [0b1111, *range(15)]
    assert table[0b1111] == 0.0  # pure: whole-state entropy 0.0 exactly
    dense = ghz_density()
    want = entanglement.subset_entropies(dense, range(16))
    for mask in range(16):
        np.testing.assert_allclose(table[mask], want[mask], rtol=0.0, atol=1e-12, err_msg=f"mask {mask:04b}")
    for ch in entanglement.enumerate_channels():
        np.testing.assert_allclose(entanglement.mi_from_table(table, ch), entanglement.mutual_information(dense, ch),
                                   rtol=0.0, atol=1e-12, err_msg=f"channel {ch.id}")
    assert len(set(oracle_math.ALL_SPLITS)) == 50
    for split in oracle_math.ALL_SPLITS:
        np.testing.assert_allclose(entanglement.cmi_from_table(table, split),
                                   entanglement.conditional_mutual_information(dense, split),
                                   rtol=0.0, atol=1e-12, err_msg=str(split))


def pairwise_excesses(table):
    """(X, Y, worst excess) of each pair the table check covers, in its
    order: the pairwise loop it replaced."""
    return [(x, y, np.max(np.maximum(table[x | y] - table[x] - table[y], np.abs(table[x] - table[y]) - table[x | y])))
            for x, y in itertools.combinations(table, 2) if not x & y and x | y in table]


@pytest.mark.parametrize("point", [0, 100, 200])
def test_table_check_flags_one_entry_past_its_tolerance(point):
    # fig3's table of 200 grid points with the GHZ table's entries as point
    # 200, one entry changed at one point; the pairwise loop names the pair
    # the check must name
    rho = cascade.grid_amplitudes(2.0, 1.0, cli.FIG_SPEC.grid())
    masks = frozenset(mask for ch in entanglement.enumerate_channels() for mask in ch.subsets)
    grid_table = entanglement.subset_entropies(rho, masks)
    table = {mask: np.append(s, cli._ghz_table()[mask]) for mask, s in grid_table.items()}
    order, *_, triples = entanglement._table_plan(masks)
    assert len(table[0b1111]) == 201 and list(table) == list(order)
    atol = entanglement.ENTROPY_INEQUALITY_ATOL
    # S(1111) enters only |S(X) - S(~X)| - S(1111), Araki-Lieb of the
    # complementary pairs: at D - atol, D the largest |S(X) - S(~X)| at the
    # point, the worst excess is exactly atol (D - atol is exact in binary)
    edge = max(abs(table[x][point] - table[0b1111 ^ x][point]) for x in table if x != 0b1111) - atol
    row = {mask: i for i, mask in enumerate(order)}
    for mask, value, passes in ((0b1111, edge, True), (0b1111, np.nextafter(edge, -1.0), False),
                                (0b1111, np.nan, False), (0b0110, np.nan, False),
                                (0b0110, table[0b0110][point] + atol * (1.0 + 1e-3), False)):
        entries = np.stack(list(table.values()))
        entries[row[mask], point] = value
        excesses = pairwise_excesses(dict(zip(order, entries)))
        failed = [(x, y, e) for x, y, e in excesses if not e <= atol]
        if passes:
            assert max(e for *_, e in excesses) == atol and not failed
            entanglement._check_entropy_inequalities(entries, order, triples)
            continue
        x, y, excess = failed[0]
        with pytest.raises(ArithmeticError, match=f"modes {x:04b} and {y:04b} .* by {excess:.3e}$"):
            entanglement._check_entropy_inequalities(entries, order, triples)


def test_a_one_mask_table_checks_no_triples():
    # the whole state alone pairs with no other subset: the table has no
    # triple to check, on branch states and on 16x16 densities alike
    order, *_, triples = entanglement._table_plan(frozenset({0b1111}))
    assert order == (0b1111,) and triples.shape == (3, 0)
    entanglement._check_entropy_inequalities(np.zeros((1, 4)), order, triples)
    pure = entanglement.subset_entropies(cascade.amplitudes(DecayParams(2.0, 1.0, 0.3)), [0b1111])
    assert list(pure) == [0b1111] and pure[0b1111].tolist() == [0.0]
    grid = cascade.grid_amplitudes(2.0, 1.0, [0.1, 0.2], 0.7)
    dense = np.stack([cascade.dephased_density(DecayParams(2.0, 1.0, dt), 0.7) for dt in (0.1, 0.2)])
    np.testing.assert_allclose(entanglement.subset_entropies(grid, [0b1111])[0b1111],
                               entanglement.subset_entropies(dense, [0b1111])[0b1111], rtol=0, atol=1e-12)


def _pair_blocks(rng, n):
    """(a, b, c) of 2x2 blocks of the branch reductions: near-rank-one pure
    blocks (|c|^2 within a few ulps of ab, and weights down to 1e-300),
    dephased blocks c = d sqrt(ab) for d in [0, 1], and the all-zero block."""
    a = np.concatenate([rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-300.0, -1.0, n)])
    b = (1.0 - a) * rng.uniform(0.0, 1.0, 2 * n) ** rng.integers(0, 2, 2 * n)
    pure = np.sqrt(a * b) * (1.0 + rng.choice([-2.0, -1.0, 0.0, 1.0], 2 * n) * 2.0**-53)
    d = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 2 * n - 2)])
    return (np.concatenate(parts) for parts in ((a, a, [0.0]), (b, b, [0.0]), (pure, d * np.sqrt(a * b), [0.0])))


def test_pair_spectrum_matches_a_60_digit_reference():
    # the closed form within 1e-15 absolute of each eigenvalue; within 1e-15
    # relative where |c|^2 <= ab/4, so that ab - |c|^2 cancels nothing and
    # the smaller eigenvalue, however far below the larger, keeps its digits
    # (the form (a+b)/2 - hypot(...) fails this); and exactly (0, 0), with
    # no RuntimeWarning, on the all-zero block of dt = 0
    a, b, c = _pair_blocks(np.random.default_rng(12), 300)
    upper, lower = entanglement._pair_spectrum(a, b, c)
    want = np.array([oracle_math.pair_eigenvalues(*abc) for abc in zip(a, b, c)])
    got = np.column_stack([upper, lower])
    bound = np.where((c * c <= a * b / 4.0)[:, None], 1e-15 * want, 1e-15)
    bad = np.flatnonzero((np.abs(got - want) > bound).any(axis=1))
    assert not bad.size, [(a[k], b[k], c[k]) for k in bad[:5]]
    assert (upper[-1], lower[-1]) == (0.0, 0.0)


def test_table_check_catches_a_reduction_of_the_wrong_modes(monkeypatch):
    # a partial trace that keeps only the first listed mode still returns
    # valid density matrices; for the pure state S(A) = S(BE) then fails
    partial_trace = qmath.partial_trace
    monkeypatch.setattr(qmath, "partial_trace", lambda rho, dims, keep: partial_trace(rho, dims, list(keep)[:1]))
    with pytest.raises(ArithmeticError, match="Araki-Lieb"):
        entanglement.conditional_mutual_information(final_density(POINT), EveSplit({EB}, {EX}))
    with pytest.raises(ArithmeticError, match="Araki-Lieb"):
        entanglement.mutual_information(final_density(POINT), entanglement.channel_by_id(5))


def patch_folds(monkeypatch, reduction):
    """Replace ``_reduction`` for the test, with a table-plan cache of its
    own: a plan cached before the patch would hide the fault, and one built
    under it must not outlive the test."""
    monkeypatch.setattr(entanglement, "_reduction", reduction)
    plan = entanglement._table_plan
    monkeypatch.setattr(entanglement, "_table_plan", functools.lru_cache(**plan.cache_parameters())(plan.__wrapped__))


def test_table_check_catches_a_branch_reduction_of_the_wrong_modes(monkeypatch):
    # the same fault on the branch path: keep only the last mode of each
    # subset, in the reduction the tables merge populations by
    rho = cascade.amplitudes(POINT)
    split = EveSplit({EB}, {EX})
    before = entanglement.subset_entropies(rho, split.subsets)
    reduction = entanglement._reduction
    with monkeypatch.context() as patched:
        patch_folds(patched, lambda mask: reduction(mask & -mask))
        with pytest.raises(ArithmeticError, match="0100 and 1000 .* Araki-Lieb"):
            entanglement.conditional_mutual_information(rho, split)
        with pytest.raises(ArithmeticError, match="0011 and 1100 .* Araki-Lieb"):
            entanglement.mutual_information(rho, entanglement.channel_by_id(5))
    # the faulty plans went with the patch
    assert_same_table(entanglement.subset_entropies(rho, split.subsets), before)


def test_branch_table_rejects_a_fold_with_two_coherent_pairs(monkeypatch):
    # no reduction below the whole state couples more than one pair of
    # branches; the whole state's own, which couples all three, stands in
    rho = cascade.amplitudes(POINT)
    before = entanglement.subset_entropies(rho, [0b1000])
    reduction = entanglement._reduction
    with monkeypatch.context() as patched:
        patch_folds(patched, lambda mask: reduction(0b1111))
        for _ in range(2):  # a plan that raised is not cached
            with pytest.raises(ArithmeticError, match="modes 1000 couples 3 branch pairs"):
                entanglement.subset_entropies(rho, [0b1000])
    assert_same_table(entanglement.subset_entropies(rho, [0b1000]), before)
