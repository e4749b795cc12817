"""State construction for the two-pulse cascade protocol."""

import math

import numpy as np
import pytest

from qdcascade import cascade, oracle
from qdcascade.cascade import DecayParams

import oracle_math

LN2 = math.log(2.0)

# ratio-2 working point: gamma_b * dt = ln 2, so alpha^2 = 1/2
POINT = DecayParams(gamma_b=2.0, gamma_x=1.0, delta_t=LN2 / 2)
ALPHA2 = 0.5
BETA2 = math.sqrt(2.0) - 1.0
GAMMA2 = 1.5 - math.sqrt(2.0)


def param_grid():
    rates = np.geomspace(0.1, 10.0, 6)
    delays = np.geomspace(1e-3, 10.0, 6)
    for gb in rates:
        for gx in rates:
            for dt in delays:
                yield DecayParams(float(gb), float(gx), float(dt))


# --------------------------------------------------------------------------
# amplitudes
# --------------------------------------------------------------------------

def test_amplitudes_zero_delay():
    a = cascade.amplitudes(DecayParams(2.0, 1.0, 0.0))
    assert (a.alpha, a.beta, a.gamma) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("gamma_x", [0.2, 1.0, 5.0, 2.0 * (1 + 1e-12)])
def test_alpha_is_invsqrt2_when_gb_dt_is_log2(gamma_x):
    a = cascade.amplitudes(DecayParams(2.0, gamma_x, LN2 / 2))
    assert abs(a.alpha - 1.0 / math.sqrt(2.0)) < 1e-12


def test_amplitudes_ratio2_point():
    a = cascade.amplitudes(POINT)
    assert abs(a.alpha2 - ALPHA2) < 1e-12
    assert abs(a.beta2 - BETA2) < 1e-12
    assert abs(a.gamma2 - GAMMA2) < 1e-12
    # decimal anchors
    np.testing.assert_allclose(
        (a.alpha, a.beta, a.gamma), (0.707107, 0.643594, 0.292893), atol=1e-6
    )


def test_amplitudes_match_rate_equation_oracle():
    for params in [
        POINT,
        DecayParams(1.0, 1.0, 1.0),
        DecayParams(0.5, 1.0, 2.0),
        DecayParams(10.0, 1.0, 0.05),
    ]:
        a = cascade.amplitudes(params)
        pops = oracle.rate_equation_populations(params, 1e-4)
        assert abs(pops.p_b - a.alpha2) < 1e-8
        assert abs(pops.p_x - a.beta2) < 1e-8
        assert abs(pops.p_g - a.gamma2) < 1e-8


def test_amplitudes_normalized_on_grid():
    for params in param_grid():
        a = cascade.amplitudes(params)
        assert abs(a.alpha2 + a.beta2 + a.gamma2 - 1.0) < 1e-12


def test_amplitudes_continuous_at_equal_rates():
    for gb in (0.3, 1.0, 4.0):
        for dt in (0.1, 1.0, 5.0):
            base = cascade.amplitudes(DecayParams(gb, gb, dt)).beta2
            up = cascade.amplitudes(DecayParams(gb, gb * (1 + 1e-6), dt)).beta2
            down = cascade.amplitudes(DecayParams(gb, gb * (1 - 1e-6), dt)).beta2
            assert abs(base - up) < 1e-5
            assert abs(base - down) < 1e-5


def test_amplitudes_degenerate_limit_value():
    # gamma_x == gamma_b: beta^2 = gamma_b dt exp(-gamma_b dt)
    a = cascade.amplitudes(DecayParams(1.0, 1.0, 1.0))
    assert abs(a.beta2 - math.exp(-1.0)) < 1e-12


@pytest.mark.parametrize(
    "gamma_b,gamma_x,dt,beta2",
    [
        # mpmath at 50 digits of gb (exp(-gb dt) - exp(-gx dt)) / (gx - gb), at the
        # double nearest each argument
        (1.0, 1.0 + 2e-9, 0.7, 0.34760971241065986182),  # near-degenerate rates
        (2.0, 1.0, 400.0, 3.83033919342801139e-174),  # deep tail, gb > gx
        (2.0, 1.0, 1e308, 0.0),  # about 1.9 * 10^(-4.34e307), which rounds to 0
        (1e300, 1e-300, 1e10, 1.0),  # 1 - ~1e-290; gb dt and |gx - gb| dt overflow
    ],
)
def test_amplitudes_beta2_matches_high_precision_value(gamma_b, gamma_x, dt, beta2):
    got = cascade.amplitudes(DecayParams(gamma_b, gamma_x, dt)).beta2
    assert abs(got - beta2) <= 1e-14 * beta2


def test_decay_params_validation():
    with pytest.raises(ValueError):
        DecayParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DecayParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        DecayParams(1.0, 1.0, -0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            DecayParams(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            DecayParams(1.0, bad, 1.0)
        with pytest.raises(ValueError):
            DecayParams(1.0, 1.0, bad)


def test_amplitude_container_validation():
    with pytest.raises(ValueError):
        cascade.Amplitudes(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        cascade.Amplitudes(-0.6, 0.8, 0.0)
    with pytest.raises(ValueError):
        cascade.Amplitudes(math.nan, 0.0, 1.0)


# --------------------------------------------------------------------------
# early state and second pulse
# --------------------------------------------------------------------------

def _early_basis_index(level, n_b, n_x):
    return level * 4 + n_b * 2 + n_x


def test_early_state_zero_delay_is_biexciton_vacuum():
    v = oracle_math.early_state(DecayParams(2.0, 1.0, 0.0))
    expected = np.zeros(12, dtype=complex)
    expected[_early_basis_index(2, 0, 0)] = 1.0
    np.testing.assert_array_equal(v, expected)


def test_early_state_full_decay_limit():
    v = oracle_math.early_state(DecayParams(2.0, 1.0, 25.0))  # gamma_b dt = 50
    assert abs(v[_early_basis_index(0, 1, 1)]) >= 1.0 - 1e-10


def test_early_state_at_working_point():
    v = oracle_math.early_state(POINT)
    assert abs(v[_early_basis_index(2, 0, 0)] - 0.707107) < 1e-6
    assert abs(v[_early_basis_index(1, 1, 0)] - 0.643594) < 1e-6
    assert abs(v[_early_basis_index(0, 1, 1)] - 0.292893) < 1e-6
    assert np.count_nonzero(v) == 3


def test_second_pulse_swaps_ground_and_biexciton():
    g00 = np.zeros(12, dtype=complex)
    g00[_early_basis_index(0, 0, 0)] = 1.0
    out = oracle_math.apply_second_pulse(g00)
    assert out[_early_basis_index(2, 0, 0)] == 1.0
    assert abs(np.linalg.norm(out) - 1.0) == 0.0


def test_second_pulse_leaves_exciton_untouched():
    x10 = np.zeros(12, dtype=complex)
    x10[_early_basis_index(1, 1, 0)] = 1.0
    np.testing.assert_array_equal(oracle_math.apply_second_pulse(x10), x10)


def test_second_pulse_on_early_state():
    a = cascade.amplitudes(POINT)
    out = oracle_math.apply_second_pulse(oracle_math.early_state(POINT))
    assert out[_early_basis_index(0, 0, 0)] == a.alpha
    assert out[_early_basis_index(1, 1, 0)] == a.beta
    assert out[_early_basis_index(2, 1, 1)] == a.gamma
    assert np.count_nonzero(out) == 3


def test_second_pulse_is_norm_preserving_involution():
    rng = np.random.default_rng(9)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    v /= np.linalg.norm(v)
    swapped = oracle_math.apply_second_pulse(v)
    assert np.linalg.norm(swapped) == pytest.approx(np.linalg.norm(v), abs=0.0)
    np.testing.assert_array_equal(oracle_math.apply_second_pulse(swapped), v)


def test_second_pulse_rejects_wrong_shape():
    with pytest.raises(ValueError):
        oracle_math.apply_second_pulse(np.zeros(16, dtype=complex))


# --------------------------------------------------------------------------
# final state
# --------------------------------------------------------------------------

def test_final_state_support_and_values():
    v = cascade.final_state(POINT)
    nonzero = [i for i in range(16) if abs(v[i]) > 1e-15]
    assert nonzero == [0, 9, 15]
    assert abs(v[0] - 0.707107) < 1e-6
    assert abs(v[9] - 0.643594) < 1e-6
    assert abs(v[15] - 0.292893) < 1e-6


def test_final_state_zero_delay_is_vacuum():
    v = cascade.final_state(DecayParams(2.0, 1.0, 0.0))
    expected = np.zeros(16, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_array_equal(v, expected)


def test_final_state_full_decay_limit():
    v = cascade.final_state(DecayParams(2.0, 1.0, 25.0))  # gamma_b dt = 50
    assert abs(v[15] - 1.0) < 1e-10


def test_final_state_support_across_grid():
    for params in param_grid():
        v = cascade.final_state(params)
        others = np.delete(np.abs(v), [0, 9, 15])
        assert np.all(others < 1e-15)


def test_pipeline_equivalence():
    # early window -> pulse -> completed late cascade reproduces the direct
    # construction
    for params in param_grid():
        via_pipeline = oracle_math.complete_late_decay(
            oracle_math.apply_second_pulse(oracle_math.early_state(params))
        )
        np.testing.assert_allclose(via_pipeline, cascade.final_state(params), atol=1e-12)


# --------------------------------------------------------------------------
# GHZ reference and fidelity
# --------------------------------------------------------------------------

def test_ghz_state_small_sizes():
    bell = cascade.ghz_state(2)
    np.testing.assert_allclose(bell, [2**-0.5, 0, 0, 2**-0.5], atol=1e-15)
    three = cascade.ghz_state(3)
    assert three[0] == three[7] == pytest.approx(2**-0.5)
    four = cascade.ghz_state(4)
    assert four[0] == four[15] == pytest.approx(2**-0.5)
    assert np.count_nonzero(four) == 2


def test_ghz_state_rejects_single_qubit():
    with pytest.raises(ValueError):
        cascade.ghz_state(1)


def test_ghz_fidelity_closed_form_equals_inner_product():
    ghz = cascade.ghz_state(4)
    for params in param_grid():
        overlap = abs(np.vdot(ghz, cascade.final_state(params))) ** 2
        assert abs(cascade.amplitudes(params).ghz_fidelity - overlap) < 1e-12


def test_ghz_fidelity_values():
    assert abs(cascade.amplitudes(DecayParams(2.0, 1.0, 0.0)).ghz_fidelity - 0.5) < 1e-15
    assert abs(cascade.amplitudes(POINT).ghz_fidelity - 0.5) < 1e-12
    nearly_ghz = DecayParams(2.0, 2.0e4, LN2 / 2)  # gamma_x / gamma_b = 1e4
    assert cascade.amplitudes(nearly_ghz).ghz_fidelity >= 0.999


def test_ghz_fidelity_increases_with_rate_ratio():
    fids = []
    for ratio in np.geomspace(0.1, 100.0, 20):
        gb = 2.0
        fids.append(cascade.amplitudes(DecayParams(gb, ratio * gb, LN2 / gb)).ghz_fidelity)
    assert all(b > a for a, b in zip(fids, fids[1:]))


# --------------------------------------------------------------------------
# dephasing
# --------------------------------------------------------------------------

def test_dephased_density_limits():
    v = cascade.final_state(POINT)
    pure = np.outer(v, v.conj())
    np.testing.assert_array_equal(cascade.dephased_density(POINT, 1.0), pure)
    diagonal = cascade.dephased_density(POINT, 0.0)
    np.testing.assert_array_equal(diagonal, np.diag(np.diag(pure)))
    a = cascade.amplitudes(POINT)
    np.testing.assert_allclose(
        np.diag(diagonal).real.take([0, 9, 15]), [a.alpha2, a.beta2, a.gamma2], atol=1e-14
    )


def test_dephased_density_half_attenuation_entry():
    rho = cascade.dephased_density(POINT, 0.5)
    assert abs(rho[0, 9].real - 0.22754493028111372) < 1e-12
    assert abs(rho[0, 9].real - 0.5 * 0.707107 * 0.643594) < 1e-6


def test_dephased_density_is_valid_for_all_d():
    from qdcascade import qmath

    for d in np.linspace(0.0, 1.0, 5):
        rho = cascade.dephased_density(POINT, float(d))
        qmath.require_density_matrix(rho)
        assert qmath.eig_hermitian(rho)[0] > -1e-12


def test_dephased_density_rejects_bad_attenuation():
    with pytest.raises(ValueError):
        cascade.dephased_density(POINT, -0.1)
    with pytest.raises(ValueError):
        cascade.dephased_density(POINT, 1.1)


@pytest.mark.parametrize("d", [-0.2, 1.000000001, math.nan])
def test_branch_densities_rejects_dephasing_outside_the_unit_interval(d):
    # every dephased state is built here, so the range is checked here
    amps = cascade.grid_amplitudes(2.0, 1.0, np.geomspace(1e-2, 10.0, 200))
    with pytest.raises(ValueError, match="dephase"):
        cascade.branch_densities(amps, d)


def test_mode_label_order_and_parsing():
    labels = list(cascade.ModeLabel)
    assert [int(m) for m in labels] == [0, 1, 2, 3]
    assert cascade.ModeLabel.parse("early-b") is cascade.ModeLabel.EARLY_B
    assert cascade.ModeLabel.parse("LX") is cascade.ModeLabel.LATE_X
    with pytest.raises(ValueError):
        cascade.ModeLabel.parse("mid-b")
