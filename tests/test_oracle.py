"""Rate-equation integrator and quantum-jump trajectory sampler."""

import math
import os

import pytest

from qdcascade import cascade, oracle
from qdcascade.cascade import DecayParams
from qdcascade.oracle import (
    IDEAL_PATTERNS,
    PATTERN_FULL_EARLY,
    PATTERN_SPLIT,
    PATTERN_SURVIVED,
    PatternCounts,
    Populations,
)

LN2 = math.log(2.0)


def z_scores(counts, probs):
    out = []
    for pattern, p in zip(IDEAL_PATTERNS, probs):
        n = counts.counts[pattern]
        out.append((n - counts.trials * p) / math.sqrt(counts.trials * p * (1.0 - p)))
    return out


# --------------------------------------------------------------------------
# rate equations
# --------------------------------------------------------------------------

def test_rk4_zero_delay():
    pops = oracle.rate_equation_populations(DecayParams(2.0, 1.0, 0.0), 1e-4)
    assert (pops.p_b, pops.p_x, pops.p_g) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 10.0])
def test_rk4_matches_closed_form(ratio):
    gb, gx = ratio, 1.0
    for dt in (LN2 / gb, 1.0):
        params = DecayParams(gb, gx, dt)
        a = cascade.amplitudes(params)
        pops = oracle.rate_equation_populations(params, 1e-4)
        assert abs(pops.p_b - a.alpha2) < 1e-8
        assert abs(pops.p_x - a.beta2) < 1e-8
        assert abs(pops.p_g - a.gamma2) < 1e-8


def test_rk4_degenerate_rates_value():
    # equal rates: exciton population = gamma dt exp(-gamma dt) = 1/e at dt=1
    pops = oracle.rate_equation_populations(DecayParams(1.0, 1.0, 1.0), 1e-4)
    assert abs(pops.p_x - math.exp(-1.0)) < 1e-8


def test_rk4_fourth_order_convergence():
    params = DecayParams(2.0, 1.0, 1.0)
    a = cascade.amplitudes(params)

    def max_deviation(step):
        pops = oracle.rate_equation_populations(params, step)
        return max(
            abs(pops.p_b - a.alpha2), abs(pops.p_x - a.beta2), abs(pops.p_g - a.gamma2)
        )

    coarse, fine = max_deviation(0.02), max_deviation(0.01)
    assert coarse / fine >= 8.0


def test_rk4_step_validation():
    with pytest.raises(ValueError):
        oracle.rate_equation_populations(DecayParams(2.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        oracle.rate_equation_populations(DecayParams(2.0, 1.0, 1.0), -1e-3)
    with pytest.raises(ValueError):
        oracle.rate_equation_populations(DecayParams(2.0, 1.0, 1.0), 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            oracle.rate_equation_populations(DecayParams(2.0, 1.0, 1.0), bad)


def test_populations_validation():
    with pytest.raises(ValueError):
        Populations(0.6, 0.6, 0.1)
    with pytest.raises(ValueError):
        Populations(1.2, -0.1, -0.1)


# --------------------------------------------------------------------------
# trajectory sampler
# --------------------------------------------------------------------------

def test_mc_support_is_the_three_branches():
    counts = oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 7)
    assert set(counts.support()) <= {PATTERN_SURVIVED, PATTERN_SPLIT, PATTERN_FULL_EARLY}
    assert sum(counts.counts) == counts.trials


def test_mc_zero_delay_all_trajectories_terminated_by_pulse():
    # at dt = 0 the pulse hits the freshly excited emitter and dumps it to
    # the ground state before anything is emitted
    counts = oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, 0.0), 100_000, 3)
    assert counts.support() == (PATTERN_SURVIVED,)
    assert set(counts.support()) <= set(IDEAL_PATTERNS)


@pytest.mark.parametrize(
    "gamma_b,delta_t",
    [(2.0, LN2 / 2), (1.0, 0.8), (10.0, LN2 / 10)],
)
def test_mc_frequencies_match_branch_probabilities(gamma_b, delta_t):
    params = DecayParams(gamma_b, 1.0, delta_t)
    a = cascade.amplitudes(params)
    counts = oracle.monte_carlo_patterns(params, 1_000_000, 42)
    for z in z_scores(counts, (a.alpha2, a.beta2, a.gamma2)):
        assert abs(z) < 4.0


def test_mc_seed_reproducibility():
    params = DecayParams(2.0, 1.0, LN2 / 2)
    first = oracle.monte_carlo_patterns(params, 300_000, 123)
    second = oracle.monte_carlo_patterns(params, 300_000, 123)
    assert first == second
    different = oracle.monte_carlo_patterns(params, 300_000, 124)
    assert different != first


def test_mc_worker_count_invariance():
    params = DecayParams(2.0, 1.0, LN2 / 2)
    serial = oracle.monte_carlo_patterns(params, 500_000, 99, workers=1)
    threaded = oracle.monte_carlo_patterns(params, 500_000, 99, workers=4)
    assert serial == threaded
    os.environ["CASCADE_THREADS"] = "3"
    try:
        from_env = oracle.monte_carlo_patterns(params, 500_000, 99)
    finally:
        del os.environ["CASCADE_THREADS"]
    assert from_env == serial


def test_mc_rejects_zero_trials():
    with pytest.raises(ValueError):
        oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, 1.0), 0, 1)


def test_pattern_counts_validation():
    with pytest.raises(ValueError):
        PatternCounts(counts=(1,) * 15, trials=15)
    with pytest.raises(ValueError):
        PatternCounts(counts=(1,) * 16, trials=15)
    counts = PatternCounts(counts=tuple([10] + [0] * 14 + [30]), trials=40)
    assert counts.frequency(0) == 0.25
    assert counts.support() == (0, 15)
