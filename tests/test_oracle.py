"""Rate-equation integrator and quantum-jump trajectory sampler."""

import concurrent.futures
import math
import os
import re
import statistics
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdcascade import cascade, cli, oracle
from qdcascade.cascade import DecayParams
from qdcascade.oracle import (
    IDEAL_PATTERNS,
    PATTERN_FULL_EARLY,
    PATTERN_SPLIT,
    PATTERN_SURVIVED,
    TRIALS_PER_BLOCK,
    PatternCounts,
    Populations,
)

import oracle_math

LN2 = math.log(2.0)


def z_scores(counts, probs):
    out = []
    for pattern, n, p in zip(IDEAL_PATTERNS, counts.counts, probs):
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


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 10.0])
def test_rk4_power_matches_the_step_loop(ratio):
    # 1e-4 gives ceil(delta_t / 1e-4) steps, 3466 at ratio 2, not a power of
    # 2; 2**-10 at delta_t = 1 gives 1024, a power of 2
    for dt, step in ((LN2 / ratio, 1e-4), (1.0, 2.0**-10)):
        pops = oracle.rate_equation_populations(DecayParams(ratio, 1.0, dt), step)
        loop = oracle_math.rk4_step_loop(ratio, 1.0, dt, step)
        assert max(abs(a - b) for a, b in zip((pops.p_b, pops.p_x, pops.p_g), loop)) < 1e-14, (dt, step)


@pytest.mark.parametrize(
    "gamma_b,expected",
    [
        (2.0, (0.5, 0.41421356237309503, 0.08578643762690495)),
        (0.5, (0.5, 0.25000000000000006, 0.25000000000000006)),
    ],
)
def test_rk4_populations_pinned(gamma_b, expected):
    # recorded from the integrator that takes its n steps as one power of the step map
    pops = oracle.rate_equation_populations(DecayParams(gamma_b, 1.0, LN2 / gamma_b), 1e-4)
    assert (pops.p_b, pops.p_x, pops.p_g) == expected


def test_rk4_a_billion_steps_run_in_bounded_time():
    # ceil(1 / 1e-9) = 1e9 steps: about 30 squarings of the step map, where a
    # loop of steps would run for minutes; 1e300 steps take about 1000 squarings
    params = DecayParams(2.0, 1.0, 1.0)
    a = cascade.amplitudes(params)
    for step in (1e-9, 1e-300):
        start = time.perf_counter()
        pops = oracle.rate_equation_populations(params, step)
        assert time.perf_counter() - start < 0.1
        assert max(abs(pops.p_b - a.alpha2), abs(pops.p_x - a.beta2), abs(pops.p_g - a.gamma2)) < 1e-13


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
    with pytest.raises(ValueError) as exc:
        oracle.rate_equation_populations(DecayParams(2.0, 1.0, 1.0), 0.5)
    assert str(exc.value) == "step must be at most dt / 10, got 0.5 for dt 1.0"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            oracle.rate_equation_populations(DecayParams(2.0, 1.0, 1.0), bad)
    # a step count delta_t / step of inf, whose ceil used to raise OverflowError
    for delta_t, step in ((LN2 / 2, 5e-324), (1.7e308, 1e-4)):
        with pytest.raises(ValueError) as exc:
            oracle.rate_equation_populations(DecayParams(2.0, 1.0, delta_t), step)
        assert str(exc.value) == f"step must be coarse enough for a finite dt / step, got {step!r} for dt {delta_t!r}"


@pytest.mark.parametrize("gamma_b, delta_t, step", [(1e300, 1e10, 1e9), (1e308, 20.0, 2.0)])
def test_rk4_step_map_that_overflows_is_refused_without_a_warning(gamma_b, delta_t, step):
    # h gamma_b overflows in h A itself: Populations refuses the NaN, and the
    # suite turns any RuntimeWarning on the way into a failure
    with pytest.raises(ValueError, match=r"p_b outside \[0, 1\]: nan"):
        oracle.rate_equation_populations(DecayParams(gamma_b, 1.0, delta_t), step)


def test_populations_validation():
    with pytest.raises(ValueError):
        Populations(0.6, 0.6, 0.1)
    with pytest.raises(ValueError):
        Populations(1.2, -0.1, -0.1)
    for bad in ((math.nan, 0.0, 1.0), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError, match="outside"):
            Populations(*bad)


# --------------------------------------------------------------------------
# trajectory sampler
# --------------------------------------------------------------------------

def test_mc_support_is_the_three_branches():
    counts = oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 7)
    assert set(counts.support()) <= {PATTERN_SURVIVED, PATTERN_SPLIT, PATTERN_FULL_EARLY}
    assert counts.trials == 200_000


def test_mc_zero_delay_all_trajectories_terminated_by_pulse():
    # at dt = 0 the pulse hits the freshly excited emitter and dumps it to
    # the ground state before anything is emitted
    counts = oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, 0.0), 100_000, 3)
    assert counts.support() == (PATTERN_SURVIVED,)
    assert set(counts.support()) <= set(IDEAL_PATTERNS)


# 1e6 trials, seed 42, per gamma_b, in IDEAL_PATTERNS order; recorded from
# the sampler whose block k draws from SFC64 on SeedSequence(42, spawn_key=(k,))
PINNED_COUNTS = {
    2.0: (500109, 414106, 85785),
    1.0: (449424, 359055, 191521),
    10.0: (500109, 480877, 19014),
}


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
    assert counts.counts == PINNED_COUNTS[gamma_b]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_counts_pinned_with_a_one_trial_last_block(workers):
    counts = oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, LN2 / 2), TRIALS_PER_BLOCK + 1, 3, workers)
    assert counts.counts == (32805, 27019, 5713)


RATES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    gamma_b=RATES,
    gamma_x=RATES,
    delta_t=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**64),
    # up to three blocks, the last one cut short at any length
    trials=st.builds(lambda full, last: full * TRIALS_PER_BLOCK + last, st.integers(0, 2), st.integers(1, TRIALS_PER_BLOCK)),
)
# each rate so tiny in turn that its quotient overflows to inf, a gamma_b
# delta_t that overflows, equal rates (scaled by 1), and no delay
@example(gamma_b=1e-320, gamma_x=1.0, delta_t=LN2 / 2, seed=3, trials=TRIALS_PER_BLOCK + 10)
@example(gamma_b=1.0, gamma_x=1e-320, delta_t=LN2 / 2, seed=3, trials=TRIALS_PER_BLOCK + 10)
@example(gamma_b=1e300, gamma_x=1.0, delta_t=1e10, seed=3, trials=TRIALS_PER_BLOCK + 10)
@example(gamma_b=2.0, gamma_x=2.0, delta_t=0.5, seed=3, trials=TRIALS_PER_BLOCK + 10)
@example(gamma_b=2.0, gamma_x=1.0, delta_t=0.0, seed=3, trials=TRIALS_PER_BLOCK + 10)
def test_mc_counts_equal_the_quotient_tally(gamma_b, gamma_x, delta_t, seed, trials):
    # the sampler counts both events on log(1 - u) against rate-scaled
    # thresholds; the waiting times as quotients must give the same counts
    params = DecayParams(gamma_b, gamma_x, delta_t)
    survived, late = oracle_math.divide_tally(params, trials, seed)
    expected = (survived, late - survived, trials - late)
    for workers in (1, 2):
        assert oracle.monte_carlo_patterns(params, trials, seed, workers).counts == expected, workers


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_a_tiny_rate_waits_forever_without_a_warning(workers):
    # at gamma_b = 1e-320 the survivor threshold -gamma_b delta_t is a tiny
    # negative number that every log(1 - u) < 0 lies below: the biexciton
    # never decays before the delay; the suite turns a warning into an error
    counts = oracle.monte_carlo_patterns(DecayParams(1e-320, 1.0, LN2 / 2), TRIALS_PER_BLOCK + 10, 3, workers)
    assert counts.counts == (TRIALS_PER_BLOCK + 10, 0, 0)


def test_mc_z_scores_over_many_seeds_are_standard_normal():
    # 64 seeds x one block at the ratio-2 anchor: each pattern's z-score is
    # N(0, 1), so its sample mean has standard error 1/8 and its sample sd
    # about 0.09; the bounds are 4 of each
    params = DecayParams(2.0, 1.0, LN2 / 2)
    a = cascade.amplitudes(params)
    per_seed = [
        z_scores(oracle.monte_carlo_patterns(params, TRIALS_PER_BLOCK, seed), (a.alpha2, a.beta2, a.gamma2))
        for seed in range(64)
    ]
    for pattern, zs in zip(IDEAL_PATTERNS, zip(*per_seed)):
        assert abs(statistics.fmean(zs)) < 0.5, pattern
        assert 0.64 < statistics.stdev(zs) < 1.36, pattern


def test_mc_seeds_do_not_share_block_streams():
    # block k of seed s used to be block k ^ 1 of seed s ^ 1, so seeds 0 and
    # 1 gave the same counts over two blocks
    assert oracle._block_rng(0, 1).random() != oracle._block_rng(1, 0).random()
    params = DecayParams(2.0, 1.0, LN2 / 2)
    counts = [oracle.monte_carlo_patterns(params, 2 * TRIALS_PER_BLOCK, seed) for seed in (0, 1)]
    assert counts[0] != counts[1]


def test_mc_seeds_do_not_alias_modulo_2_64(capsys):
    # seeds used to be reduced mod 2**64, so 2**64 drew seed 0's streams
    # and -1 those of 2**64 - 1; now a negative seed is refused
    params = DecayParams(2.0, 1.0, LN2 / 2)
    counts = [oracle.monte_carlo_patterns(params, TRIALS_PER_BLOCK, seed) for seed in (0, 1 << 64)]
    assert counts[0] != counts[1]
    with pytest.raises(ValueError, match="seed"):
        oracle.monte_carlo_patterns(params, TRIALS_PER_BLOCK, -1)
    code = cli.main(["validate", "--seed", "-1", "--trials", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (cli.EXIT_BAD_ARGUMENTS, "", "error: seed must be non-negative, got -1\n")


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


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records the pool size and maps in
    the calling thread, so no thread starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus,blocks,pool_size", [(2, 5, 2), (64, 3, 3)])
def test_mc_thread_pool_capped_at_cpus_and_blocks(monkeypatch, cpus, blocks, pool_size):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setenv("CASCADE_THREADS", "100000")
    assert oracle._worker_count(None, blocks) == pool_size
    assert oracle._worker_count(100_000, blocks) == pool_size
    params = DecayParams(2.0, 1.0, LN2 / 2)
    counts = oracle.monte_carlo_patterns(params, blocks * TRIALS_PER_BLOCK, 5)
    assert RecordingPool.sizes == [pool_size]
    assert counts == oracle.monte_carlo_patterns(params, blocks * TRIALS_PER_BLOCK, 5, workers=1)


def test_mc_rejects_a_non_integer_thread_count(monkeypatch, capsys):
    monkeypatch.setenv("CASCADE_THREADS", "two")
    with pytest.raises(ValueError, match="CASCADE_THREADS"):
        oracle._worker_count(None, 4)
    assert cli.main(["validate", "--trials", "10"]) == cli.EXIT_BAD_ARGUMENTS
    captured = capsys.readouterr()
    assert "CASCADE_THREADS" in captured.err and captured.out == ""


def test_mc_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
        oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, 1.0), 0, 1)


def test_mc_refuses_trials_above_the_bound_before_any_block(monkeypatch):
    def no_block(seed, block_index):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(oracle, "_block_rng", no_block)
    for trials in (oracle.MAX_TRIALS + 1, 10**20):
        with pytest.raises(ValueError, match=f"trials must be at most {oracle.MAX_TRIALS}, got {trials}"):
            oracle.monte_carlo_patterns(DecayParams(2.0, 1.0, 1.0), trials, 1)


def test_validate_fails_tallies_in_the_wrong_places(monkeypatch):
    # validate pairs the tallies with (alpha^2, beta^2, gamma^2) by position;
    # a sampler that put them in the wrong places must fail the z-scores
    assert IDEAL_PATTERNS == cascade.BRANCH_KETS
    sample = oracle.monte_carlo_patterns
    monkeypatch.setattr(oracle, "monte_carlo_patterns", lambda *args: PatternCounts(sample(*args).counts[::-1]))
    lines, passed = cli.validate_oracles(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 42)
    z = dict(re.fullmatch(r"pattern (\d{4}): count \d+ z = (\S+)(?: \(FAIL\))?", line).groups()
             for line in lines if line.startswith("pattern "))
    assert abs(float(z["0000"])) > 5.0 and abs(float(z["1111"])) > 5.0, z
    assert not passed and lines[-1] == "result: FAIL"


def test_pattern_counts_validation():
    for wrong_length in ((1,) * 16, (1, 1)):
        with pytest.raises(ValueError, match="need one counter per branch pattern"):
            PatternCounts(counts=wrong_length)
    # a tally fault with late < survived makes SPLIT negative; the trials
    # would still come out right and support() would hide the entry
    with pytest.raises(ValueError, match="pattern counts must be non-negative, got -5"):
        PatternCounts(counts=(8, -5, 7))
    counts = PatternCounts(counts=(10, 0, 30))
    assert counts.support() == (0b0000, 0b1111)
    assert counts.trials == 40
