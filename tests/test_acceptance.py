"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All tolerances are pinned here, not configurable.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

from qdcascade import cascade, cli, entanglement, oracle, qmath
from qdcascade.cascade import DecayParams, ModeLabel
from qdcascade.entanglement import EveSplit

import oracle_math

LN2 = math.log(2.0)
EB, EX, LB, LX = ModeLabel
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# ratio-2 anchor: gamma_b dt = ln 2 so the branch weights are
# (1/2, sqrt(2)-1, 3/2-sqrt(2)) ~= (0.5, 0.414214, 0.085786)
ANCHOR = DecayParams(gamma_b=2.0, gamma_x=1.0, delta_t=LN2 / 2)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] {name}: FAIL")
                raise
            print(f"[criterion {number:02d}] {name}: PASS")

        return wrapper

    return decorate


def final_density(params):
    return qmath.density_from_state(cascade.final_state(params))


def protected_rate(alpha2, beta2, gamma2):
    """I(eB : lB lX | eX) of the pure state with these branch weights.

    The state is pure, so I(A:BE) = 2 S(eB) = 2 h(alpha^2). The early modes
    are diagonal (the late patterns 00, 01, 11 are distinct), so
    I(A:E) = h(alpha^2) + h(gamma^2) - H(alpha^2, beta^2, gamma^2).
    """
    return (
        oracle_math.shannon_entropy((alpha2, beta2, gamma2))
        + oracle_math.binary_entropy(alpha2)
        - oracle_math.binary_entropy(gamma2)
    )


def protected_rate_closed_form(gx_dt):
    """``protected_rate`` at gamma_b : gamma_x = 2 : 1 and gamma_x dt = gx_dt."""
    return protected_rate(*oracle_math.branch_populations(2.0, 1.0, gx_dt))


def protected_rate_argmax(lo, hi):
    """Bisect on the sign of the central-difference slope of the closed form."""
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if protected_rate_closed_form(mid + 1e-6) > protected_rate_closed_form(mid - 1e-6):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@criterion(1, "branch-amplitude normalization on a 1000-point grid")
def test_criterion_01_normalization():
    rates = np.geomspace(0.1, 10.0, 10)
    delays = np.geomspace(1e-2, 10.0, 10)
    checked = 0
    for gb in rates:
        for gx in rates:  # same grid, so the degenerate line gb == gx is included
            for dt in delays:
                a = cascade.amplitudes(DecayParams(float(gb), float(gx), float(dt)))
                assert abs(a.alpha2 + a.beta2 + a.gamma2 - 1.0) <= 1e-12
                checked += 1
    assert checked == 1000


@criterion(2, "deterministic oracle: RK4 matches the closed form to 1e-8")
def test_criterion_02_rate_equation_oracle():
    start = time.perf_counter()
    for ratio in (0.5, 1.0, 2.0, 10.0):
        params = DecayParams(ratio, 1.0, LN2 / ratio)
        a = cascade.amplitudes(params)
        pops = oracle.rate_equation_populations(params, 1e-4)
        deviation = max(
            abs(pops.p_b - a.alpha2), abs(pops.p_x - a.beta2), abs(pops.p_g - a.gamma2)
        )
        assert deviation <= 1e-8, f"ratio {ratio}: deviation {deviation:.3e}"
    assert time.perf_counter() - start < 1.0


@criterion(3, "stochastic oracle: 1e6 trajectories within 4 sigma, reproducible")
def test_criterion_03_trajectory_oracle():
    a = cascade.amplitudes(ANCHOR)
    start = time.perf_counter()
    counts = oracle.monte_carlo_patterns(ANCHOR, 1_000_000, 42)
    elapsed = time.perf_counter() - start
    assert counts.support() == (0b0000, 0b1001, 0b1111)
    for pattern, n, prob in zip(oracle.IDEAL_PATTERNS, counts.counts, (a.alpha2, a.beta2, a.gamma2)):
        z = (n - counts.trials * prob) / math.sqrt(counts.trials * prob * (1.0 - prob))
        assert abs(z) <= 4.0, f"pattern {pattern:04b}: z = {z:.2f}"
    assert counts == oracle.monte_carlo_patterns(ANCHOR, 1_000_000, 42, workers=4)
    assert elapsed < 10.0


@criterion(4, "GHZ flatness: every channel carries exactly 2 bits")
def test_criterion_04_ghz_flatness():
    rho = qmath.density_from_state(cascade.ghz_state(4))
    for ch in entanglement.enumerate_channels():
        assert abs(entanglement.mutual_information(rho, ch) - 2.0) <= 1e-12


@criterion(5, "closed-form mutual information across a 200-point sweep")
def test_criterion_05_closed_form_mi():
    ch1 = entanglement.channel_by_id(1)
    ch5 = entanglement.channel_by_id(5)
    for gx_dt in np.geomspace(1e-2, 10.0, 200):
        params = DecayParams(2.0, 1.0, float(gx_dt))
        a = cascade.amplitudes(params)
        rho = final_density(params)
        mi1 = entanglement.mutual_information(rho, ch1)
        mi5 = entanglement.mutual_information(rho, ch5)
        assert abs(mi1 - 2.0 * oracle_math.binary_entropy(a.alpha2)) <= 1e-10
        assert abs(mi5 - 2.0 * oracle_math.shannon_entropy((a.alpha2, a.beta2, a.gamma2))) <= 1e-10
    # anchor point: generic eigensolver path vs direct closed form
    a = cascade.amplitudes(ANCHOR)
    rho = final_density(ANCHOR)
    mi1 = entanglement.mutual_information(rho, ch1)
    mi5 = entanglement.mutual_information(rho, ch5)
    closed5 = 2.0 * oracle_math.shannon_entropy((a.alpha2, a.beta2, a.gamma2))
    assert abs(mi1 - 2.0) <= 1e-6
    assert abs(mi5 - closed5) <= 1e-6
    assert abs(mi5 - 2.6612902346796816) <= 1e-9
    assert abs(mi5 - 2.661270) <= 1e-4  # quoted 6-digit anchor is loose


@criterion(6, "channel-averaged information stays below the GHZ value")
def test_criterion_06_average_below_ghz():
    # the channel average is fig3's mi_avg column, over the same 200 delays
    header, rows = cli.fig3_table()
    np.testing.assert_array_equal([row[0] for row in rows], np.geomspace(1e-2, 10.0, 200))
    for row in rows:
        assert row[header.index("mi_avg")] < 2.0


@criterion(7, "secret-rate optimum for the single-mode channel")
def test_criterion_07_secret_rate_optimum():
    # the vulnerable eavesdropper choice never beats the GHZ baseline
    vulnerable = EveSplit({EB}, {LX})
    for gx_dt in np.geomspace(1e-2, 10.0, 200):
        rho = final_density(DecayParams(2.0, 1.0, float(gx_dt)))
        assert entanglement.conditional_mutual_information(rho, vulnerable) <= 1.0 + 1e-9
    dt_vuln, cmi_vuln = cli.optimize_delay(2.0, 1.0, vulnerable, (1e-3, 10.0))
    assert cmi_vuln <= 1.0 + 1e-9

    # the protected choice: maximum rate and its location, against the
    # closed-form oracle's own argmax
    protected = EveSplit({EB}, {EX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, protected, (1e-3, 10.0))
    assert cmi_star > 1.0  # beats the GHZ baseline at the optimum
    dt_oracle = protected_rate_argmax(0.2, 0.5)
    rate_oracle = protected_rate_closed_form(dt_oracle)
    assert abs(cmi_star - rate_oracle) <= 1e-9, (
        f"max secret rate is {cmi_star:.12f}, closed form gives {rate_oracle:.12f}"
    )
    assert abs(dt_star - dt_oracle) <= 1e-4, (
        f"argmax gx_dt = {dt_star:.8f}, closed form gives {dt_oracle:.8f}"
    )
    grid = cascade.grid_amplitudes(2.0, 1.0, np.geomspace(1e-3, 10.0, 20001)[1:-1])
    for weights in zip(grid.alpha2.tolist(), grid.beta2.tolist(), grid.gamma2.tolist()):
        assert protected_rate(*weights) <= cmi_star + 1e-12

    # the quoted 1.9084 is the rate at the half-occupation point
    # gx_dt = ln2/2 (alpha^2 = 1/2), not the maximum
    half = LN2 / 2
    rate_half = protected_rate_closed_form(half)
    assert abs(rate_half - 1.9084) <= 1e-4
    cmi_half = entanglement.conditional_mutual_information(
        final_density(DecayParams(2.0, 1.0, half)), protected
    )
    assert abs(cmi_half - rate_half) <= 1e-10
    assert cmi_star - rate_half >= 1e-3
    assert abs(dt_star - half) > 1e-2


@criterion(8, "balanced channel: 1.5 bits at the symmetric point for either Eve")
def test_criterion_08_balanced_channel_window():
    params = DecayParams(2.0, 1.0, LN2)  # e^{-gamma_x dt} = 1/2
    rho = final_density(params)
    alice = {EB, EX}
    for eve in ({LB}, {LX}):
        split = EveSplit(alice, eve)
        cmi = entanglement.conditional_mutual_information(rho, split)
        assert abs(cmi - 1.5) <= 1e-9
        ghz_cmi = entanglement.conditional_mutual_information(
            qmath.density_from_state(cascade.ghz_state(4)), split
        )
        assert abs(ghz_cmi - 1.0) <= 1e-10
        assert cmi > ghz_cmi
    # the above-baseline window brackets the symmetric point
    for gx_dt in (0.8 * LN2, LN2, 1.25 * LN2):
        rho_w = final_density(DecayParams(2.0, 1.0, gx_dt))
        for eve in ({LB}, {LX}):
            split = EveSplit(alice, eve)
            assert entanglement.conditional_mutual_information(rho_w, split) > 1.0


@criterion(9, "erasing phase coherence erases entanglement")
def test_criterion_09_dephasing():
    channels = entanglement.enumerate_channels()
    for gx_dt in (0.1, LN2 / 2, 1.0, 3.0):
        params = DecayParams(2.0, 1.0, gx_dt)
        for ch in channels:
            assert entanglement.negativity(cascade.dephased_density(params, 1.0), ch) > 0.0
            assert entanglement.negativity(cascade.dephased_density(params, 0.0), ch) < 1e-10
    params = DecayParams(2.0, 1.0, 0.5)
    for ch in channels:
        values = [
            entanglement.negativity(cascade.dephased_density(params, float(d)), ch)
            for d in np.linspace(0.0, 1.0, 11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@criterion(10, "GHZ fidelity closed form and growth with the rate ratio")
def test_criterion_10_fidelity():
    ghz = cascade.ghz_state(4)
    for gb in (0.5, 2.0, 7.0):
        for gx in (0.3, 1.0, 5.0):
            for dt in (0.0, 0.2, 1.0, 4.0):
                params = DecayParams(gb, gx, dt)
                overlap = abs(np.vdot(ghz, cascade.final_state(params))) ** 2
                assert abs(cascade.amplitudes(params).ghz_fidelity - overlap) <= 1e-12
    fidelities = [
        cascade.amplitudes(DecayParams(2.0, 2.0 * r, LN2 / 2.0)).ghz_fidelity
        for r in np.geomspace(0.1, 100.0, 20)
    ]
    assert all(b > a for a, b in zip(fidelities, fidelities[1:]))


@criterion(11, "figure tables are byte-deterministic and match the goldens")
def test_criterion_11_csv_determinism(tmp_path):
    paths = {}
    for name in ("fig3", "fig4"):
        first = tmp_path / f"{name}_first.csv"
        second = tmp_path / f"{name}_second.csv"
        threaded = tmp_path / f"{name}_threaded.csv"
        cli.main([name, "--out", str(first)])
        cli.main([name, "--out", str(second)])
        os.environ["CASCADE_THREADS"] = "4"
        try:
            cli.main([name, "--out", str(threaded)])
        finally:
            del os.environ["CASCADE_THREADS"]
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == threaded.read_bytes()
        paths[name] = first
    for name, path in paths.items():
        with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), "rb") as fh:
            assert path.read_bytes() == fh.read()
