"""Sweep machinery, optimization, figure tables, validation, CLI surface."""

import csv
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdcascade import cascade, cli, entanglement, qmath
from qdcascade.cascade import DecayParams, ModeLabel
from qdcascade.cli import SweepSpec
from qdcascade.entanglement import EveSplit

import oracle_math

LN2 = math.log(2.0)
GOLDEN_DIR = Path(__file__).parent / "golden"
EB, EX, LB, LX = ModeLabel
KETS = cascade.BRANCH_KETS


def run_main(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def read_csv_text(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: float(v) for k, v in row.items()} for row in rows]


def branch_block(rho):
    """A 16x16 density's block on the branch kets, as a single-state stack (1, 3, 3)."""
    return rho[np.ix_(KETS, KETS)].real[None]


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def sweep_columns(spec):
    header, rows = cli.sweep_table(spec)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def test_sweep_product_state_endpoints():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.0, dt_max=40.0, points=2)
    cols = sweep_columns(spec)
    assert all(cols[f"mi_ch{c}"][0] < 1e-9 for c in range(1, 8))
    assert all(cols[f"mi_ch{c}"][-1] < 1e-6 for c in range(1, 8))


def test_sweep_channel1_peaks_at_half_occupation():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.05, dt_max=1.0, points=101)
    cols = sweep_columns(spec)
    mi1 = cols["mi_ch1"]
    k = int(np.argmax(mi1))
    grid_step = (1.0 - 0.05) / 100
    assert abs(cols["dt"][k] - LN2 / 2) <= grid_step
    assert abs(mi1[k] - 2.0) < 5e-4


def test_sweep_ghz_reference_mode_is_flat():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=2.0, points=5,
                     ghz_reference=True)
    cols = sweep_columns(spec)
    for k in range(spec.points):
        for c in range(1, 8):
            assert abs(cols[f"mi_ch{c}"][k] - 2.0) < 1e-9
        assert abs(cols["mi_avg"][k] - 2.0) < 1e-9


def test_cli_sweep_ghz_solves_one_slice(monkeypatch):
    # digests of the output recorded when each of the 51 slices was solved
    digests = {
        "csv": "5a3e59d2256c9daf45cf1bd41d388d9c3cea3a4dcb5527a0e45fbc9df5dfd76e",
        "json": "923ae64ddcc7a66d4afb898e9a53d8f5efcbb8be3e7ccf09d285d40b60eb4ddc",
    }
    shapes = []
    vn_entropy = qmath.vn_entropy
    monkeypatch.setattr(qmath, "vn_entropy", lambda rho: shapes.append(np.shape(rho)) or vn_entropy(rho))
    for fmt, digest in digests.items():
        code, out = run_main(["sweep", "--ghz", "--points", "50", "--dt-min", "0.01", "--dt-max", "5",
                              "--dephase", "0.3", "--alice", "eb", "--eve", "lb", "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert shapes and all(shape[0] == 1 for shape in shapes)


def test_sweep_rows_ascending_and_independent():
    # each row of the stacked evaluation equals, bit for bit, the evaluation
    # of its own state as a single-state stack of branch densities
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.5, points=7,
                     scale="log", alice=frozenset({EB}), eve=frozenset({LB}))
    cols = sweep_columns(spec)
    assert cols["dt"] == sorted(cols["dt"])
    channels = entanglement.enumerate_channels()
    split = EveSplit.from_alice_eve({EB}, {LB})
    ghz = branch_block(qmath.density_from_state(cascade.ghz_state(4)))
    for k, dt in enumerate(cols["dt"]):
        params = DecayParams(2.0, 1.0, dt)
        rho = branch_block(qmath.density_from_state(cascade.final_state(params)))
        assert rho.shape == (1, 3, 3)
        a = cascade.amplitudes(params)
        single = {
            "gx_dt": 1.0 * dt, "alpha2": a.alpha2, "beta2": a.beta2, "gamma2": a.gamma2,
            "fidelity": a.ghz_fidelity,
            "cmi": entanglement.conditional_mutual_information(rho, split)[0],
            "cmi_ghz": entanglement.conditional_mutual_information(ghz, split)[0],
        }
        mi = [entanglement.mutual_information(rho, ch)[0] for ch in channels]
        single.update({f"mi_ch{ch.id}": v for ch, v in zip(channels, mi)})
        single["mi_avg"] = sum(mi) / len(mi)
        for name, value in single.items():
            assert cols[name][k] == value, (name, k)


@pytest.mark.parametrize("dephase", [None, 0.0, 0.37, 1.0])
def test_grid_densities_match_per_point_densities(dephase):
    # the branch stack, with the grid evaluator's GHZ density appended, is,
    # bit for bit, the block on the branch kets of each per-point 16x16
    # density, which is real there and zero elsewhere; and dephased_density,
    # built from the branch density, is the dense formula
    grid = np.geomspace(1e-3, 20.0, 25)
    stack = np.concatenate([cascade.branch_densities(cascade.grid_amplitudes(3.0, 1.0, grid), dephase),
                            cli._GHZ_DENSITY])
    assert stack.shape == (26, 3, 3) and not cli._GHZ_DENSITY.flags.writeable
    singles = []
    for dt in grid:
        params = DecayParams(3.0, 1.0, float(dt))
        pure = qmath.density_from_state(cascade.final_state(params))
        singles.append(pure if dephase is None else oracle_math.dephase(pure, dephase))
        dense = cascade.dephased_density(params, 1.0 if dephase is None else dephase)
        assert dense.tobytes() == singles[-1].tobytes(), dt
    singles.append(qmath.density_from_state(cascade.ghz_state(4)))
    off_support = np.ones((16, 16), dtype=bool)
    off_support[np.ix_(KETS, KETS)] = False
    for k, single in enumerate(singles):
        assert stack[k].tobytes() == branch_block(single)[0].tobytes(), k
        assert not single[np.ix_(KETS, KETS)].imag.any() and not single[off_support].any(), k
    # the GHZ baseline of a dephased grid is never dephased
    sweep = ["sweep", "--alice", "eb", "--eve", "lb", "--dt-min", "0.01", "--dt-max", "5", "--points", "5",
             "--format", "json"]
    dephased = json.loads(run_main(sweep + ([] if dephase is None else ["--dephase", str(dephase)]))[1])
    assert [row["cmi_ghz"] for row in dephased] == [row["cmi_ghz"] for row in json.loads(run_main(sweep)[1])]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    gamma_b=st.floats(0.05, 20.0),
    gamma_x=st.one_of(st.just(1.0), st.floats(0.05, 20.0)),
    dts=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 800.0)), min_size=1, max_size=8),
)
@example(gamma_b=1.0, gamma_x=1.0, dts=[0.0, LN2, 800.0])  # equal rates
@example(gamma_b=1.000000002, gamma_x=1.0, dts=[0.0, 0.7, 800.0])  # nearly equal rates
@example(gamma_b=1e300, gamma_x=1e-300, dts=[0.0, 1e-3, 1e10])  # gamma_b dt overflows: the fallback
@example(gamma_b=2.0, gamma_x=1.0, dts=[1e308, 0.0])
# points where x**2 and x * x differ: gamma, beta and alpha, then the fidelity
@example(gamma_b=2.0, gamma_x=1.0, dts=[0.8210777694423605, 1.8892048012003, 2.3271867966991744])
@example(gamma_b=3.0, gamma_x=1.0, dts=[0.1846936734183546])
def test_grid_amplitudes_match_per_point_amplitudes(gamma_b, gamma_x, dts):
    # each population within 1e-15 of the decimal reference, and each point's
    # values the same bits alone, in the example's grid and at every position
    # of a longer grid (numpy's vector kernels treat array tails apart)
    amps = cascade.grid_amplitudes(gamma_b, gamma_x, dts)
    assert amps.alpha.shape == (len(dts),)
    for k, dt in enumerate(dts):
        want = oracle_math.branch_populations(gamma_b, gamma_x, dt)
        got = (amps.alpha2[k], amps.beta2[k], amps.gamma2[k])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15, err_msg=f"dt = {dt!r}")
        a = cascade.amplitudes(DecayParams(gamma_b, gamma_x, dt))
        alone = np.array([a.alpha, a.beta, a.gamma, a.alpha2, a.beta2, a.gamma2, a.ghz_fidelity])
        longer = cascade.grid_amplitudes(gamma_b, gamma_x, np.full(19, dt))
        for grid, j in [(amps, k)] + [(longer, j) for j in range(19)]:
            row = [grid.alpha, grid.beta, grid.gamma, grid.alpha2, grid.beta2, grid.gamma2, grid.ghz_fidelity]
            assert np.array([x[j] for x in row]).tobytes() == alone.tobytes(), (k, dt, j)


def per_point_error(gamma_b, gamma_x, grid):
    """The message of the first error of the per-point path over ``grid``, or None."""
    try:
        for dt in grid:
            cascade.amplitudes(DecayParams(gamma_b, gamma_x, float(dt)))
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("gamma_b,gamma_x,grid", [
    (2.0, 1.0, [0.5, -1.0, -2.0]),
    (2.0, 1.0, [0.5, math.nan, -1.0]),
    (2.0, 1.0, [0.0, math.inf]),
    (1e300, 1e300, [1.0, 1e9, 1e10]),  # gamma_x * dt overflows from the second point on
    (0.0, 1.0, [0.5, -1.0]),
    (2.0, -1.0, [0.5]),
    (math.nan, 1.0, [0.5]),
    (2.0, math.inf, [0.0, 1.0]),
])
def test_grid_amplitudes_raise_the_per_point_error(gamma_b, gamma_x, grid):
    # the grid is checked once, with the first bad point's own message
    message = per_point_error(gamma_b, gamma_x, grid)
    assert message is not None
    with pytest.raises(ValueError) as exc:
        cascade.grid_amplitudes(gamma_b, gamma_x, np.array(grid))
    assert str(exc.value) == message


def test_grid_amplitudes_check_range_and_normalization():
    # an unnormalized or out-of-range point of a grid fails with the error of
    # its own Amplitudes; the grid reports the first of its two bad points
    good = astuple(cascade.amplitudes(DecayParams(2.0, 1.0, 0.125)))
    for bad, message in (
        ((0.8, 0.8, 0.0), "amplitudes are not normalized: sum of squares is 1.28"),
        ((1.5, 0.0, 0.0), "alpha must lie in [0, 1], got 1.5"),
        ((math.nan, 0.0, 1.0), "alpha must lie in [0, 1], got nan"),
        ((0.6, 0.8 + 2e-12, 0.0), "amplitudes are not normalized: sum of squares is 1.0000000000032"),
    ):
        for fields in (bad, np.array([good, bad, (0.9, 0.9, 0.9)]).T):
            with pytest.raises(ValueError) as exc:
                cascade.Amplitudes(*fields)
            assert str(exc.value) == message, bad
    cascade.Amplitudes(*np.array([good, (0.6, 0.8 + 1e-13, 0.0)]).T)  # within NORM_ATOL


@pytest.mark.parametrize("argv,error", [
    (["optimize-dt", "--alice", "eb", "--eve", "ex", "--dt-min", "-1"],
     ValueError("dt_min must be non-negative and finite, got -1.0")),
    (["optimize-dt", "--alice", "eb", "--eve", "ex", "--gamma-x", "1e300", "--dt-max", "1e10"],
     ValueError("gamma_x * dt_max must be finite, got 1e+300 * 10000000000.0")),
    (["sweep", "--dt-min", "-1", "--dt-max", "1", "--points", "3"], None),
    (["sweep", "--gamma-b", "1e300", "--gamma-x", "1e300", "--dt-min", "1e9", "--dt-max", "1e10", "--points", "2"],
     None),
])
def test_cli_bad_grids_exit_2(argv, error, capsys):
    # optimize-dt checks both ends of its bracket, named by their flags,
    # before its first grid; sweep's SweepSpec rejects the same grids before
    # any point is evaluated
    code, out = run_main(argv)
    assert (code, out) == (cli.EXIT_BAD_ARGUMENTS, "")
    err = capsys.readouterr().err
    if error is not None:
        assert err == f"error: {error}\n"


def test_each_branch_table_makes_one_eigensolve(monkeypatch):
    # a branch table hands eigvalsh only the whole state, as one 3x3 stack
    # of its grid points; every reduced spectrum is closed-form. The dense
    # 16x16 path still solves one mask per call
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spec = SweepSpec(gamma_b=3.0, gamma_x=1.0, dt_min=0.01, dt_max=5.0, points=30, dephase=0.8,
                     alice=frozenset({EB, EX}), eve=frozenset({LB}))
    empty_eve = SweepSpec(gamma_b=3.0, gamma_x=1.0, dt_min=0.01, dt_max=5.0, points=30, alice=frozenset({EB}))
    # the figures' 200 points and the sweeps' 30, each with the GHZ slice
    for build, states in ((cli.fig3_table, 201), (cli.fig4_table, 201),
                          (lambda: cli.sweep_table(spec), 31), (lambda: cli.sweep_table(empty_eve), 31)):
        shapes.clear()
        build()
        assert shapes == [(states, 3, 3)], build
    shapes.clear()
    rounds = []
    branch_densities = cascade.branch_densities
    monkeypatch.setattr(cascade, "branch_densities", lambda *a, **k: rounds.append(a) or branch_densities(*a, **k))
    cli.optimize_delay(3.0, 1.0, EveSplit.from_alice_eve({EB}, {EX}), (0.01, 5.0), dephase=0.8)
    assert rounds and shapes == [(len(amps.alpha), 3, 3) for amps, *_ in rounds]
    shapes.clear()
    stack = np.stack([qmath.density_from_state(cascade.final_state(DecayParams(2.0, 1.0, dt)))
                      for dt in (0.1, 0.5)])
    entanglement.conditional_mutual_information(stack, EveSplit.from_alice_eve({EB}, {EX}))
    assert len(shapes) == 5 and shapes[0] == (2, 16, 16)


# outputs with an empty Eve: the table's S(empty set) is the entropy of the
# 1x1 trace, not an exact 0 (which changes the last bits here); sweep runs on
# 3x3 branch densities, secure-rate on 16x16 ones
EMPTY_EVE_OUTPUTS = {
    ("secure-rate", "--alice", "eb", "--dt", "10"): "dt,gx_dt,cmi,cmi_ghz\n10,10,1.24891870593e-07,2\n",
    ("secure-rate", "--alice", "eb", "--dt", "0.08", "--format", "json"): """[
  {
    "dt": 0.08,
    "gx_dt": 0.08,
    "cmi": 1.2088987356465455,
    "cmi_ghz": 1.9999999999999996
  }
]
""",
    ("sweep", "--alice", "eb,ex", "--dt-min", "0.01", "--dt-max", "0.11", "--points", "2", "--channel", "1"): (
        "dt,gx_dt,alpha2,beta2,gamma2,fidelity,mi_ch1,mi_avg,cmi,cmi_ghz\n"
        "0.01,0.01,0.980198673307,0.0197023208848,9.90058084192e-05,0.5,0.280647184327,0.162127533109,"
        "0.282445714045,2\n"
        "0.11,0.11,0.802518797962,0.186630674668,0.0108505273694,0.5,1.43372361062,0.924029514008,"
        "1.55499328472,2\n"
    ),
    ("sweep", "--alice", "eb,ex", "--dt-min", "0.01", "--dt-max", "0.11", "--points", "2", "--channel", "1",
     "--format", "json"): """[
  {
    "dt": 0.01,
    "gx_dt": 0.01,
    "alpha2": 0.9801986733067551,
    "beta2": 0.0197023208848255,
    "gamma2": 9.900580841924746e-05,
    "fidelity": 0.5000000000000027,
    "mi_ch1": 0.28064718432657876,
    "mi_avg": 0.1621275331086222,
    "cmi": 0.28244571404456986,
    "cmi_ghz": 1.9999999999999996
  },
  {
    "dt": 0.11,
    "gx_dt": 0.11,
    "alpha2": 0.8025187979624784,
    "beta2": 0.18663067466809952,
    "gamma2": 0.01085052736942199,
    "fidelity": 0.5,
    "mi_ch1": 1.4337236106214133,
    "mi_avg": 0.9240295140080902,
    "cmi": 1.5549932847213035,
    "cmi_ghz": 1.9999999999999996
  }
]
""",
}


@pytest.mark.parametrize("argv", list(EMPTY_EVE_OUTPUTS))
def test_cli_empty_eve_output_bytes(argv):
    assert run_main(list(argv)) == (0, EMPTY_EVE_OUTPUTS[argv])


def test_sweep_spec_validation_names_fields():
    with pytest.raises(ValueError, match="points"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.0, dt_max=1.0, points=1)
    with pytest.raises(ValueError, match="dt_min"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=-1.0, dt_max=1.0, points=3)
    with pytest.raises(ValueError, match="dt_min"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.0, dt_max=1.0, points=3, scale="log")
    with pytest.raises(ValueError, match="dt_min"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=2.0, dt_max=1.0, points=3)
    with pytest.raises(ValueError, match="channels"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.0, points=3,
                  channels=(9,))
    with pytest.raises(ValueError, match="gamma_b"):
        SweepSpec(gamma_b=-2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.0, points=3)
    # dt_max meets the delay rule of DecayParams under its own name
    for dt_max, message in ((-1.0, "dt_max must be non-negative"), (math.inf, "dt_max must be non-negative"),
                            (math.nan, "dt_max must be non-negative"), (1e10, "gamma_x \\* dt_max must be finite")):
        with pytest.raises(ValueError, match=message):
            SweepSpec(gamma_b=2.0, gamma_x=1e300, dt_min=0.1, dt_max=dt_max, points=3)


def test_sweep_with_secret_rate_column():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=LN2 / 2, dt_max=1.0, points=2,
                     alice=frozenset({EB}), eve=frozenset({EX}))
    cols = sweep_columns(spec)
    assert abs(cols["cmi"][0] - 1.9083982468759764) < 1e-9
    assert abs(cols["cmi_ghz"][0] - 1.0) < 1e-10


# --------------------------------------------------------------------------
# secure rate and optimization
# --------------------------------------------------------------------------

def test_secure_rate_working_point():
    params = DecayParams(2.0, 1.0, LN2 / 2)
    split = EveSplit.from_alice_eve({EB}, {EX})
    result = cli.secure_rate(params, split)
    assert abs(result["cmi"] - 1.9083982468759764) < 1e-9
    assert abs(result["cmi_ghz"] - 1.0) < 1e-10
    assert abs(result["gx_dt"] - LN2 / 2) < 1e-15


def test_secure_rate_rejects_overlapping_subsets():
    with pytest.raises(ValueError, match="overlapping"):
        EveSplit.from_alice_eve({EB, EX}, {EX})


def test_optimize_delay_on_constant_zero(monkeypatch):
    monkeypatch.setattr(entanglement, "conditional_mutual_information",
                        lambda rho, split: np.zeros(len(rho)))
    split = EveSplit.from_alice_eve({EB}, {EX})
    dt_star, value = cli.optimize_delay(2.0, 1.0, split, (0.1, 2.0))
    assert 0.1 <= dt_star <= 2.0
    assert value == 0.0


def test_optimize_delay_finds_secret_rate_peak():
    split = EveSplit.from_alice_eve({EB}, {EX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, split, (1e-3, 10.0))
    assert abs(dt_star - 0.32893209903645) < 1e-4
    assert abs(cmi_star - 1.9102093840436276) < 1e-6


def test_optimize_delay_eve_late_x():
    # the vulnerable choice peaks at e^{-gamma_x dt} = 1/2, far below the
    # GHZ baseline of 1
    split = EveSplit.from_alice_eve({EB}, {LX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, split, (1e-3, 10.0))
    assert abs(dt_star - LN2) < 1e-3
    assert abs(cmi_star - 0.3545789056913786) < 1e-6
    assert cmi_star <= 1.0


def test_optimize_delay_stable_under_bracket_widening():
    split = EveSplit.from_alice_eve({EB}, {EX})
    narrow, _ = cli.optimize_delay(2.0, 1.0, split, (0.05, 2.0))
    wide, _ = cli.optimize_delay(2.0, 1.0, split, (0.05, 4.0))
    assert abs(1.0 * narrow - 1.0 * wide) < 2e-6  # gamma_x = 1


def test_optimize_delay_rejects_empty_bracket():
    split = EveSplit.from_alice_eve({EB}, {EX})
    with pytest.raises(ValueError, match="bracket"):
        cli.optimize_delay(2.0, 1.0, split, (1.0, 1.0))


@pytest.mark.parametrize("dephase", [-0.5, 1.000000001, 1.05, math.nan])
def test_optimize_delay_rejects_dephasing_outside_the_unit_interval(dephase):
    split = EveSplit.from_alice_eve({EB}, {EX})
    with pytest.raises(ValueError, match="dephase"):
        cli.optimize_delay(2.0, 1.0, split, (0.1, 2.0), dephase=dephase)
    code, out = run_main(["optimize-dt", "--alice", "eb", "--eve", "ex", "--dephase", repr(dephase)])
    assert (code, out) == (cli.EXIT_BAD_ARGUMENTS, "")


@pytest.mark.parametrize("bracket", [(0.3, 0.30000000001), (5.0, 5.000000000000001)])
def test_optimize_delay_ends_on_brackets_narrower_than_its_tolerance(monkeypatch, bracket):
    # 1e-6 of these widths is below the spacing of doubles near the bracket;
    # the counter turns a search that never narrows further into a failure
    calls = []
    cmi = entanglement.conditional_mutual_information

    def counted(rho, split):
        calls.append(len(rho))
        if len(calls) > 50:
            raise AssertionError("optimize_delay does not terminate")
        return cmi(rho, split)

    monkeypatch.setattr(entanglement, "conditional_mutual_information", counted)
    split = EveSplit.from_alice_eve({EB}, {EX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, split, bracket)
    assert bracket[0] <= dt_star <= bracket[1]
    rho = branch_block(qmath.density_from_state(cascade.final_state(DecayParams(2.0, 1.0, dt_star))))
    assert cmi_star == cmi(rho, split)[0]


FIG4_SPLITS = [({EB}, {EX}), ({EB}, {LB}), ({EB}, {LX}), ({EB, EX}, {LB}), ({EB, EX}, {LX})]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    ratio=st.floats(0.05, 20.0),
    d=st.floats(0.0, 1.0),
    split=st.sampled_from(FIG4_SPLITS),
    lo=st.floats(0.0, 5.0),
    width=st.floats(1e-6, 10.0),
)
def test_optimize_delay_returns_the_best_evaluated_point(ratio, d, split, lo, width):
    split = EveSplit.from_alice_eve(*split)
    hi = lo + width
    dt_star, cmi_star = cli.optimize_delay(ratio, 1.0, split, (lo, hi), dephase=d)
    assert lo <= dt_star <= hi
    rho = branch_block(cascade.dephased_density(DecayParams(ratio, 1.0, dt_star), d))
    assert cmi_star == entanglement.conditional_mutual_information(rho, split)[0]
    # the coarse grid on dense 16x16 states: a cross-check of the branch path
    grid = np.linspace(lo, hi, 64)
    stack = np.stack([cascade.dephased_density(DecayParams(ratio, 1.0, float(x)), d) for x in grid])
    assert entanglement.conditional_mutual_information(stack, split).max() <= cmi_star + 1e-12


def test_cli_optimize_dt_notes_an_edge_optimum(capsys):
    code, out = run_main(["optimize-dt", "--ratio", "0.05", "--alice", "eb", "--eve", "ex"])
    assert code == 0
    assert out.splitlines()[0] == "dt_star,gx_dt_star,cmi_star,cmi_ghz"
    assert out.splitlines()[1].split(",")[:2] == ["10", "10"]
    assert "bracket edge" in capsys.readouterr().err
    code, out = run_main(["optimize-dt", "--alice", "eb", "--eve", "ex"])
    assert code == 0
    assert 0.001 < read_csv_text(out)[0]["dt_star"] < 10.0
    assert capsys.readouterr().err == ""


# --------------------------------------------------------------------------
# figure tables and golden files
# --------------------------------------------------------------------------

def test_fig3_matches_golden_bytes(tmp_path):
    out = tmp_path / "fig3.csv"
    cli.reproduce_fig3(str(out))
    assert out.read_bytes() == (GOLDEN_DIR / "fig3.csv").read_bytes()


def test_fig4_matches_golden_bytes(tmp_path):
    out = tmp_path / "fig4.csv"
    cli.reproduce_fig4(str(out))
    assert out.read_bytes() == (GOLDEN_DIR / "fig4.csv").read_bytes()


def test_fig_outputs_independent_of_worker_env(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    cli.reproduce_fig3(str(first))
    os.environ["CASCADE_THREADS"] = "4"
    try:
        cli.reproduce_fig3(str(second))
    finally:
        del os.environ["CASCADE_THREADS"]
    assert first.read_bytes() == second.read_bytes()


def test_fig3_spot_values():
    header, rows = cli.fig3_table()
    table = [dict(zip(header, row)) for row in rows]
    nearest = min(table, key=lambda r: abs(r["gx_dt"] - LN2 / 2))
    assert abs(nearest["mi_ch1"] - 2.0) < 1e-3
    assert abs(nearest["mi_ch5"] - 2.66129) < 1e-2
    # tight agreement with the closed form at the actual grid point
    a = cascade.amplitudes(DecayParams(2.0, 1.0, nearest["gx_dt"]))
    h3 = oracle_math.shannon_entropy((a.alpha2, a.beta2, a.gamma2))
    assert abs(nearest["mi_ch5"] - 2 * h3) < 1e-10
    for row in table:
        assert row["mi_avg"] < 2.0
        assert abs(row["mi_ghz"] - 2.0) < 1e-12


def test_fig4_spot_values():
    header, rows = cli.fig4_table()
    table = [dict(zip(header, row)) for row in rows]
    nearest = min(table, key=lambda r: abs(r["gx_dt"] - LN2))
    assert abs(nearest["cmi_ch5_eve_late_b"] - 1.5) < 2e-2
    assert abs(nearest["cmi_ch5_eve_late_x"] - 1.5) < 2e-2
    # a window around the symmetric point beats the GHZ baseline for both
    # eavesdropper choices
    for row in table:
        if 0.45 <= row["gx_dt"] <= 1.0:
            assert row["cmi_ch5_eve_late_b"] > 1.0
            assert row["cmi_ch5_eve_late_x"] > 1.0
        assert abs(row["ghz_ch1"] - 1.0) < 1e-12
        assert abs(row["ghz_ch5"] - 1.0) < 1e-12
        assert row["cmi_ch1_eve_late_x"] <= 1.0 + 1e-9


# --------------------------------------------------------------------------
# oracle validation report
# --------------------------------------------------------------------------

def test_validate_oracles_passes_at_defaults():
    report = cli.validate_oracles(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 42)
    assert report.rk4_max_deviation < 1e-6
    assert report.support_ok
    assert all(abs(z) < 5.0 for z in report.z_scores.values())
    assert report.passed
    assert "PASS" in report.format_report()


def test_validate_oracles_negative_control(monkeypatch):
    # corrupted closed-form weights must throw the z-scores far out
    corrupted = cascade.Amplitudes(*(math.sqrt(w) for w in (0.52, math.sqrt(2) - 1.02, 1.5 - math.sqrt(2))))
    monkeypatch.setattr(cascade, "amplitudes", lambda params: corrupted)
    report = cli.validate_oracles(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 42)
    assert not report.passed
    assert any(abs(z) > 5.0 for z in report.z_scores.values())
    assert "FAIL" in report.format_report()


# --------------------------------------------------------------------------
# command-line surface
# --------------------------------------------------------------------------

def test_cli_amplitudes_csv():
    code, out = run_main(["amplitudes", "--dt", str(LN2 / 2)])
    assert code == 0
    row = read_csv_text(out)[0]
    assert abs(row["alpha2"] - 0.5) < 1e-12
    assert abs(row["beta2"] - (math.sqrt(2) - 1)) < 1e-12
    assert abs(row["fidelity"] - 0.5) < 1e-12


def test_cli_amplitudes_ratio_flag():
    code, out = run_main(["amplitudes", "--ratio", "2", "--dt", str(LN2 / 2)])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12


def test_cli_state_json():
    code, out = run_main(["state", "--dt", str(LN2 / 2), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [entry["basis_index"] for entry in payload] == [0, 9, 15]
    assert abs(payload[0]["amplitude"] - 2**-0.5) < 1e-12


def test_cli_secure_rate_json():
    code, out = run_main(
        ["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", str(LN2 / 2),
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)[0]
    assert abs(payload["cmi"] - 1.9083982468759764) < 1e-9
    assert abs(payload["cmi_ghz"] - 1.0) < 1e-10


def test_cli_sweep_writes_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _ = run_main(
        ["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "4",
         "--channel", "1", "--channel", "5", "--out", str(out_path)]
    )
    assert code == 0
    rows = read_csv_text(out_path.read_text())
    assert len(rows) == 4
    assert set(rows[0]) == {
        "dt", "gx_dt", "alpha2", "beta2", "gamma2", "fidelity",
        "mi_ch1", "mi_ch5", "mi_avg",
    }


def test_cli_optimize_dt():
    code, out = run_main(["optimize-dt", "--alice", "eb", "--eve", "ex"])
    assert code == 0
    row = read_csv_text(out)[0]
    assert abs(row["gx_dt_star"] - 0.32893209903645) < 1e-4
    assert abs(row["cmi_star"] - 1.9102093840436276) < 1e-6


def test_cli_validate_exit_codes():
    code, out = run_main(["validate", "--trials", "100000"])
    assert code == 0
    assert "result: PASS" in out
    code, _ = run_main(["validate", "--trials", "0"])
    assert code == 2


def test_cli_bad_arguments_exit_code(capsys):
    code, _ = run_main(["amplitudes", "--dt", "-1"])
    assert code == 2
    code, _ = run_main(["secure-rate", "--alice", "eb", "--eve", "eb"])
    assert code == 2
    code, _ = run_main(["amplitudes", "--ratio", "2", "--gamma-b", "3"])
    assert code == 2
    named = {  # the message names the bad input: --gamma-x, not the gamma_b derived from it; --dt-max
        ("amplitudes", "--gamma-x", "0"): "gamma_x must be positive and finite, got 0.0",
        ("sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3", "--gamma-x", "inf"):
            "gamma_x must be positive and finite, got inf",
        ("amplitudes", "--ratio", "3", "--gamma-x", "nan"): "gamma_x must be positive and finite, got nan",
        ("sweep", "--dt-min", "0.1", "--dt-max", "-1", "--points", "3"):
            "dt_max must be non-negative and finite, got -1.0",
        ("sweep", "--dt-min", "0.1", "--dt-max", "inf", "--points", "3"):
            "dt_max must be non-negative and finite, got inf",
        ("sweep", "--gamma-b", "1e300", "--gamma-x", "1e300", "--dt-min", "1e9", "--dt-max", "1e10", "--points", "2"):
            "gamma_x * dt_max must be finite, got 1e+300 * 10000000000.0",
    }
    capsys.readouterr()
    for argv in (
        *map(list, named),
        ["amplitudes", "--dt", "nan"],
        ["amplitudes", "--gamma-b", "inf"],
        ["amplitudes", "--dt", "inf"],
        ["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", "nan"],
        ["optimize-dt", "--alice", "eb", "--eve", "ex", "--dt-max", "inf"],
        ["validate", "--step", "nan"],
        # finite input whose gx_dt = gamma_x * dt overflows
        ["amplitudes", "--gamma-b", "1e300", "--gamma-x", "1e300", "--dt", "1e10"],
        ["secure-rate", "--alice", "eb", "--eve", "ex", "--gamma-b", "1e300", "--gamma-x", "1e300", "--dt", "1e10"],
        ["optimize-dt", "--alice", "eb", "--eve", "ex", "--gamma-x", "1e300", "--dt-max", "1e10"],
        # a dephasing factor outside [0, 1]
        *([*cmd, "--dephase", d] for d in ("1.5", "nan") for cmd in (
            ["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3"],
            ["sweep", "--ghz", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3"],
            ["secure-rate", "--alice", "eb", "--eve", "ex"],
            ["optimize-dt", "--alice", "eb", "--eve", "ex"],
        )),
    ):
        code, out = run_main(argv)
        assert (code, out) == (2, ""), argv
        err = capsys.readouterr().err
        if tuple(argv) in named:
            assert err == f"error: {named[tuple(argv)]}\n", argv
    with pytest.raises(SystemExit) as exc:
        run_main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("split,alice,eve", [
    (["--eve", "lb"], None, frozenset({LB})),
    (["--alice", ""], frozenset(), frozenset()),
    (["--alice", "", "--eve", "lb"], frozenset(), frozenset({LB})),
])
def test_cli_sweep_rejects_eve_without_alice(split, alice, eve, capsys):
    with pytest.raises(ValueError, match="alice"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.0, points=3, alice=alice, eve=eve)
    code, out = run_main(["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3", *split])
    assert (code, out) == (cli.EXIT_BAD_ARGUMENTS, "")
    assert "alice" in capsys.readouterr().err.lower()


def test_cli_long_delay_exit_code():
    code, out = run_main(["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", "800"])
    assert code == 0
    assert read_csv_text(out)[0]["cmi"] == 0.0
    for argv, beta2 in (
        (["amplitudes", "--dt", "1e308"], 0.0),
        (["amplitudes", "--gamma-b", "1e300", "--gamma-x", "1e-300", "--dt", "1e10"], 1.0),
    ):
        code, out = run_main(argv)
        assert code == 0, argv
        row = read_csv_text(out)[0]
        assert (row["alpha2"], row["beta2"]) == (0.0, beta2)


@pytest.mark.parametrize(
    "target,error",
    [
        ((entanglement, "conditional_mutual_information"), ArithmeticError("paths disagree")),
        ((np.linalg, "eigvalsh"), np.linalg.LinAlgError("eigenvalues did not converge")),
        ((cascade, "dephased_density"), MemoryError("Unable to allocate")),
    ],
)
def test_cli_numerical_error_exit_code(monkeypatch, target, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(*target, fail)
    code, out = run_main(["secure-rate", "--alice", "eb", "--eve", "ex"])
    assert (code, out) == (cli.EXIT_NUMERICAL_ERROR, "")
    assert cli.EXIT_NUMERICAL_ERROR == 4


def test_cli_io_error_exit_code(tmp_path):
    code, _ = run_main(["fig3", "--out", str(tmp_path / "missing" / "f.csv")])
    assert code == 3


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma-b": 4.0, "dt": LN2 / 4}))
    code, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12  # gb * dt = ln 2
    code, out = run_main(["amplitudes", "--config", str(config), "--gamma-b", "8.0"])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.25) < 1e-12
    # flags whose parser default is not None take their value from the file too
    config.write_text(json.dumps({"gamma-b": 4.0, "dt": LN2 / 4, "format": "json"}))
    code, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0
    assert abs(json.loads(out)[0]["alpha2"] - 0.5) < 1e-12
    code, out = run_main(["amplitudes", "--config", str(config), "--format", "csv"])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12
    for bad in ([1, 2], {"gamma-b": 4.0, "no-such-flag": 1}, {"trials": 10}, {"format": "xml"},
                {"dt": [1]}, {"dt": True}, {"dt": "0.5"}, {"format": 1}):
        config.write_text(json.dumps(bad))
        code, out = run_main(["amplitudes", "--config", str(config)])
        assert (code, out) == (2, ""), bad
    # each value must have its option's JSON type; a --channel flag replaces
    # the file's list
    sweep = ["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "2", "--config", str(config)]
    for bad in ({"channel": 3}, {"channel": [True]}, {"ghz": 1}, {"points": 2.5}, {"alice": 1}):
        config.write_text(json.dumps(bad))
        code, out = run_main(sweep)
        assert (code, out) == (2, ""), bad
    config.write_text(json.dumps({"channel": [3], "ghz": True}))
    code, out = run_main(sweep)
    assert code == 0
    assert out.splitlines()[0] == "dt,gx_dt,alpha2,beta2,gamma2,fidelity,mi_ch3,mi_avg"
    assert all(row["mi_ch3"] == 2.0 for row in read_csv_text(out))
    code, out = run_main(sweep + ["--channel", "5"])
    assert code == 0
    assert out.splitlines()[0] == "dt,gx_dt,alpha2,beta2,gamma2,fidelity,mi_ch5,mi_avg"
    # an integer for a float option is taken as a float
    config.write_text(json.dumps({"dt": 1, "format": "json"}))
    code, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0
    assert out == run_main(["amplitudes", "--dt", "1", "--format", "json"])[1]


def test_csv_formatting_is_stable():
    assert cli._fmt(2.0) == "2"
    assert cli._fmt(1.9083982468759764) == "1.90839824688"
    assert cli._fmt(0.5) == "0.5"
    text = cli._csv_lines(["a", "b"], [[1.0, 0.25]])
    assert text == "a,b\n1,0.25\n"


def test_csv_rows_match_per_cell_formatting():
    def per_cell(header, rows):
        return "".join(",".join(cells) + "\n" for cells in [header] + [[cli._fmt(x) for x in row] for row in rows])

    edge = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e22, -1e22, 1.9083982468759764, 0.1]
    state_rows = json.loads(run_main(["state", "--format", "json"])[1])
    tables = [
        (list("abcde"), [edge[:5], edge[5:], [np.float64(x) for x in edge[:5]]]),
        (["basis_index", "pattern", "amplitude"], [list(row.values()) for row in state_rows]),
        (["a", "b"], []),
        (list("abc"), np.column_stack([np.linspace(-3, 3, 7), np.geomspace(1e-300, 1e300, 7), np.full(7, -0.0)]).tolist()),
    ]
    assert isinstance(tables[1][1][0][0], int)
    for header, rows in tables:
        assert cli._csv_lines(header, rows) == per_cell(header, rows), header
    assert cli._csv_lines(["a", "b"], []) == "a,b\n"


@pytest.mark.parametrize("rows", [[[1.0]], [[1.0, 2.0, 3.0]], [[1.0, 2.0], []]])
def test_a_ragged_row_exits_without_a_traceback(monkeypatch, tmp_path, rows):
    monkeypatch.setattr(cli, "fig3_table", lambda: (["a", "b"], rows))
    code, out = run_main(["fig3", "--out", str(tmp_path / "fig3.csv")])
    assert code in (cli.EXIT_BAD_ARGUMENTS, cli.EXIT_NUMERICAL_ERROR) and out == ""


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path):
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    default_row = run_main(["amplitudes"])
    assert run_main(["amplitudes"]) == default_row
    assert run_main(["amplitudes", "--gamma-b", "4"])[0] == 0 and run_main(["state"])[0] == 0
    assert len(builds) == 1
    # --config sets its defaults on a parser of its own, which the next call does not see
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma-b": 4}))
    code, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0 and out != default_row[1] and len(builds) == 2
    assert run_main(["amplitudes"]) == default_row and len(builds) == 2
    assert read_csv_text(default_row[1])[0]["alpha2"] == pytest.approx(0.5)  # gamma_b dt = ln 2
