"""Sweep machinery, optimization, figure tables, validation, CLI surface."""

import argparse
import csv
import decimal
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdcascade import cascade, cli, entanglement, qmath
from qdcascade.cascade import DecayParams, ModeLabel
from qdcascade.cli import SweepSpec
from qdcascade.entanglement import EveSplit

import oracle_math
from approved import GOLDEN_DIR, TRANSCRIPT, moved_cells, read_transcript, run_main, transcript_report, write_transcript
from test_cli_contract import EDGE_NOTE, PREFIX
from test_entanglement import GHZ_BRANCH

LN2 = math.log(2.0)
EB, EX, LB, LX = ModeLabel
KETS = cascade.BRANCH_KETS


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
    # the approved transcript holds both outputs, read from the closed-form
    # GHZ table: every MI is 2.0, and every CMI 1.0 with an Eve and 2.0 with none
    tables, solves = [], []
    subset_entropies, eigvalsh = entanglement.subset_entropies, np.linalg.eigvalsh
    monkeypatch.setattr(entanglement, "subset_entropies",
                        lambda rho, masks: tables.append(rho) or subset_entropies(rho, masks))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(np.shape(a)) or eigvalsh(a))
    for fmt in ("csv", "json"):
        code, _, out = run_main(["sweep", "--ghz", "--points", "50", "--dt-min", "0.01", "--dt-max", "5",
                                 "--dephase", "0.3", "--alice", "eb", "--eve", "lb", "--format", fmt])
        assert code == 0
    rows = json.loads(out)
    assert len(rows) == 50 and all(row["mi_ch1"] == row["mi_avg"] == 2.0 and row["cmi"] == 1.0 for row in rows)
    # no table is built and no state solved: the GHZ table is a constant
    assert tables == [] and solves == []


def test_dephased_negativities_keep_their_bits():
    # no command prints a negativity, so the exact values of the seven
    # negativities of two dephased states are pinned here: a faster path must
    # keep every bit
    rho = cascade.dephased_density(DecayParams(2.3, 1.0, 0.4), 0.8)
    values = [float(entanglement.negativity(rho, ch)).hex() for ch in entanglement.enumerate_channels()]
    assert values == ["0x1.9113290078220p-2", "0x1.0ac8ca9d6f7dcp-2", "0x1.0ac8ca9d6f7dcp-2", "0x1.9113290078220p-2",
                      "0x1.6fbf26e2e4398p-1", "0x1.6fbf26e2e4398p-1", "0x1.0d677e73b4f70p-3"]
    rho = cascade.dephased_density(DecayParams(0.7, 1.0, 1.3), 0.65)
    values = [float(entanglement.negativity(rho, ch)).hex() for ch in entanglement.enumerate_channels()]
    assert values == ["0x1.466a1e4286282p-2", "0x1.2f4a46f9a63f6p-2", "0x1.2f4a46f9a63f6p-2", "0x1.466a1e4286282p-2",
                      "0x1.4a3621311406ep-1", "0x1.4a3621311406ep-1", "0x1.570a5f039b358p-3"]


def test_cli_keeps_the_approved_transcript(tmp_path):
    # every command of the approved transcript, run in this process, prints
    # its approved exit code, stderr and stdout; a mismatch lists every moved
    # stderr line and cell and leaves the received transcript, to copy over the
    # approved one once each moved line and cell is deliberate and listed in CHANGES.md
    text = TRANSCRIPT.read_bytes().decode()
    approved = read_transcript(text)
    received = [(argv, *run_main(argv)) for argv, *_ in approved]
    if write_transcript(received) != text:
        path = tmp_path / "cli.txt"
        path.write_text(write_transcript(received))
        pytest.fail("\n".join([f"received transcript: {path}", *transcript_report(approved, received)]), pytrace=False)
    for argv, code, err, out in approved:
        if code:  # one line of at most 120 characters with its code's prefix, and no stdout
            assert out == "" and err.startswith(PREFIX[code]) and err.count("\n") == 1 and err.endswith("\n"), argv
            assert len(err) <= 121, argv
        else:  # no stderr but optimize-dt's bracket-edge note
            assert err == "" or EDGE_NOTE.fullmatch(err), argv


def edit_cell(text, line, column, value):
    """``text`` with the comma-separated cell at (line, column), from 1, set to ``value``; and its old value."""
    rows = [row.split(",") for row in text.split("\n")]
    old, rows[line - 1][column - 1] = rows[line - 1][column - 1], value
    return "\n".join(",".join(row) for row in rows), old


def test_the_cell_report_names_exactly_the_edited_cell():
    fig4 = (GOLDEN_DIR / "fig4.csv").read_bytes().decode()
    edited, old = edit_cell(fig4, 100, 6, "0.5")
    assert moved_cells("fig4.csv", fig4, edited) == [f"fig4.csv: line 100, column cmi_ch5_eve_late_b: {old!r} -> '0.5'"]
    # the dephased log sweep's CSV and an error line, through the transcript's own text
    approved = read_transcript(TRANSCRIPT.read_bytes().decode())

    def report(index, stream, line, column):
        argv, code, *streams = approved[index]
        streams[stream], old = edit_cell(streams[stream], line, column, "0.5")
        received = read_transcript(write_transcript([*approved[:index], (argv, code, *streams), *approved[index + 1:]]))
        return transcript_report(approved, received), "qdcascade " + " ".join(argv), old

    moved, name, old = report(2, 1, 3, 15)
    assert moved == [f"{name}: line 3, column cmi: {old!r} -> '0.5'"]
    moved, name, old = report([argv for argv, *_ in approved].index(["validate", "--trials", "0"]), 0, 1, 2)
    assert moved == [f"{name} (stderr): line 1, column 2: {old!r} -> '0.5'"]


def test_sweep_rows_ascending_and_independent():
    # each row of the stacked evaluation equals, bit for bit, the evaluation
    # of its own state as a single-row branch state
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.5, points=7,
                     scale="log", split=EveSplit({EB}, {LB}))
    cols = sweep_columns(spec)
    assert cols["dt"] == sorted(cols["dt"])
    channels = entanglement.enumerate_channels()
    split = EveSplit({EB}, {LB})
    for k, dt in enumerate(cols["dt"]):
        params = DecayParams(2.0, 1.0, dt)
        rho = cascade.amplitudes(params)
        assert rho.c.shape == (3,)
        single = {
            "gx_dt": 1.0 * dt, "alpha2": rho.alpha2, "beta2": rho.beta2, "gamma2": rho.gamma2,
            "fidelity": rho.ghz_fidelity,
            "cmi": entanglement.conditional_mutual_information(rho, split)[0],
            "cmi_ghz": entanglement.conditional_mutual_information(GHZ_BRANCH, split)[0],
        }
        mi = [entanglement.mutual_information(rho, ch)[0] for ch in channels]
        single.update({f"mi_ch{ch.id}": v for ch, v in zip(channels, mi)})
        single["mi_avg"] = sum(mi) / len(mi)
        for name, value in single.items():
            assert cols[name][k] == value, (name, k)


@pytest.mark.parametrize("dephase", [0.0, 0.37, 1.0])
def test_grid_densities_match_per_point_densities(dephase):
    # the densities of a grid's branch state, and of the GHZ state's that
    # the GHZ table is built from, are, bit for bit, the blocks on the
    # branch kets of the per-point 16x16 densities, which are real there and
    # zero elsewhere; and dephased_density, built from the branch state, is
    # the dense formula (at d = 1, the pure state's projector)
    grid = np.geomspace(1e-3, 20.0, 25)
    state = cascade.grid_amplitudes(3.0, 1.0, grid, dephase)
    stack = np.concatenate([state.density(), GHZ_BRANCH.density()])
    assert stack.shape == (26, 3, 3) and type(state.d) is float and state.d == dephase and GHZ_BRANCH.d == 1.0
    assert not (state.c.flags.writeable or GHZ_BRANCH.c.flags.writeable)
    singles = []
    for dt in grid:
        params = DecayParams(3.0, 1.0, float(dt))
        pure = qmath.density_from_state(cascade.final_state(params))
        singles.append(oracle_math.dephase(pure, dephase))
        dense = cascade.dephased_density(params, dephase)
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
    dephased = json.loads(run_main(sweep + ["--dephase", str(dephase)])[2])
    assert [row["cmi_ghz"] for row in dephased] == [row["cmi_ghz"] for row in json.loads(run_main(sweep)[2])]


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
    assert amps.c.shape == (len(dts), 3)
    for k, dt in enumerate(dts):
        want = oracle_math.branch_populations(gamma_b, gamma_x, dt)
        got = (amps.alpha2[k], amps.beta2[k], amps.gamma2[k])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15, err_msg=f"dt = {dt!r}")
        a = cascade.amplitudes(DecayParams(gamma_b, gamma_x, dt))
        alone = np.array([*a.c, a.alpha2, a.beta2, a.gamma2, a.ghz_fidelity])
        longer = cascade.grid_amplitudes(gamma_b, gamma_x, np.full(19, dt))
        for grid, j in [(amps, k)] + [(longer, j) for j in range(19)]:
            row = [*grid.c.T, grid.alpha2, grid.beta2, grid.gamma2, grid.ghz_fidelity]
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
    # an unnormalized or out-of-range point of a grid of shape (N, 3) fails
    # with the error of that point; the grid reports the first of its two bad
    # points, and a point within NORM_ATOL passes
    good = cascade.amplitudes(DecayParams(2.0, 1.0, 0.125)).c
    for bad, message in (
        ((1.0, 0.5, 0.0), "amplitudes are not normalized: sum of squares is 1.25"),
        ((0.8, 0.8, 0.0), "amplitudes are not normalized: sum of squares is 1.28"),
        ((-0.6, 0.8, 0.0), "alpha must lie in [0, 1], got -0.6"),
        ((1.5, 0.0, 0.0), "alpha must lie in [0, 1], got 1.5"),
        ((math.nan, 0.0, 1.0), "alpha must lie in [0, 1], got nan"),
        ((0.6, 0.8 + 2e-12, 0.0), "amplitudes are not normalized: sum of squares is 1.0000000000032"),
    ):
        with pytest.raises(ValueError) as exc:
            cascade.BranchState(np.array([good, bad, (0.9, 0.9, 0.9)]))
        assert str(exc.value) == message, bad
    grid = np.array([good, (0.6, 0.8 + 1e-13, 0.0)])
    assert cascade.BranchState(grid).c.shape == (2, 3)


@pytest.mark.parametrize("split", [["--alice", "eb", "--eve", "eb"], ["--alice", ""]])
def test_cli_sweep_rejects_a_bad_split_before_any_grid(monkeypatch, split):
    def fail(*args, **kwargs):
        raise AssertionError("a grid was built for a bad split")

    monkeypatch.setattr(cascade, "grid_amplitudes", fail)
    code, _, out = run_main(["sweep", "--points", "3", "--dt-min", "0.1", "--dt-max", "1", *split])
    assert (code, out) == (cli.EXIT_BAD_ARGUMENTS, "")


@pytest.mark.parametrize("dephase", ["2", "nan"])
def test_cli_sweep_rejects_a_bad_dephase_before_any_grid(monkeypatch, dephase):
    def fail(*args, **kwargs):
        raise AssertionError("a grid was built for a bad dephasing factor")

    monkeypatch.setattr(cascade, "grid_amplitudes", fail)
    got = run_main(["sweep", "--points", "1000000", "--dt-min", "0", "--dt-max", "1", "--dephase", dephase])
    assert got == (cli.EXIT_BAD_ARGUMENTS, f"error: dephase must lie in [0, 1], got {float(dephase)}\n", "")


@pytest.mark.parametrize("bracket", [["--dt-min", "-1", "--dt-max", "1"], ["--dt-min", "2", "--dt-max", "1"]])
def test_sweep_and_optimize_dt_reject_a_bracket_alike(bracket):
    sweep, optimize = (run_main(argv) for argv in (["sweep", "--points", "3", *bracket],
                                                  ["optimize-dt", "--alice", "eb", "--eve", "ex", *bracket]))
    assert sweep == optimize and sweep[0] == cli.EXIT_BAD_ARGUMENTS and sweep[1].startswith("error: dt_min must be ")


def test_each_branch_table_makes_one_eigensolve(monkeypatch):
    # a branch table hands eigvalsh only the whole state of a dephased
    # branch state, as one real 3x3 stack; a pure one, the GHZ table's among
    # them, and every reduced spectrum are closed-form, so a pure table makes
    # no eigensolve. The dense 16x16 path still solves one mask per call
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append((np.shape(a), np.asarray(a).dtype))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spec = SweepSpec(gamma_b=3.0, gamma_x=1.0, dt_min=0.01, dt_max=5.0, points=30, dephase=0.8,
                     split=EveSplit({EB, EX}, {LB}))
    empty_eve = SweepSpec(gamma_b=3.0, gamma_x=1.0, dt_min=0.01, dt_max=5.0, points=30,
                          split=EveSplit({EB}))
    # the figures' 200 pure points and the pure sweep's 30 make none; the
    # dephased sweep solves its 30 points, not the GHZ state
    for build, solved in ((cli.fig3_table, []), (cli.fig4_table, []),
                          (lambda: cli.sweep_table(spec), [((30, 3, 3), np.float64)]),
                          (lambda: cli.sweep_table(empty_eve), [])):
        shapes.clear()
        build()
        assert shapes == solved, build
    shapes.clear()
    rounds = []
    grid_amplitudes = cascade.grid_amplitudes
    monkeypatch.setattr(cascade, "grid_amplitudes", lambda *a: rounds.append(len(a[2])) or grid_amplitudes(*a))
    cli.optimize_delay(3.0, 1.0, EveSplit({EB}, {EX}), (0.01, 5.0), dephase=0.8)
    assert rounds and shapes == [((n, 3, 3), np.float64) for n in rounds]
    shapes.clear()
    stack = np.stack([qmath.density_from_state(cascade.final_state(DecayParams(2.0, 1.0, dt)))
                      for dt in (0.1, 0.5)])
    entanglement.conditional_mutual_information(stack, EveSplit({EB}, {EX}))
    assert len(shapes) == 5 and shapes[0] == ((2, 16, 16), np.complex128)


def test_sweep_spec_validation_names_fields():
    with pytest.raises(ValueError, match="points"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.0, dt_max=1.0, points=1)
    with pytest.raises(ValueError, match="dt_min"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=-1.0, dt_max=1.0, points=3)
    with pytest.raises(ValueError, match="dt_min"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.0, dt_max=1.0, points=3, scale="log")
    with pytest.raises(ValueError, match="scale: must be 'linear' or 'log'"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.0, points=3, scale="cubic")
    with pytest.raises(ValueError, match="dt_min"):
        SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=2.0, dt_max=1.0, points=3)
    with pytest.raises(ValueError, match="channel id"):
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
                     split=EveSplit({EB}, {EX}))
    cols = sweep_columns(spec)
    assert abs(cols["cmi"][0] - 1.9083982468759764) < 1e-9
    assert abs(cols["cmi_ghz"][0] - 1.0) < 1e-10


# --------------------------------------------------------------------------
# secure rate and optimization
# --------------------------------------------------------------------------

def test_secure_rate_working_point():
    params = DecayParams(2.0, 1.0, LN2 / 2)
    split = EveSplit({EB}, {EX})
    result = cli.secure_rate(params, split)
    assert abs(result["cmi"] - 1.9083982468759764) < 1e-9
    assert abs(result["cmi_ghz"] - 1.0) < 1e-10
    assert abs(result["gx_dt"] - LN2 / 2) < 1e-15


def test_secure_rate_rejects_overlapping_subsets():
    with pytest.raises(ValueError, match="overlapping"):
        EveSplit({EB, EX}, {EX})


def test_resolved_splits_are_shared_per_text():
    # one split object per (--alice, --eve) text, so its masks are computed once
    first = cli._resolve_split("eb,ex", "lb")
    assert cli._resolve_split("eb,ex", "lb") is first
    assert first == EveSplit({EB, EX}, {LB})
    # another text of the same modes is another key, but an equal split
    assert cli._resolve_split("early-b", None) == cli._resolve_split("eb", None) == EveSplit({EB})


def test_a_bad_split_raises_on_every_call():
    # a split that raises is not cached: each call raises the same error anew
    for alice, eve, error in (("eb,xx", "lb", "unknown mode label 'xx'"),
                              ("eb", "eb", "overlapping subsets"),
                              (",", None, "Alice's subset must be nonempty")):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match=error) as info:
                cli._resolve_split(alice, eve)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_a_split_from_config_resolves_like_one_from_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alice": "eb,ex", "eve": "lx"}))
    sweep = ["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3", "--dephase", "0.8"]
    from_flags = run_main(sweep + ["--alice", "eb,ex", "--eve", "lx"])
    hits = cli._resolve_split.cache_info().hits
    assert run_main(sweep + ["--config", str(config)]) == from_flags
    assert from_flags[0] == 0 and from_flags[2].splitlines()[0].endswith(",cmi,cmi_ghz")
    assert cli._resolve_split.cache_info().hits == hits + 1  # the same key, so the same split


def test_optimize_delay_on_constant_zero(monkeypatch):
    monkeypatch.setattr(entanglement, "conditional_mutual_information",
                        lambda rho, split: np.zeros(len(rho.c)))
    split = EveSplit({EB}, {EX})
    dt_star, value = cli.optimize_delay(2.0, 1.0, split, (0.1, 2.0))
    assert 0.1 <= dt_star <= 2.0
    assert value == 0.0


def test_optimize_delay_finds_secret_rate_peak():
    split = EveSplit({EB}, {EX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, split, (1e-3, 10.0))
    assert abs(dt_star - 0.32893209903645) < 1e-4
    assert abs(cmi_star - 1.9102093840436276) < 1e-6


def test_optimize_delay_eve_late_x():
    # the vulnerable choice peaks at e^{-gamma_x dt} = 1/2, far below the
    # GHZ baseline of 1
    split = EveSplit({EB}, {LX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, split, (1e-3, 10.0))
    assert abs(dt_star - LN2) < 1e-3
    assert abs(cmi_star - 0.3545789056913786) < 1e-6
    assert cmi_star <= 1.0


def test_optimize_delay_stable_under_bracket_widening():
    split = EveSplit({EB}, {EX})
    narrow, _ = cli.optimize_delay(2.0, 1.0, split, (0.05, 2.0))
    wide, _ = cli.optimize_delay(2.0, 1.0, split, (0.05, 4.0))
    assert abs(1.0 * narrow - 1.0 * wide) < 2e-6  # gamma_x = 1


def test_optimize_delay_rejects_empty_bracket():
    split = EveSplit({EB}, {EX})
    with pytest.raises(ValueError, match="dt_min"):
        cli.optimize_delay(2.0, 1.0, split, (1.0, 1.0))


@pytest.mark.parametrize("dephase", [-0.5, 1.000000001, 1.05, math.nan])
def test_optimize_delay_rejects_dephasing_outside_the_unit_interval(dephase):
    split = EveSplit({EB}, {EX})
    with pytest.raises(ValueError, match="dephase"):
        cli.optimize_delay(2.0, 1.0, split, (0.1, 2.0), dephase=dephase)
    code, _, out = run_main(["optimize-dt", "--alice", "eb", "--eve", "ex", "--dephase", repr(dephase)])
    assert (code, out) == (cli.EXIT_BAD_ARGUMENTS, "")


@pytest.mark.parametrize("bracket", [(0.3, 0.30000000001), (5.0, 5.000000000000001)])
def test_optimize_delay_ends_on_brackets_narrower_than_its_tolerance(monkeypatch, bracket):
    # 1e-6 of these widths is below the spacing of doubles near the bracket;
    # the counter turns a search that never narrows further into a failure
    calls = []
    cmi = entanglement.conditional_mutual_information

    def counted(rho, split):
        calls.append(len(rho.c))
        if len(calls) > 50:
            raise AssertionError("optimize_delay does not terminate")
        return cmi(rho, split)

    monkeypatch.setattr(entanglement, "conditional_mutual_information", counted)
    split = EveSplit({EB}, {EX})
    dt_star, cmi_star = cli.optimize_delay(2.0, 1.0, split, bracket)
    assert bracket[0] <= dt_star <= bracket[1]
    rho = cascade.amplitudes(DecayParams(2.0, 1.0, dt_star))
    assert cmi_star == cmi(rho, split)[0]


def test_optimize_delay_stays_inside_a_subnormal_bracket():
    # a refine grid linspace(9.8e-321, 1e-320, 16) has a subnormal step, and
    # its points used to round above the bracket's top
    lo, hi = 0.0, 1e-320
    dt_star, _ = cli.optimize_delay(2.0, 1.0, EveSplit({EB}, set()), (lo, hi))
    assert lo <= dt_star <= hi


@pytest.mark.parametrize("dt_min,dt_max,points,scale", [
    ("156.43541172231124", "156.43541172231184", "163", "log"),  # geomspace's points rise above the top
    ("0", "1.5e-323", "6", "linear"),  # a subnormal step rounds a point above the top
])
def test_sweep_prints_only_delays_inside_its_bracket(dt_min, dt_max, points, scale):
    # JSON prints each delay as its exact repr, which 12 significant digits would round
    code, _, out = run_main(["sweep", "--dt-min", dt_min, "--dt-max", dt_max, "--points", points,
                          "--scale", scale, "--format", "json"])
    dts = [row["dt"] for row in json.loads(out)]
    assert code == 0 and len(dts) == int(points)
    assert dts[0] == float(dt_min) and dts[-1] == float(dt_max)
    assert all(float(dt_min) <= dt <= float(dt_max) for dt in dts) and dts == sorted(dts)


TOP_BITS = int(np.float64(1e300).view(np.int64))  # a non-negative float's bits rise with it


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    lo_bits=st.integers(0, TOP_BITS),
    ulps=st.one_of(st.integers(1, 1000), st.integers(1, TOP_BITS)),  # narrow brackets and wide ones
    points=st.integers(2, 300),
    scale=st.sampled_from(["linear", "log"]),
)
@example(lo_bits=int(np.float64(156.43541172231124).view(np.int64)), ulps=21, points=163, scale="log")
@example(lo_bits=0, ulps=3, points=6, scale="linear")  # [0, 1.5e-323]
def test_delay_grid_stays_inside_its_bracket(lo_bits, ulps, points, scale):
    if scale == "log":
        lo_bits = max(lo_bits, 1)  # a log grid needs a positive start, at least the smallest subnormal
    hi_bits = min(lo_bits + ulps, TOP_BITS)
    assume(lo_bits < hi_bits)
    lo, hi = (float(np.int64(bits).view(np.float64)) for bits in (lo_bits, hi_bits))
    grid = cli._delay_grid(lo, hi, points, scale)
    assert grid.shape == (points,) and grid[0] == lo and grid[-1] == hi
    assert np.all((lo <= grid) & (grid <= hi)) and np.all(np.diff(grid) >= 0.0)
    numpy_grid = (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)
    inside = (lo <= numpy_grid) & (numpy_grid <= hi)
    assert np.array_equal(grid[inside], numpy_grid[inside])


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
    split = EveSplit(*split)
    hi = lo + width
    with mock.patch.object(cascade, "grid_amplitudes", wraps=cascade.grid_amplitudes) as grid_amplitudes:
        dt_star, cmi_star = cli.optimize_delay(ratio, 1.0, split, (lo, hi), dephase=d)
    assert lo <= dt_star <= hi
    # the stop rule: each round but the last is coarser than 1e-6 of the
    # bracket width and narrows the interval; the last meets that spacing,
    # or its two cells around its best point are no narrower than its grid
    grids = [call.args[2] for call in grid_amplitudes.call_args_list]
    spacing = [(xs[-1] - xs[0]) / (len(xs) - 1) for xs in grids]
    tol = cli.REFINE_TOL_FRACTION * (hi - lo)
    assert all(h > tol and nxt[-1] - nxt[0] < xs[-1] - xs[0] for xs, nxt, h in zip(grids, grids[1:], spacing))
    last = grids[-1]
    k = int(entanglement.conditional_mutual_information(cascade.grid_amplitudes(ratio, 1.0, last, d), split).argmax())
    assert spacing[-1] <= tol or not last[min(k + 1, len(last) - 1)] - last[max(k - 1, 0)] < last[-1] - last[0]
    rho = cascade.grid_amplitudes(ratio, 1.0, [dt_star], d)
    assert cmi_star == entanglement.conditional_mutual_information(rho, split)[0]
    # the coarse grid on dense 16x16 states: a cross-check of the branch path
    grid = np.linspace(lo, hi, 64)
    stack = np.stack([cascade.dephased_density(DecayParams(ratio, 1.0, float(x)), d) for x in grid])
    assert entanglement.conditional_mutual_information(stack, split).max() <= cmi_star + 1e-12


def test_optimize_delay_evaluates_a_scan_draw_in_four_stacks(monkeypatch):
    # one stack per round, and an interior optimum stops in four rounds: the
    # fourth grid's spacing is 8 / 63^4 = 5.1e-7 of the bracket width
    stacks = []
    cmi = entanglement.conditional_mutual_information
    monkeypatch.setattr(entanglement, "conditional_mutual_information",
                        lambda rho, split: stacks.append(len(rho.c)) or cmi(rho, split))
    split = cli._resolve_split("eb,ex", "lb")
    cli.optimize_delay(2.3, 1.0, split, (1e-3, 10.0), dephase=0.8)
    assert stacks == [64, 64, 64, 64]


def test_cli_optimize_dt_notes_an_edge_optimum():
    code, err, out = run_main(["optimize-dt", "--ratio", "0.05", "--alice", "eb", "--eve", "ex"])
    assert code == 0
    assert out.splitlines()[0] == "dt_star,gx_dt_star,cmi_star,cmi_ghz"
    assert out.splitlines()[1].split(",")[:2] == ["10", "10"]
    assert "bracket edge" in err
    code, err, out = run_main(["optimize-dt", "--alice", "eb", "--eve", "ex"])
    assert code == 0
    assert 0.001 < read_csv_text(out)[0]["dt_star"] < 10.0
    assert err == ""


# --------------------------------------------------------------------------
# figure tables
# --------------------------------------------------------------------------

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


def test_fig3_tail_is_relatively_accurate():
    # the pure state's MI across a single-mode cut is twice the Shannon
    # entropy of the one branch weight it splits off: alpha^2 for channels 1
    # and 4, gamma^2 (so 1 - alpha^2 - beta^2) for channels 2 and 3. On the
    # tail rows (CSV lines 183-201, gamma_x dt from 5.35) the MIs fall to
    # 1e-7, where a round-off entropy of the pure whole state (5e-15 when
    # its spectrum is solved) costs 5e-8 relative; its exact 0 leaves 1.6e-9
    header, rows = cli.fig3_table()
    worst = 0.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for row in rows[181:]:
            alpha2, beta2, _ = (decimal.Decimal(p) for p in oracle_math.branch_populations(2.0, 1.0, row[0]))
            for channels, w in (((1, 4), alpha2), ((2, 3), alpha2 + beta2)):
                want = -2 * (w * w.ln() + (1 - w) * (1 - w).ln()) / decimal.Decimal(2).ln()
                worst = max(worst, *(float(abs(decimal.Decimal(row[ch]) - want) / want) for ch in channels))
    assert header[1:5] == ["mi_ch1", "mi_ch2", "mi_ch3", "mi_ch4"] and rows[181][0] > 5.35
    assert worst <= 1e-8


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


def csv_columns(text):
    """Each column of CSV ``text`` as the list of its cells, as written."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {name: [row[name] for row in rows] for name in rows[0]}


def test_figures_agree_with_the_sweep_of_their_grid(tmp_path):
    # fig3 and fig4 are delay sweeps of one grid: each measured column, and
    # each GHZ baseline, is written to the same digits as the sweep's
    sweep = ["sweep", "--ratio", "2", "--dt-min", "0.01", "--dt-max", "10", "--points", "200", "--scale", "log"]
    figs = {}
    for fig in ("fig3", "fig4"):
        assert cli.main([fig, "--out", str(tmp_path / fig)]) == 0
        figs[fig] = csv_columns((tmp_path / fig).read_text())
    code, _, out = run_main(sweep)
    assert code == 0
    columns = csv_columns(out)
    for name in ("gx_dt", *(f"mi_ch{c}" for c in range(1, 8)), "mi_avg"):
        assert figs["fig3"][name] == columns[name], name
    code, _, out = run_main(sweep + ["--ghz"])
    assert code == 0 and figs["fig3"]["mi_ghz"] == csv_columns(out)["mi_ch1"]
    for name, (alice, eve, ghz) in {
        "cmi_ch1_eve_early_x": ("eb", "ex", "ghz_ch1"),
        "cmi_ch1_eve_late_b": ("eb", "lb", None),
        "cmi_ch1_eve_late_x": ("eb", "lx", None),
        "cmi_ch5_eve_late_b": ("eb,ex", "lb", "ghz_ch5"),
        "cmi_ch5_eve_late_x": ("eb,ex", "lx", None),
    }.items():
        code, _, out = run_main(sweep + ["--alice", alice, "--eve", eve])
        assert code == 0
        columns = csv_columns(out)
        assert figs["fig4"]["gx_dt"] == columns["gx_dt"] and figs["fig4"][name] == columns["cmi"], name
        if ghz is not None:
            assert figs["fig4"][ghz] == columns["cmi_ghz"], ghz


def test_sweep_repeated_channel_prints_one_column():
    sweep = ["sweep", "--dt-min", "0.1", "--dt-max", "1", "--points", "3"]
    code, _, out = run_main(sweep + ["--channel", "3", "--channel", "3", "--channel", "1"])
    assert code == 0
    assert out.splitlines()[0] == "dt,gx_dt,alpha2,beta2,gamma2,fidelity,mi_ch3,mi_ch1,mi_avg"
    assert out == run_main(sweep + ["--channel", "3", "--channel", "1"])[2]


# --------------------------------------------------------------------------
# oracle validation report
# --------------------------------------------------------------------------

def report_fields(lines):
    """(RK4 deviation, support verdict, z-scores) read back from ``validate_oracles``'s lines."""
    rk4 = float(next(line for line in lines if line.startswith("rate-equation")).split()[3])
    support = next(line for line in lines if line.startswith("trajectory support"))
    z_scores = [float(line.split("z = ")[1].split()[0]) for line in lines if line.startswith("pattern ")]
    return rk4, support.endswith("(ok)"), z_scores


def test_validate_oracles_passes_at_defaults():
    lines, passed = cli.validate_oracles(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 42)
    rk4, support_ok, z_scores = report_fields(lines)
    assert rk4 < 1e-6
    assert support_ok
    assert len(z_scores) == 3 and all(abs(z) < 5.0 for z in z_scores)
    assert passed
    assert lines[-1] == "result: PASS"


def test_validate_oracles_negative_control(monkeypatch):
    # corrupted closed-form weights must throw the z-scores far out
    corrupted = cascade.BranchState([math.sqrt(w) for w in (0.52, math.sqrt(2) - 1.02, 1.5 - math.sqrt(2))])
    monkeypatch.setattr(cascade, "amplitudes", lambda params: corrupted)
    lines, passed = cli.validate_oracles(DecayParams(2.0, 1.0, LN2 / 2), 200_000, 42)
    _, _, z_scores = report_fields(lines)
    assert not passed
    assert any(abs(z) > 5.0 for z in z_scores)
    assert lines[-1] == "result: FAIL"
    # each pattern line is marked by its own z-score, and only those over the limit
    for line, z in zip(lines[3:6], z_scores):
        assert line.endswith("(FAIL)") == (abs(z) > 5.0), line


# --------------------------------------------------------------------------
# command-line surface
# --------------------------------------------------------------------------

def test_cli_amplitudes_csv():
    code, _, out = run_main(["amplitudes", "--dt", str(LN2 / 2)])
    assert code == 0
    row = read_csv_text(out)[0]
    assert abs(row["alpha2"] - 0.5) < 1e-12
    assert abs(row["beta2"] - (math.sqrt(2) - 1)) < 1e-12
    assert abs(row["fidelity"] - 0.5) < 1e-12


def test_cli_amplitudes_ratio_flag():
    code, _, out = run_main(["amplitudes", "--ratio", "2", "--dt", str(LN2 / 2)])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12


def test_cli_state_json():
    code, _, out = run_main(["state", "--dt", str(LN2 / 2), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [entry["basis_index"] for entry in payload] == [0, 9, 15]
    assert abs(payload[0]["amplitude"] - 2**-0.5) < 1e-12


def test_cli_secure_rate_json():
    code, _, out = run_main(
        ["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", str(LN2 / 2),
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)[0]
    assert abs(payload["cmi"] - 1.9083982468759764) < 1e-9
    assert abs(payload["cmi_ghz"] - 1.0) < 1e-10


def test_cli_sweep_writes_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_main(
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
    code, _, out = run_main(["optimize-dt", "--alice", "eb", "--eve", "ex"])
    assert code == 0
    row = read_csv_text(out)[0]
    assert abs(row["gx_dt_star"] - 0.32893209903645) < 1e-4
    assert abs(row["cmi_star"] - 1.9102093840436276) < 1e-6


FIG4_FLAGS = [("eb", "ex"), ("eb", "lb"), ("eb", "lx"), ("eb,ex", "lb"), ("eb,ex", "lx")]


@pytest.mark.parametrize("ratio,alice,eve,dephase", [
    *[(2, alice, eve, 0.7) for alice, eve in FIG4_FLAGS],
    (2, "eb", "ex", 0), (2, "eb", "ex", 1), (2, "eb", "", 0.7), (2, "eb", "", 0), (2, "eb,ex", "", 1),
    # both ends of the scan's ratio range, at both ends of its dephasing range and between
    *[(ratio, alice, eve, d) for ratio in (0.5, 4) for d in (0.6, 0.7, 1) for alice, eve in FIG4_FLAGS],
])
def test_cli_dephased_optimum_is_reproduced_by_the_dense_path(ratio, alice, eve, dephase):
    # optimize-dt runs on branch states, secure-rate on 16x16 densities: at
    # the printed optimum their secret rates agree within 1e-9
    flags = ["--ratio", str(ratio), "--alice", alice, "--eve", eve, "--dephase", str(dephase), "--format", "json"]
    code, _, out = run_main(["optimize-dt", *flags])
    assert code == 0
    star = json.loads(out)[0]
    code, _, out = run_main(["secure-rate", "--dt", repr(star["dt_star"]), *flags])
    assert code == 0
    assert abs(json.loads(out)[0]["cmi"] - star["cmi_star"]) <= 1e-9


def test_cli_validate_exit_codes():
    code, _, out = run_main(["validate", "--trials", "100000"])
    assert code == 0
    assert "result: PASS" in out
    code, _, _ = run_main(["validate", "--trials", "0"])
    assert code == 2


def test_cli_bad_arguments_exit_code():
    # argparse refuses an unknown command with SystemExit(2), which no transcript entry can hold
    with pytest.raises(SystemExit) as exc:
        run_main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("split,alice,eve", [
    (["--eve", "lb"], None, frozenset({LB})),
    (["--alice", ""], frozenset(), frozenset()),
    (["--alice", "", "--eve", "lb"], frozenset(), frozenset({LB})),
])
def test_cli_sweep_rejects_eve_without_alice(split, alice, eve):
    # "--eve needs --alice" is the CLI's own rule; an empty Alice is EveSplit's
    if alice is not None:
        with pytest.raises(ValueError, match="Alice's subset must be nonempty"):
            EveSplit(alice, eve)
    code, err, out = run_main(["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3", *split])
    assert (code, out) == (cli.EXIT_BAD_ARGUMENTS, "")
    assert "alice" in err.lower()


def test_cli_long_delay_exit_code():
    code, _, out = run_main(["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", "800"])
    assert code == 0
    assert read_csv_text(out)[0]["cmi"] == 0.0
    for argv, beta2 in (
        (["amplitudes", "--dt", "1e308"], 0.0),
        (["amplitudes", "--gamma-b", "1e300", "--gamma-x", "1e-300", "--dt", "1e10"], 1.0),
    ):
        code, _, out = run_main(argv)
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
    code, _, out = run_main(["secure-rate", "--alice", "eb", "--eve", "ex"])
    assert (code, out) == (cli.EXIT_NUMERICAL_ERROR, "")
    assert cli.EXIT_NUMERICAL_ERROR == 4


def test_cli_io_error_exit_code(tmp_path):
    code, _, _ = run_main(["fig3", "--out", str(tmp_path / "missing" / "f.csv")])
    assert code == 3


def test_cli_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma-b": 4.0, "dt": LN2 / 4}))
    code, _, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12  # gb * dt = ln 2
    code, _, out = run_main(["amplitudes", "--config", str(config), "--gamma-b", "8.0"])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.25) < 1e-12
    # a rate on the command line replaces both of the file's: --ratio its
    # gamma-b, and --gamma-b its ratio
    code, _, out = run_main(["amplitudes", "--config", str(config), "--ratio", "2"])
    assert code == 0 and out == run_main(["amplitudes", "--ratio", "2", "--dt", repr(LN2 / 4)])[2]
    config.write_text(json.dumps({"ratio": 3, "dt": LN2 / 4}))
    code, _, out = run_main(["amplitudes", "--config", str(config), "--gamma-b", "2"])
    assert code == 0 and out == run_main(["amplitudes", "--gamma-b", "2", "--dt", repr(LN2 / 4)])[2]
    code, _, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0 and out == run_main(["amplitudes", "--ratio", "3", "--dt", repr(LN2 / 4)])[2]
    # flags whose parser default is not None take their value from the file too
    config.write_text(json.dumps({"gamma-b": 4.0, "dt": LN2 / 4, "format": "json"}))
    code, _, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0
    assert abs(json.loads(out)[0]["alpha2"] - 0.5) < 1e-12
    code, _, out = run_main(["amplitudes", "--config", str(config), "--format", "csv"])
    assert code == 0
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12
    for bad in ([1, 2], {"gamma-b": 4.0, "no-such-flag": 1}, {"trials": 10}, {"format": "xml"},
                {"dt": [1]}, {"dt": True}, {"dt": "0.5"}, {"format": 1}):
        config.write_text(json.dumps(bad))
        code, _, out = run_main(["amplitudes", "--config", str(config)])
        assert (code, out) == (2, ""), bad
    # each value must have its option's JSON type; a --channel flag replaces
    # the file's list
    sweep = ["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "2", "--config", str(config)]
    for bad in ({"channel": 3}, {"channel": [True]}, {"ghz": 1}, {"points": 2.5}, {"alice": 1}):
        config.write_text(json.dumps(bad))
        code, _, out = run_main(sweep)
        assert (code, out) == (2, ""), bad
    config.write_text(json.dumps({"channel": [3], "ghz": True}))
    code, _, out = run_main(sweep)
    assert code == 0
    assert out.splitlines()[0] == "dt,gx_dt,alpha2,beta2,gamma2,fidelity,mi_ch3,mi_avg"
    assert all(row["mi_ch3"] == 2.0 for row in read_csv_text(out))
    code, _, out = run_main(sweep + ["--channel", "5"])
    assert code == 0
    assert out.splitlines()[0] == "dt,gx_dt,alpha2,beta2,gamma2,fidelity,mi_ch5,mi_avg"
    # an integer for a float option is taken as a float
    config.write_text(json.dumps({"dt": 1, "format": "json"}))
    code, _, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0
    assert out == run_main(["amplitudes", "--dt", "1", "--format", "json"])[2]


def test_cli_calls_in_one_process_share_no_flag_values(tmp_path):
    # each command's flag table and defaults are derived once and shared by
    # every later call; no value given to one call may reach the next
    sweep = ["sweep", "--dt-min", "0.1", "--dt-max", "1.0", "--points", "3"]
    code, _, out = run_main(sweep + ["--alice", "eb", "--eve", "ex"])
    assert code == 0 and out.splitlines()[0].endswith(",mi_avg,cmi,cmi_ghz")
    code, _, out = run_main(sweep)
    assert code == 0 and out.splitlines()[0].endswith(",mi_avg")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dt": LN2, "gamma-b": 4.0, "format": "json"}))
    code, _, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0 and abs(json.loads(out)[0]["alpha2"] - 0.0625) < 1e-12  # gb * dt = 4 ln 2
    code, _, out = run_main(["amplitudes"])
    assert code == 0 and out == run_main(["amplitudes", "--gamma-b", "2", "--dt", repr(cli.DEFAULT_DT)])[2]
    assert abs(read_csv_text(out)[0]["alpha2"] - 0.5) < 1e-12  # the defaults: gb * dt = ln 2


@pytest.mark.parametrize("text,error", [
    # -h is not a flag of the table, so "help" is an unknown key, whatever its value
    ('{"help": "x"}', "unknown config keys for amplitudes: ['help']"),
    ('{"help": true}', "unknown config keys for amplitudes: ['help']"),
    # only the command line's --config is read, so a config key could never take effect
    ('{"config": "x.json"}', "config file {path} cannot name another config file"),
    ('{"dt": 1, "config": 1}', "config file {path} cannot name another config file"),
    # a rate flag on the command line replaces both, so the file sets at most one
    ('{"gamma-b": 4, "ratio": 2}', "config file {path} sets both gamma-b and ratio"),
    ("", "config file {path} is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("{'dt': 1}", "config file {path} is not JSON: Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    # an integer beyond the float range is a bad value, not a numerical error
    pytest.param('{"dt": 1' + "0" * 400 + "}", "config dt is too large for a float: 401 digits", id="dt-1e400"),
    pytest.param('{"gamma-x": -1' + "0" * 400 + "}", "config gamma_x is too large for a float: 401 digits",
                 id="gamma-x--1e400"),
])
def test_cli_config_errors_name_the_key_or_the_file(tmp_path, text, error):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run_main(["amplitudes", "--config", str(config)]) == (
        cli.EXIT_BAD_ARGUMENTS, f"error: {error.format(path=config)}\n", "")


@pytest.mark.parametrize("config,error", [
    ('{"trials": 1' + "0" * 400 + "}", "trials must be at most 10000000000, got a 401-digit integer"),
    ('{"seed": -1' + "0" * 400 + "}", "seed must be non-negative, got a 401-digit negative integer"),
], ids=["trials", "negative-seed"])
def test_cli_huge_integers_fit_one_short_line(tmp_path, config, error):
    # an integer of more than 30 digits is named by its digit count, so the
    # one error line names its key and stays short; the transcript holds the flags' cases
    (tmp_path / "config.json").write_text(config)
    assert run_main(["validate", "--config", str(tmp_path / "config.json")]) == (
        cli.EXIT_BAD_ARGUMENTS, f"error: {error}\n", "")


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
    state_rows = json.loads(run_main(["state", "--format", "json"])[2])
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
    code, _, out = run_main(["fig3", "--out", str(tmp_path / "fig3.csv")])
    assert code in (cli.EXIT_BAD_ARGUMENTS, cli.EXIT_NUMERICAL_ERROR) and out == ""


def test_main_builds_one_parser_per_process(tmp_path):
    cli.build_parser.cache_clear()
    builds = cli.build_parser.cache_info
    default_row = run_main(["amplitudes"])
    assert run_main(["amplitudes"]) == default_row
    assert run_main(["amplitudes", "--gamma-b", "4"])[0] == 0 and run_main(["state"])[0] == 0
    assert builds().misses == 1
    # --config parses with the same parser and leaves it as it was for the next call
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma-b": 4}))
    code, _, out = run_main(["amplitudes", "--config", str(config)])
    assert code == 0 and out != default_row[2] and builds().misses == 1
    assert run_main(["amplitudes"]) == default_row and builds().misses == 1
    assert read_csv_text(default_row[2])[0]["alpha2"] == pytest.approx(0.5)  # gamma_b dt = ln 2


def reference_parser():
    """A parser built straight from ``cli.COMMANDS``, each flag added with all
    its keywords, defaults included."""
    parser = argparse.ArgumentParser(
        prog="qdcascade", description="Photon-number entanglement from a two-pulse biexciton-exciton cascade.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
    return parser


@pytest.mark.parametrize("command", [[], *([name] for name in cli.COMMANDS)], ids=["qdcascade", *cli.COMMANDS])
def test_help_matches_a_parser_with_the_table_defaults(monkeypatch, capsys, command):
    # the shared parser holds no defaults: a help string that printed %(default)s would differ
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parse in (cli.main, reference_parser().parse_args):
        with pytest.raises(SystemExit) as exit_info:
            parse([*command, "--help"])
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        texts.append(out)
    assert texts[0] == texts[1] and texts[0].startswith(f"usage: {' '.join(['qdcascade', *command])} [-h]")
