"""Sweep machinery, optimization, figure tables, validation, CLI surface."""

import csv
import io
import json
import math
import os
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qdcascade import cascade, cli, entanglement, qmath
from qdcascade.cascade import DecayParams, ModeLabel
from qdcascade.cli import SweepSpec
from qdcascade.entanglement import EveSplit

LN2 = math.log(2.0)
GOLDEN_DIR = Path(__file__).parent / "golden"
EB, EX, LB, LX = ModeLabel


def run_main(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def read_csv_text(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{k: float(v) for k, v in row.items()} for row in rows]


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def test_sweep_product_state_endpoints():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.0, dt_max=40.0, points=2)
    rows = cli.run_sweep(spec)
    assert all(rows[0].mi[c] < 1e-9 for c in range(1, 8))
    assert all(rows[-1].mi[c] < 1e-6 for c in range(1, 8))


def test_sweep_channel1_peaks_at_half_occupation():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.05, dt_max=1.0, points=101)
    rows = cli.run_sweep(spec)
    mi1 = [r.mi[1] for r in rows]
    k = int(np.argmax(mi1))
    grid_step = (1.0 - 0.05) / 100
    assert abs(rows[k].dt - LN2 / 2) <= grid_step
    assert abs(mi1[k] - 2.0) < 5e-4


def test_sweep_ghz_reference_mode_is_flat():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=2.0, points=5,
                     ghz_reference=True)
    rows = cli.run_sweep(spec)
    for row in rows:
        for c in range(1, 8):
            assert abs(row.mi[c] - 2.0) < 1e-9
        assert abs(row.mi_avg - 2.0) < 1e-9


def test_sweep_rows_ascending_and_independent():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=0.1, dt_max=1.5, points=7,
                     scale="log")
    rows = cli.run_sweep(spec)
    dts = [r.dt for r in rows]
    assert dts == sorted(dts)
    for row in rows:
        single = cli.evaluate_point(2.0, 1.0, row.dt)
        assert single == row


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


def test_sweep_with_secret_rate_column():
    spec = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=LN2 / 2, dt_max=1.0, points=2,
                     alice=frozenset({EB}), eve=frozenset({EX}))
    rows = cli.run_sweep(spec)
    assert abs(rows[0].cmi - 1.9083982468759764) < 1e-9
    assert abs(rows[0].cmi_ghz - 1.0) < 1e-10


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


def test_golden_section_on_constant_zero():
    dt_star, value = cli.golden_section_max(lambda _x: 0.0, 0.1, 2.0, 1e-6)
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
    h3 = qmath.shannon_entropy((a.alpha2, a.beta2, a.gamma2))
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


def test_validate_oracles_negative_control():
    # corrupted expectation must throw the z-scores far out
    report = cli.validate_oracles(
        DecayParams(2.0, 1.0, LN2 / 2), 200_000, 42,
        expected_override=(0.52, math.sqrt(2) - 1.02, 1.5 - math.sqrt(2)),
    )
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


def test_cli_bad_arguments_exit_code():
    code, _ = run_main(["amplitudes", "--dt", "-1"])
    assert code == 2
    code, _ = run_main(["secure-rate", "--alice", "eb", "--eve", "eb"])
    assert code == 2
    code, _ = run_main(["amplitudes", "--ratio", "2", "--gamma-b", "3"])
    assert code == 2
    for argv in (
        ["amplitudes", "--dt", "nan"],
        ["amplitudes", "--gamma-b", "inf"],
        ["amplitudes", "--dt", "inf"],
        ["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", "nan"],
        ["sweep", "--dt-min", "0.1", "--dt-max", "inf", "--points", "3"],
        ["optimize-dt", "--alice", "eb", "--eve", "ex", "--dt-max", "inf"],
    ):
        code, out = run_main(argv)
        assert (code, out) == (2, ""), argv
    with pytest.raises(SystemExit) as exc:
        run_main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_long_delay_exit_code():
    code, out = run_main(["secure-rate", "--alice", "eb", "--eve", "ex", "--dt", "800"])
    assert code == 0
    assert read_csv_text(out)[0]["cmi"] == 0.0


@pytest.mark.parametrize(
    "target,error",
    [
        ((entanglement, "conditional_mutual_information"), ArithmeticError("paths disagree")),
        ((np.linalg, "eigvalsh"), np.linalg.LinAlgError("eigenvalues did not converge")),
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
    for bad in ([1, 2], {"gamma-b": 4.0, "no-such-flag": 1}, {"trials": 10}, {"format": "xml"}):
        config.write_text(json.dumps(bad))
        code, out = run_main(["amplitudes", "--config", str(config)])
        assert (code, out) == (2, ""), bad


def test_csv_formatting_is_stable():
    assert cli._fmt(2.0) == "2"
    assert cli._fmt(1.9083982468759764) == "1.90839824688"
    assert cli._fmt(0.5) == "0.5"
    text = cli._csv_lines(["a", "b"], [[1.0, 0.25]])
    assert text == "a,b\n1,0.25\n"
