"""Batch front-end: sweeps, secret-rate evaluation, delay optimization,
figure-data tables, and oracle validation.

Everything is emitted as machine-readable CSV (or JSON) with fixed
formatting -- 12 significant digits, '\\n' line endings -- so outputs are
byte-reproducible and can be checked against golden files.

Unit convention: rates are in units where gamma_x = 1 unless both rates are
given explicitly; times are in the inverse rate units.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import cascade, entanglement, oracle, qmath
from .cascade import DecayParams, ModeLabel
from .entanglement import EveSplit

DEFAULT_GAMMA_X = 1.0
DEFAULT_RATIO = 2.0
DEFAULT_DT = math.log(2.0) / 2.0  # alpha^2 = 1/2 for the default ratio-2 rates
FIG_GRID_LO = 1e-2
FIG_GRID_HI = 10.0
FIG_GRID_POINTS = 200
RK4_MAX_DEVIATION = 1e-6
MC_MAX_ZSCORE = 5.0
COARSE_SCAN_POINTS = 64
GOLDEN_TOL_FRACTION = 1e-6

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_BAD_ARGUMENTS = 2
EXIT_IO_ERROR = 3
EXIT_NUMERICAL_ERROR = 4


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_mode_list(text: str) -> frozenset[ModeLabel]:
    tokens = [t for t in text.split(",") if t.strip()]
    return frozenset(ModeLabel.parse(t) for t in tokens)


@dataclass(frozen=True)
class SweepSpec:
    """A delay sweep request: rates, dt grid, channel selection, options."""

    gamma_b: float
    gamma_x: float
    dt_min: float
    dt_max: float
    points: int
    scale: str = "linear"
    channels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    dephase: float | None = None
    ghz_reference: bool = False
    alice: frozenset[ModeLabel] | None = None
    eve: frozenset[ModeLabel] = frozenset()

    def __post_init__(self):
        for name in ("gamma_b", "gamma_x", "dt_min", "dt_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")
        if self.gamma_b <= 0.0:
            raise ValueError("gamma_b: must be positive")
        if self.gamma_x <= 0.0:
            raise ValueError("gamma_x: must be positive")
        if self.points < 2:
            raise ValueError("points: need at least 2")
        if self.dt_min < 0.0:
            raise ValueError("dt_min: must be non-negative")
        if not self.dt_min < self.dt_max:
            raise ValueError("dt_min: must be smaller than dt_max")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale: must be 'linear' or 'log'")
        if self.scale == "log" and self.dt_min <= 0.0:
            raise ValueError("dt_min: log scale requires dt_min > 0")
        bad = [c for c in self.channels if not 1 <= c <= 7]
        if bad:
            raise ValueError(f"channels: ids must be in 1..7, got {bad}")
        if self.dephase is not None and not 0.0 <= self.dephase <= 1.0:
            raise ValueError("dephase: must lie in [0, 1]")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.dt_min, self.dt_max, self.points)
        return np.linspace(self.dt_min, self.dt_max, self.points)


@dataclass(frozen=True)
class ResultRow:
    """One sweep point: populations, fidelity, per-channel mutual information."""

    dt: float
    gx_dt: float
    alpha2: float
    beta2: float
    gamma2: float
    fidelity: float
    mi: dict[int, float] = field(default_factory=dict)
    mi_avg: float = 0.0
    cmi: float | None = None
    cmi_ghz: float | None = None


def _state_density(params: DecayParams, dephase: float | None) -> np.ndarray:
    if dephase is None:
        return qmath.density_from_state(cascade.final_state(params))
    return cascade.dephased_density(params, dephase)


def _ghz_density() -> np.ndarray:
    return qmath.density_from_state(cascade.ghz_state(4))


def evaluate_point(
    gamma_b: float,
    gamma_x: float,
    dt: float,
    dephase: float | None = None,
    ghz_reference: bool = False,
    split: EveSplit | None = None,
) -> ResultRow:
    params = DecayParams(gamma_b=gamma_b, gamma_x=gamma_x, delta_t=dt)
    amps = cascade.amplitudes(params)
    rho = _ghz_density() if ghz_reference else _state_density(params, dephase)
    channels = entanglement.enumerate_channels()
    mi = {ch.id: entanglement.mutual_information(rho, ch) for ch in channels}
    row = ResultRow(
        dt=dt,
        gx_dt=gamma_x * dt,
        alpha2=amps.alpha2,
        beta2=amps.beta2,
        gamma2=amps.gamma2,
        fidelity=cascade.ghz_fidelity(params),
        mi=mi,
        mi_avg=sum(mi.values()) / len(mi),
    )
    if split is not None:
        row = dataclasses.replace(
            row,
            cmi=entanglement.conditional_mutual_information(rho, split),
            cmi_ghz=entanglement.conditional_mutual_information(_ghz_density(), split),
        )
    return row


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every grid point independently; rows come back dt-ascending."""
    split = None
    if spec.alice is not None:
        split = EveSplit.from_alice_eve(spec.alice, spec.eve)
    return [
        evaluate_point(
            spec.gamma_b, spec.gamma_x, float(dt),
            dephase=spec.dephase, ghz_reference=spec.ghz_reference, split=split,
        )
        for dt in spec.grid()
    ]


def sweep_table(spec: SweepSpec, rows: list[ResultRow]) -> tuple[list[str], list[list[float]]]:
    header = ["dt", "gx_dt", "alpha2", "beta2", "gamma2", "fidelity"]
    header += [f"mi_ch{c}" for c in spec.channels]
    header += ["mi_avg"]
    with_cmi = spec.alice is not None
    if with_cmi:
        header += ["cmi", "cmi_ghz"]
    table = []
    for r in rows:
        line = [r.dt, r.gx_dt, r.alpha2, r.beta2, r.gamma2, r.fidelity]
        line += [r.mi[c] for c in spec.channels]
        line += [r.mi_avg]
        if with_cmi:
            line += [r.cmi, r.cmi_ghz]
        table.append(line)
    return header, table


def secure_rate(
    params: DecayParams, split: EveSplit, dephase: float | None = None
) -> dict[str, float]:
    """Secret rate I(Alice:Bob|Eve) for the cascade state plus the GHZ
    baseline for the same split."""
    rho = _state_density(params, dephase)
    return {
        "dt": params.delta_t,
        "gx_dt": params.gamma_x * params.delta_t,
        "cmi": entanglement.conditional_mutual_information(rho, split),
        "cmi_ghz": entanglement.conditional_mutual_information(_ghz_density(), split),
    }


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def optimize_delay(
    gamma_b: float,
    gamma_x: float,
    split: EveSplit,
    bracket: tuple[float, float],
    dephase: float | None = None,
    objective: Callable[[float], float] | None = None,
) -> tuple[float, float]:
    """Locate the delay maximizing the secret rate inside ``bracket``.

    A 64-point coarse scan picks the refinement interval (guarding against
    non-unimodal objectives) before golden-section search tightens it to
    1e-6 of the original bracket width.
    """
    lo, hi = bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"empty or unbounded bracket: ({lo}, {hi})")

    if objective is None:
        def objective(dt: float) -> float:
            params = DecayParams(gamma_b=gamma_b, gamma_x=gamma_x, delta_t=dt)
            rho = _state_density(params, dephase)
            return entanglement.conditional_mutual_information(rho, split)

    xs = np.linspace(lo, hi, COARSE_SCAN_POINTS)
    values = [objective(float(x)) for x in xs]
    k = int(np.argmax(values))
    refined_lo = float(xs[max(0, k - 1)])
    refined_hi = float(xs[min(COARSE_SCAN_POINTS - 1, k + 1)])
    tol = GOLDEN_TOL_FRACTION * (hi - lo)
    return golden_section_max(objective, refined_lo, refined_hi, tol)


_FIG_RATES = {"gamma_b": 2.0, "gamma_x": 1.0}


def _fig_grid() -> np.ndarray:
    return np.geomspace(FIG_GRID_LO, FIG_GRID_HI, FIG_GRID_POINTS)


def fig3_table() -> tuple[list[str], list[list[float]]]:
    """Per-channel mutual information and the channel average across the
    delay grid, with the flat GHZ reference."""
    header = ["gx_dt"] + [f"mi_ch{c}" for c in range(1, 8)] + ["mi_avg", "mi_ghz"]
    mi_ghz = entanglement.mutual_information(_ghz_density(), entanglement.channel_by_id(1))
    rows = []
    for gx_dt in _fig_grid():
        row = evaluate_point(_FIG_RATES["gamma_b"], _FIG_RATES["gamma_x"], float(gx_dt))
        rows.append([row.gx_dt] + [row.mi[c] for c in range(1, 8)] + [row.mi_avg, mi_ghz])
    return header, rows


def fig4_table() -> tuple[list[str], list[list[float]]]:
    """Secret rates across the delay grid for the single-mode channel (Alice
    holds early-B, Eve takes one of Bob's three modes) and the balanced
    early|late channel (Eve takes either late mode), with GHZ baselines."""
    ch1_splits = {
        "early_x": EveSplit.from_alice_eve({ModeLabel.EARLY_B}, {ModeLabel.EARLY_X}),
        "late_b": EveSplit.from_alice_eve({ModeLabel.EARLY_B}, {ModeLabel.LATE_B}),
        "late_x": EveSplit.from_alice_eve({ModeLabel.EARLY_B}, {ModeLabel.LATE_X}),
    }
    ch5_alice = {ModeLabel.EARLY_B, ModeLabel.EARLY_X}
    ch5_splits = {
        "late_b": EveSplit.from_alice_eve(ch5_alice, {ModeLabel.LATE_B}),
        "late_x": EveSplit.from_alice_eve(ch5_alice, {ModeLabel.LATE_X}),
    }
    ghz = _ghz_density()
    ghz_ch1 = entanglement.conditional_mutual_information(ghz, ch1_splits["early_x"])
    ghz_ch5 = entanglement.conditional_mutual_information(ghz, ch5_splits["late_b"])
    header = (
        ["gx_dt"]
        + [f"cmi_ch1_eve_{k}" for k in ch1_splits]
        + ["ghz_ch1"]
        + [f"cmi_ch5_eve_{k}" for k in ch5_splits]
        + ["ghz_ch5"]
    )
    rows = []
    for gx_dt in _fig_grid():
        params = DecayParams(_FIG_RATES["gamma_b"], _FIG_RATES["gamma_x"], float(gx_dt))
        rho = _state_density(params, None)
        line = [params.gamma_x * params.delta_t]
        line += [entanglement.conditional_mutual_information(rho, s) for s in ch1_splits.values()]
        line += [ghz_ch1]
        line += [entanglement.conditional_mutual_information(rho, s) for s in ch5_splits.values()]
        line += [ghz_ch5]
        rows.append(line)
    return header, rows


def _write_text(path: str, data: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(data)


def reproduce_fig3(path: str) -> None:
    header, rows = fig3_table()
    _write_text(path, _csv_lines(header, rows))


def reproduce_fig4(path: str) -> None:
    header, rows = fig4_table()
    _write_text(path, _csv_lines(header, rows))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of checking the closed-form branch probabilities against the
    rate-equation integrator and the trajectory sampler."""

    expected: tuple[float, float, float]
    rk4_populations: tuple[float, float, float]
    rk4_max_deviation: float
    pattern_counts: "oracle.PatternCounts"
    z_scores: dict[int, float]
    support_ok: bool

    @property
    def rk4_ok(self) -> bool:
        return self.rk4_max_deviation <= RK4_MAX_DEVIATION

    @property
    def z_ok(self) -> bool:
        return all(abs(z) <= MC_MAX_ZSCORE for z in self.z_scores.values())

    @property
    def passed(self) -> bool:
        return self.rk4_ok and self.z_ok and self.support_ok

    def format_report(self) -> str:
        lines = [
            "expected branch probabilities: "
            + ", ".join(_fmt(x) for x in self.expected),
            f"rate-equation max deviation: {self.rk4_max_deviation:.3e}"
            + (" (ok)" if self.rk4_ok else f" (FAIL, limit {RK4_MAX_DEVIATION:.0e})"),
            f"trajectory support {self.pattern_counts.support()}"
            + (" (ok)" if self.support_ok else " (FAIL: unexpected patterns)"),
        ]
        for pattern, z in sorted(self.z_scores.items()):
            lines.append(
                f"pattern {pattern:04b}: count {self.pattern_counts.counts[pattern]}"
                f" z = {z:+.3f}" + ("" if abs(z) <= MC_MAX_ZSCORE else " (FAIL)")
            )
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate_oracles(
    params: DecayParams,
    trials: int,
    seed: int,
    step: float = 1e-4,
    expected_override: tuple[float, float, float] | None = None,
) -> OracleReport:
    """Run both validators against the closed-form branch probabilities.

    ``expected_override`` replaces the analytic probabilities, which lets a
    negative control verify that corrupted values are actually rejected.
    """
    amps = cascade.amplitudes(params)
    expected = expected_override or (amps.alpha2, amps.beta2, amps.gamma2)

    pops = oracle.rate_equation_populations(params, step)
    rk4 = (pops.p_b, pops.p_x, pops.p_g)
    rk4_dev = max(abs(a - b) for a, b in zip(rk4, expected))

    counts = oracle.monte_carlo_patterns(params, trials, seed)
    support_ok = set(counts.support()) <= set(oracle.IDEAL_PATTERNS)
    z_scores = {}
    for pattern, prob in zip(oracle.IDEAL_PATTERNS, expected):
        n = counts.counts[pattern]
        spread = math.sqrt(trials * prob * (1.0 - prob))
        if spread == 0.0:
            z_scores[pattern] = 0.0 if n == round(trials * prob) else math.inf
        else:
            z_scores[pattern] = (n - trials * prob) / spread
    return OracleReport(
        expected=tuple(expected),
        rk4_populations=rk4,
        rk4_max_deviation=rk4_dev,
        pattern_counts=counts,
        z_scores=z_scores,
        support_ok=support_ok,
    )


# --------------------------------------------------------------------------
# command-line surface
# --------------------------------------------------------------------------

def _add_rate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-b", type=float, default=None, help="biexciton decay rate")
    p.add_argument("--gamma-x", type=float, default=None, help="exciton decay rate (default 1)")
    p.add_argument("--ratio", type=float, default=None,
                   help="gamma_b / gamma_x; sets gamma_b = ratio * gamma_x")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any flag (flags override)")


def _with_config(
    parser: argparse.ArgumentParser, argv: Sequence[str] | None, args: argparse.Namespace
) -> argparse.Namespace:
    """Re-parse with the JSON object in ``--config`` as defaults of the chosen
    subcommand, so flags given on the command line still win."""
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = subparsers.choices[args.command]
    options = {a.dest: a for a in command._actions if a.option_strings}
    config = {key.replace("-", "_"): value for key, value in config.items()}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {unknown}")
    for key, value in config.items():
        if options[key].choices is not None and value not in options[key].choices:
            raise ValueError(f"config {key} must be one of {list(options[key].choices)}, got {value!r}")
    command.set_defaults(**config)
    return parser.parse_args(argv)


def _resolve_rates(args: argparse.Namespace) -> tuple[float, float]:
    gamma_x = args.gamma_x if args.gamma_x is not None else DEFAULT_GAMMA_X
    if args.ratio is not None:
        if args.gamma_b is not None:
            raise ValueError("--ratio conflicts with an explicit --gamma-b")
        return args.ratio * gamma_x, gamma_x
    gamma_b = args.gamma_b if args.gamma_b is not None else DEFAULT_RATIO * gamma_x
    return gamma_b, gamma_x


def _resolve_params(args: argparse.Namespace) -> DecayParams:
    gamma_b, gamma_x = _resolve_rates(args)
    dt = args.dt if getattr(args, "dt", None) is not None else DEFAULT_DT
    return DecayParams(gamma_b=gamma_b, gamma_x=gamma_x, delta_t=dt)


def _resolve_split(args: argparse.Namespace) -> EveSplit:
    if not getattr(args, "alice", None):
        raise ValueError("--alice is required")
    alice = parse_mode_list(args.alice)
    eve = parse_mode_list(args.eve) if getattr(args, "eve", None) else frozenset()
    return EveSplit.from_alice_eve(alice, eve)


def _emit(args: argparse.Namespace, header: list[str], rows: list[list[float]]) -> None:
    if getattr(args, "format", "csv") == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv_lines(header, rows)
    out = getattr(args, "out", None)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_amplitudes(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    amps = cascade.amplitudes(params)
    header = ["dt", "gx_dt", "alpha", "beta", "gamma", "alpha2", "beta2", "gamma2", "fidelity"]
    row = [params.delta_t, params.gamma_x * params.delta_t,
           amps.alpha, amps.beta, amps.gamma,
           amps.alpha2, amps.beta2, amps.gamma2, cascade.ghz_fidelity(params)]
    _emit(args, header, [row])
    return EXIT_OK


def _cmd_state(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    v = cascade.final_state(params)
    header = ["basis_index", "pattern", "amplitude"]
    rows = [[i, int(f"{i:04b}"), float(v[i].real)] for i in range(16) if abs(v[i]) > 0.0]
    _emit(args, header, rows)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    gamma_b, gamma_x = _resolve_rates(args)
    channels = tuple(args.channel) if args.channel else (1, 2, 3, 4, 5, 6, 7)
    alice = parse_mode_list(args.alice) if args.alice else None
    eve = parse_mode_list(args.eve) if args.eve else frozenset()
    spec = SweepSpec(
        gamma_b=gamma_b, gamma_x=gamma_x,
        dt_min=args.dt_min, dt_max=args.dt_max, points=args.points, scale=args.scale,
        channels=channels, dephase=args.dephase, ghz_reference=args.ghz,
        alice=alice, eve=eve,
    )
    rows = run_sweep(spec)
    header, table = sweep_table(spec, rows)
    _emit(args, header, table)
    return EXIT_OK


def _cmd_secure_rate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    split = _resolve_split(args)
    result = secure_rate(params, split, args.dephase)
    header = list(result.keys())
    _emit(args, header, [[result[k] for k in header]])
    return EXIT_OK


def _cmd_optimize_dt(args: argparse.Namespace) -> int:
    gamma_b, gamma_x = _resolve_rates(args)
    split = _resolve_split(args)
    dt_star, cmi_star = optimize_delay(
        gamma_b, gamma_x, split, (args.dt_min, args.dt_max), dephase=args.dephase
    )
    ghz_cmi = entanglement.conditional_mutual_information(_ghz_density(), split)
    header = ["dt_star", "gx_dt_star", "cmi_star", "cmi_ghz"]
    _emit(args, header, [[dt_star, gamma_x * dt_star, cmi_star, ghz_cmi]])
    return EXIT_OK


def _cmd_fig3(args: argparse.Namespace) -> int:
    reproduce_fig3(args.out)
    return EXIT_OK


def _cmd_fig4(args: argparse.Namespace) -> int:
    reproduce_fig4(args.out)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    report = validate_oracles(params, args.trials, args.seed, step=args.step)
    sys.stdout.write(report.format_report() + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcascade",
        description="Photon-number entanglement from a two-pulse biexciton-exciton cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "amplitudes",
        help="branch amplitudes alpha = exp(-gamma_b dt/2), "
             "beta = sqrt(gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)), "
             "gamma = sqrt(1 - alpha^2 - beta^2)",
    )
    _add_rate_args(p)
    p.add_argument("--dt", type=float, default=None, help="pulse delay")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_amplitudes)

    p = sub.add_parser(
        "state",
        help="four-mode state alpha|0000> + beta|1001> + gamma|1111> "
             "over (early-B, early-X, late-B, late-X)",
    )
    _add_rate_args(p)
    p.add_argument("--dt", type=float, default=None, help="pulse delay")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser(
        "sweep",
        help="mutual information I(p1:p2) = S(p1) + S(p2) - S(p1,p2) per channel "
             "over a delay grid, with the 7-channel average",
    )
    _add_rate_args(p)
    p.add_argument("--dt-min", type=float, required=True)
    p.add_argument("--dt-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--channel", type=int, action="append",
                   help="channel id 1..7; repeat to select several (default: all)")
    p.add_argument("--dephase", type=float, default=None,
                   help="attenuate all coherences by this factor in [0, 1]")
    p.add_argument("--ghz", action="store_true",
                   help="evaluate the GHZ reference state instead of the cascade state")
    p.add_argument("--alice", type=str, default=None,
                   help="comma-separated modes for an extra secret-rate column")
    p.add_argument("--eve", type=str, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "secure-rate",
        help="secret rate I(Alice:Bob|Eve) = I(A:BE) - I(A:E), with GHZ baseline",
    )
    _add_rate_args(p)
    p.add_argument("--dt", type=float, default=None, help="pulse delay")
    p.add_argument("--alice", type=str, required=True, help="e.g. 'early-b' or 'eb,ex'")
    p.add_argument("--eve", type=str, default=None, help="modes Eve grabs from Bob's side")
    p.add_argument("--dephase", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_secure_rate)

    p = sub.add_parser(
        "optimize-dt",
        help="maximize I(Alice:Bob|Eve) over the pulse delay "
             "(coarse scan + golden-section search)",
    )
    _add_rate_args(p)
    p.add_argument("--alice", type=str, required=True)
    p.add_argument("--eve", type=str, default=None)
    p.add_argument("--dt-min", type=float, default=1e-3)
    p.add_argument("--dt-max", type=float, default=10.0)
    p.add_argument("--dephase", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_optimize_dt)

    p = sub.add_parser(
        "fig3",
        help="CSV of per-channel mutual information vs gamma_x dt "
             "(200 log points, rates 2:1) plus average and GHZ reference",
    )
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(handler=_cmd_fig3)

    p = sub.add_parser(
        "fig4",
        help="CSV of secret rates I(Alice:Bob|Eve) vs gamma_x dt for the "
             "single-mode and balanced channels with GHZ baselines",
    )
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(handler=_cmd_fig4)

    p = sub.add_parser(
        "validate",
        help="check the closed-form branch probabilities against the "
             "rate-equation integrator and the trajectory sampler",
    )
    _add_rate_args(p)
    p.add_argument("--dt", type=float, default=None, help="pulse delay")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--step", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _with_config(parser, argv, args)
        return args.handler(args)
    # LinAlgError subclasses ValueError, so it is caught before bad arguments
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGUMENTS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
