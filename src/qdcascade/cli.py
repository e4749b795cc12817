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
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import cascade, entanglement, oracle, qmath
from .cascade import DecayParams, ModeLabel
from .entanglement import EveSplit

DEFAULT_GAMMA_X = 1.0
DEFAULT_RATIO = 2.0
DEFAULT_DT = math.log(2.0) / 2.0  # alpha^2 = 1/2 for the default ratio-2 rates
RK4_MAX_DEVIATION = 1e-6
MC_MAX_ZSCORE = 5.0
COARSE_SCAN_POINTS = 64
REFINE_POINTS = 16
REFINE_TOL_FRACTION = 1e-6

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_BAD_ARGUMENTS = 2
EXIT_IO_ERROR = 3
EXIT_NUMERICAL_ERROR = 4


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """CSV text of ``header`` and ``rows``, every cell as ``_fmt`` writes it;
    "%.12g" formats a row in one operation."""
    row_format = ",".join(["%.12g"] * len(header))
    try:
        lines = [row_format % tuple(row) for row in rows]
    except TypeError as exc:  # a row whose length differs from the header's, or a cell that is not a number
        raise ValueError(f"cannot write a row under the {len(header)} columns {list(header)}: {exc}") from None
    return "\n".join([",".join(header)] + lines) + "\n"


def parse_mode_list(text: str) -> frozenset[ModeLabel]:
    tokens = [t for t in text.split(",") if t.strip()]
    return frozenset(ModeLabel.parse(t) for t in tokens)


@dataclass(frozen=True)
class SweepSpec:
    """A delay sweep request: rates, dt grid, channel selection, options;
    the rates and ``dt_max`` obey the rules of ``DecayParams``."""

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
        DecayParams.check(self.gamma_b, self.gamma_x, self.dt_max, "dt_max")
        if self.points < 2:
            raise ValueError("points: need at least 2")
        if not self.dt_min >= 0.0:
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
        if self.alice is None and self.eve or self.alice is not None and not self.alice:
            raise ValueError("alice: a split needs a nonempty Alice's subset")

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.dt_min, self.dt_max, self.points)
        return np.linspace(self.dt_min, self.dt_max, self.points)


# the figures' grid: 200 log-spaced delays in [1e-2, 10] at gamma_b : gamma_x = 2 : 1
FIG_SPEC = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=1e-2, dt_max=10.0, points=200, scale="log")


def _table(columns: dict, n: int) -> tuple[list[str], list[list[float]]]:
    """Header and rows of named columns, each n values or one value for all rows."""
    return list(columns), np.column_stack([np.broadcast_to(c, (n,)) for c in columns.values()]).tolist()


# the GHZ reference on the branch kets: appended, never dephased, to every grid stack
_GHZ_DENSITY = cascade.branch_densities(cascade.Amplitudes(*cascade.ghz_state(4)[list(cascade.BRANCH_KETS)].real))
_GHZ_DENSITY.flags.writeable = False
_CHANNEL_COLUMNS = {f"mi_ch{ch.id}": ch for ch in entanglement.enumerate_channels()}
# fig4's columns: (Alice, Eve) of each split, built once so that each split's masks are too
_FIG4_SPLITS = {name: EveSplit.from_alice_eve(*split) for name, split in {
    "cmi_ch1_eve_early_x": ({ModeLabel.EARLY_B}, {ModeLabel.EARLY_X}),
    "cmi_ch1_eve_late_b": ({ModeLabel.EARLY_B}, {ModeLabel.LATE_B}),
    "cmi_ch1_eve_late_x": ({ModeLabel.EARLY_B}, {ModeLabel.LATE_X}),
    "cmi_ch5_eve_late_b": ({ModeLabel.EARLY_B, ModeLabel.EARLY_X}, {ModeLabel.LATE_B}),
    "cmi_ch5_eve_late_x": ({ModeLabel.EARLY_B, ModeLabel.EARLY_X}, {ModeLabel.LATE_X}),
}.items()}


def _grid_measures(rho: np.ndarray | None, measures: dict) -> tuple[dict, dict]:
    """(grid values, GHZ values) of ``measures`` (column name: a ``Channel``
    for its MI or an ``EveSplit`` for its CMI) from one entropy table of the
    branch density stack ``rho`` with the GHZ density appended; ``rho`` None
    evaluates the GHZ state alone, whose values stand for the grid's too."""
    stack = _GHZ_DENSITY if rho is None else np.concatenate([rho, _GHZ_DENSITY])
    table = entanglement.subset_entropies(stack, {mask for m in measures.values() for mask in m.subsets})
    read = {entanglement.Channel: entanglement.mi_from_table, EveSplit: entanglement.cmi_from_table}
    values = {name: read[type(m)](table, m) for name, m in measures.items()}
    grid = {name: v if rho is None else v[:-1] for name, v in values.items()}
    return grid, {name: v[-1] for name, v in values.items()}


def sweep_table(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Header and dt-ascending rows of a delay sweep."""
    grid = spec.grid()
    amps = cascade.grid_amplitudes(spec.gamma_b, spec.gamma_x, grid)
    rho = cascade.branch_densities(amps, spec.dephase)  # also under --ghz, where it only checks --dephase
    split = {} if spec.alice is None else {"cmi": EveSplit.from_alice_eve(spec.alice, spec.eve)}
    values, ghz = _grid_measures(None if spec.ghz_reference else rho, {**_CHANNEL_COLUMNS, **split})
    columns = {"dt": grid, "gx_dt": spec.gamma_x * grid, "alpha2": amps.alpha2, "beta2": amps.beta2,
               "gamma2": amps.gamma2, "fidelity": amps.ghz_fidelity}
    columns.update((f"mi_ch{c}", values[f"mi_ch{c}"]) for c in spec.channels)
    columns["mi_avg"] = sum(values[name] for name in _CHANNEL_COLUMNS) / len(_CHANNEL_COLUMNS)
    if split:
        columns["cmi"], columns["cmi_ghz"] = values["cmi"], ghz["cmi"]
    return _table(columns, spec.points)


def secure_rate(
    params: DecayParams, split: EveSplit, dephase: float | None = None
) -> dict[str, float]:
    """Secret rate I(Alice:Bob|Eve) for the cascade state plus the GHZ
    baseline for the same split."""
    rho = cascade.dephased_density(params, 1.0 if dephase is None else dephase)
    return {
        "dt": params.delta_t,
        "gx_dt": params.gamma_x * params.delta_t,
        "cmi": entanglement.conditional_mutual_information(rho, split),
        "cmi_ghz": entanglement.conditional_mutual_information(qmath.density_from_state(cascade.ghz_state(4)), split),
    }


def optimize_delay(
    gamma_b: float,
    gamma_x: float,
    split: EveSplit,
    bracket: tuple[float, float],
    dephase: float | None = None,
) -> tuple[float, float]:
    """Locate the delay maximizing the secret rate inside ``bracket``, two ``DecayParams`` delays.

    Each round evaluates one grid as a stack of branch densities and narrows
    to the two cells around its best point: a 64-point first grid guards
    against non-unimodal objectives, then 16-point grids refine until the
    spacing is at most 1e-6 of the bracket width, or a round no longer
    narrows the interval. Returns the best evaluated grid point and its
    rate, so an optimum at the edge comes back as exactly ``lo`` or ``hi``.
    """
    lo, hi = bracket
    DecayParams.check(gamma_b, gamma_x, lo, "dt_min")
    DecayParams.check(gamma_b, gamma_x, hi, "dt_max")
    if not lo < hi:
        raise ValueError(f"empty or unbounded bracket: ({lo}, {hi})")
    tol = REFINE_TOL_FRACTION * (hi - lo)
    a, b, points = lo, hi, COARSE_SCAN_POINTS
    best_dt, best_cmi = lo, -math.inf
    while True:
        xs = np.linspace(a, b, points)
        rho = cascade.branch_densities(cascade.grid_amplitudes(gamma_b, gamma_x, xs), dephase)
        cmi = entanglement.conditional_mutual_information(rho, split)
        k = int(np.argmax(cmi))
        if cmi[k] > best_cmi:
            best_dt, best_cmi = float(xs[k]), float(cmi[k])
        next_a, next_b = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, points - 1)])
        if (b - a) / (points - 1) <= tol or not next_b - next_a < b - a:
            return best_dt, best_cmi
        a, b, points = next_a, next_b, REFINE_POINTS


def fig3_table() -> tuple[list[str], list[list[float]]]:
    """Per-channel mutual information and the channel average across the
    delay grid, with the flat GHZ reference."""
    grid = FIG_SPEC.grid()
    rho = cascade.branch_densities(cascade.grid_amplitudes(FIG_SPEC.gamma_b, FIG_SPEC.gamma_x, grid))
    mi, ghz = _grid_measures(rho, _CHANNEL_COLUMNS)
    columns = {"gx_dt": FIG_SPEC.gamma_x * grid, **mi, "mi_avg": sum(mi.values()) / len(mi), "mi_ghz": ghz["mi_ch1"]}
    return _table(columns, FIG_SPEC.points)


def fig4_table() -> tuple[list[str], list[list[float]]]:
    """Secret rates across the delay grid for the single-mode channel (Alice
    holds early-B, Eve takes one of Bob's three modes) and the balanced
    early|late channel (Eve takes either late mode), with GHZ baselines."""
    grid = FIG_SPEC.grid()
    rho = cascade.branch_densities(cascade.grid_amplitudes(FIG_SPEC.gamma_b, FIG_SPEC.gamma_x, grid))
    cmi, ghz = _grid_measures(rho, _FIG4_SPLITS)
    ch1, ch5 = [*_FIG4_SPLITS][:3], [*_FIG4_SPLITS][3:]  # each channel's GHZ baseline, of its first split, follows it
    columns = {"gx_dt": FIG_SPEC.gamma_x * grid, **{name: cmi[name] for name in ch1}, "ghz_ch1": ghz[ch1[0]],
               **{name: cmi[name] for name in ch5}, "ghz_ch5": ghz[ch5[0]]}
    return _table(columns, len(grid))


def _write_text(path: str, data: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(data)


def reproduce_fig3(path: str) -> None:
    _write_text(path, _csv_lines(*fig3_table()))


def reproduce_fig4(path: str) -> None:
    _write_text(path, _csv_lines(*fig4_table()))


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
) -> OracleReport:
    """Run both validators against the closed-form branch probabilities."""
    amps = cascade.amplitudes(params)
    expected = (amps.alpha2, amps.beta2, amps.gamma2)

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
        expected=expected,
        rk4_populations=rk4,
        rk4_max_deviation=rk4_dev,
        pattern_counts=counts,
        z_scores=z_scores,
        support_ok=support_ok,
    )


# --------------------------------------------------------------------------
# command-line surface
# --------------------------------------------------------------------------

def _has_json_type(option_type, value) -> bool:
    json_types = {float: (int, float), int: (int,)}.get(option_type, (str,))
    return isinstance(value, json_types) and not isinstance(value, bool)


def _config_value(action: argparse.Action, value):
    """``value`` as the option's type if it has the option's JSON type: a
    number that is not a bool for a numeric option, a string for a string
    option, a bool for a switch, a list of such items for a repeatable one."""
    if isinstance(action, argparse._StoreTrueAction):
        ok = isinstance(value, bool)
    elif isinstance(action, argparse._AppendAction):
        ok = isinstance(value, list) and all(_has_json_type(action.type, v) for v in value)
    else:
        ok = _has_json_type(action.type, value)
    if not ok:
        raise ValueError(f"config {action.dest} has the wrong type: {value!r}")
    return float(value) if action.type is float else value


def _with_config(argv: Sequence[str] | None, args: argparse.Namespace) -> argparse.Namespace:
    """Re-parse with the JSON object in ``--config`` as defaults of the chosen
    subcommand, so flags given on the command line still win; a repeatable
    flag replaces the file's list. The defaults go on a parser of its own,
    never on the one ``main`` shares."""
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = subparsers.choices[args.command]
    options = {a.dest: a for a in command._actions if a.option_strings}
    config = {key.replace("-", "_"): value for key, value in config.items()}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {unknown}")
    for key, value in config.items():
        config[key] = _config_value(options[key], value)
        if options[key].choices is not None and value not in options[key].choices:
            raise ValueError(f"config {key} must be one of {list(options[key].choices)}, got {value!r}")
        # a repeatable flag would extend the file's list; given, it replaces it
        if isinstance(options[key], argparse._AppendAction) and getattr(args, key) is not None:
            config[key] = None
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
    dt = args.dt if args.dt is not None else DEFAULT_DT
    return DecayParams(gamma_b=gamma_b, gamma_x=gamma_x, delta_t=dt)


def _resolve_split(args: argparse.Namespace) -> EveSplit:
    alice = parse_mode_list(args.alice)
    eve = parse_mode_list(args.eve) if getattr(args, "eve", None) else frozenset()
    return EveSplit.from_alice_eve(alice, eve)


def _emit(args: argparse.Namespace, header: list[str], rows: list[list[float]]) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _csv_lines(header, rows)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _cmd_amplitudes(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    amps = cascade.amplitudes(params)
    header = ["dt", "gx_dt", "alpha", "beta", "gamma", "alpha2", "beta2", "gamma2", "fidelity"]
    row = [params.delta_t, params.gamma_x * params.delta_t,
           amps.alpha, amps.beta, amps.gamma,
           amps.alpha2, amps.beta2, amps.gamma2, amps.ghz_fidelity]
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
    alice = parse_mode_list(args.alice) if args.alice is not None else None
    eve = parse_mode_list(args.eve) if args.eve else frozenset()
    spec = SweepSpec(
        gamma_b=gamma_b, gamma_x=gamma_x,
        dt_min=args.dt_min, dt_max=args.dt_max, points=args.points, scale=args.scale,
        channels=channels, dephase=args.dephase, ghz_reference=args.ghz,
        alice=alice, eve=eve,
    )
    _emit(args, *sweep_table(spec))
    return EXIT_OK


def _cmd_secure_rate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    split = _resolve_split(args)
    result = secure_rate(params, split, args.dephase)
    _emit(args, list(result), [list(result.values())])
    return EXIT_OK


def _cmd_optimize_dt(args: argparse.Namespace) -> int:
    gamma_b, gamma_x = _resolve_rates(args)
    split = _resolve_split(args)
    dt_star, cmi_star = optimize_delay(
        gamma_b, gamma_x, split, (args.dt_min, args.dt_max), dephase=args.dephase
    )
    if dt_star in (args.dt_min, args.dt_max):
        print(f"note: the optimum lies at the bracket edge dt = {_fmt(dt_star)}", file=sys.stderr)
    ghz_cmi = _grid_measures(None, {"cmi_ghz": split})[1]["cmi_ghz"]
    header = ["dt_star", "gx_dt_star", "cmi_star", "cmi_ghz"]
    _emit(args, header, [[dt_star, gamma_x * dt_star, cmi_star, ghz_cmi]])
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    {"fig3": reproduce_fig3, "fig4": reproduce_fig4}[args.command](args.out)
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
    # shared flags, built per parser: a parent shares its actions, and the defaults --config sets, with its children
    rates = argparse.ArgumentParser(add_help=False)
    rates.add_argument("--gamma-b", type=float, default=None, help="biexciton decay rate")
    rates.add_argument("--gamma-x", type=float, default=None, help="exciton decay rate (default 1)")
    rates.add_argument("--ratio", type=float, default=None,
                       help="gamma_b / gamma_x; sets gamma_b = ratio * gamma_x")
    rates.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults for any flag (flags override)")
    point = argparse.ArgumentParser(add_help=False, parents=[rates])
    point.add_argument("--dt", type=float, default=None, help="pulse delay")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", type=str, default=None)

    p = sub.add_parser(
        "amplitudes",
        help="branch amplitudes alpha = exp(-gamma_b dt/2), "
             "beta = sqrt(gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)), "
             "gamma = sqrt(1 - alpha^2 - beta^2)",
        parents=[point, output],
    )
    p.set_defaults(handler=_cmd_amplitudes)

    p = sub.add_parser(
        "state",
        help="four-mode state alpha|0000> + beta|1001> + gamma|1111> "
             "over (early-B, early-X, late-B, late-X)",
        parents=[point, output],
    )
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser(
        "sweep",
        help="mutual information I(p1:p2) = S(p1) + S(p2) - S(p1,p2) per channel "
             "over a delay grid, with the 7-channel average",
        parents=[rates, output],
    )
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
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "secure-rate",
        help="secret rate I(Alice:Bob|Eve) = I(A:BE) - I(A:E), with GHZ baseline",
        parents=[point, output],
    )
    p.add_argument("--alice", type=str, required=True, help="e.g. 'early-b' or 'eb,ex'")
    p.add_argument("--eve", type=str, default=None, help="modes Eve grabs from Bob's side")
    p.add_argument("--dephase", type=float, default=None)
    p.set_defaults(handler=_cmd_secure_rate)

    p = sub.add_parser(
        "optimize-dt",
        help="maximize I(Alice:Bob|Eve) over the pulse delay "
             "(coarse scan + repeated grid refinement)",
        parents=[rates, output],
    )
    p.add_argument("--alice", type=str, required=True)
    p.add_argument("--eve", type=str, default=None)
    p.add_argument("--dt-min", type=float, default=1e-3)
    p.add_argument("--dt-max", type=float, default=10.0)
    p.add_argument("--dephase", type=float, default=None)
    p.set_defaults(handler=_cmd_optimize_dt)

    for name, help_text in (
        ("fig3", "CSV of per-channel mutual information vs gamma_x dt "
                 "(200 log points, rates 2:1) plus average and GHZ reference"),
        ("fig4", "CSV of secret rates I(Alice:Bob|Eve) vs gamma_x dt for the "
                 "single-mode and balanced channels with GHZ baselines"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=str, required=True)
        p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser(
        "validate",
        help="check the closed-form branch probabilities against the "
             "rate-equation integrator and the trajectory sampler",
        parents=[point],
    )
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--step", type=float, default=1e-4)
    p.set_defaults(handler=_cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on the first call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _with_config(argv, args)
        return args.handler(args)
    # LinAlgError subclasses ValueError, so it is caught before bad arguments
    except (ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
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
