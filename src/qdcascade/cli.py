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
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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


def _check_bracket(gamma_b: float, gamma_x: float, lo: float, hi: float) -> None:
    """Check the rates and a delay bracket (lo, hi), named by the flags
    ``dt_min`` and ``dt_max``: each end by the rules of ``DecayParams``,
    ``dt_max`` first, then lo < hi."""
    DecayParams.check(gamma_b, gamma_x, hi, "dt_max")
    DecayParams.check(gamma_b, gamma_x, lo, "dt_min")
    if not lo < hi:
        raise ValueError(f"dt_min must be smaller than dt_max, got {lo} and {hi}")


@dataclass(frozen=True)
class SweepSpec:
    """A delay sweep request: rates, dt grid, channel selection, options,
    and the checked Alice/Eve split of an extra secret-rate column, if any.
    The bracket, points, scale, channel ids and ``dephase`` are checked
    here, before any grid is built."""

    gamma_b: float
    gamma_x: float
    dt_min: float
    dt_max: float
    points: int
    scale: str = "linear"
    channels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    dephase: float = 1.0
    ghz_reference: bool = False
    split: EveSplit | None = None

    def __post_init__(self):
        _check_bracket(self.gamma_b, self.gamma_x, self.dt_min, self.dt_max)
        if self.points < 2:
            raise ValueError("points: need at least 2")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale: must be 'linear' or 'log'")
        if self.scale == "log" and self.dt_min <= 0.0:
            raise ValueError("dt_min: log scale requires dt_min > 0")
        for c in self.channels:
            entanglement.channel_by_id(c)
        cascade.check_dephase(self.dephase)

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.dt_min, self.dt_max, self.points)
        return np.linspace(self.dt_min, self.dt_max, self.points)


# the figures' grid: 200 log-spaced delays in [1e-2, 10] at gamma_b : gamma_x = 2 : 1
FIG_SPEC = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=1e-2, dt_max=10.0, points=200, scale="log")


def _table(columns: dict, n: int) -> tuple[list[str], list[list[float]]]:
    """Header and rows of named columns, each n values or one value for all rows."""
    return list(columns), np.column_stack([np.broadcast_to(c, (n,)) for c in columns.values()]).tolist()


_CHANNEL_COLUMNS = {f"mi_ch{ch.id}": ch for ch in entanglement.enumerate_channels()}
# fig4's columns: (Alice, Eve) of each split, built once so that each split's masks are too
_FIG4_SPLITS = {name: EveSplit.from_alice_eve(*split) for name, split in {
    "cmi_ch1_eve_early_x": ({ModeLabel.EARLY_B}, {ModeLabel.EARLY_X}),
    "cmi_ch1_eve_late_b": ({ModeLabel.EARLY_B}, {ModeLabel.LATE_B}),
    "cmi_ch1_eve_late_x": ({ModeLabel.EARLY_B}, {ModeLabel.LATE_X}),
    "cmi_ch5_eve_late_b": ({ModeLabel.EARLY_B, ModeLabel.EARLY_X}, {ModeLabel.LATE_B}),
    "cmi_ch5_eve_late_x": ({ModeLabel.EARLY_B, ModeLabel.EARLY_X}, {ModeLabel.LATE_X}),
}.items()}


def _measures(table: Mapping, measures: dict) -> dict:
    """The value of each of ``measures`` (column name: a ``Channel`` for its
    MI or an ``EveSplit`` for its CMI) in an entropy table holding their masks."""
    read = {entanglement.Channel: entanglement.mi_from_table, EveSplit: entanglement.cmi_from_table}
    return {name: read[type(m)](table, m) for name, m in measures.items()}


def _grid_measures(rho: cascade.BranchState, measures: dict) -> dict:
    """``measures`` of the branch state ``rho``, from one entropy table over their masks."""
    return _measures(entanglement.subset_entropies(rho, {mask for m in measures.values() for mask in m.subsets}),
                     measures)


@functools.cache
def _ghz_table() -> Mapping[int, float]:
    """The GHZ state's entropy table over all 16 masks, one float each, built
    on the branch kets, never dephased, once per process and read-only, as
    every caller shares it: every grid command's GHZ baseline."""
    ghz = cascade.BranchState(cascade.Amplitudes(*cascade.ghz_state(4)[list(cascade.BRANCH_KETS)].real))
    return MappingProxyType({mask: s[0] for mask, s in entanglement.subset_entropies(ghz, range(16)).items()})


def sweep_table(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Header and dt-ascending rows of a delay sweep."""
    grid = spec.grid()
    amps = cascade.grid_amplitudes(spec.gamma_b, spec.gamma_x, grid)
    measures = {**_CHANNEL_COLUMNS, **({} if spec.split is None else {"cmi": spec.split})}
    values = (_measures(_ghz_table(), measures) if spec.ghz_reference
              else _grid_measures(cascade.BranchState(amps, spec.dephase), measures))
    columns = {"dt": grid, "gx_dt": spec.gamma_x * grid, "alpha2": amps.alpha2, "beta2": amps.beta2,
               "gamma2": amps.gamma2, "fidelity": amps.ghz_fidelity}
    columns.update((f"mi_ch{c}", values[f"mi_ch{c}"]) for c in spec.channels)
    columns["mi_avg"] = sum(values[name] for name in _CHANNEL_COLUMNS) / len(_CHANNEL_COLUMNS)
    if spec.split is not None:
        columns["cmi"], columns["cmi_ghz"] = values["cmi"], entanglement.cmi_from_table(_ghz_table(), spec.split)
    return _table(columns, spec.points)


def secure_rate(params: DecayParams, split: EveSplit, dephase: float = 1.0) -> dict[str, float]:
    """Secret rate I(Alice:Bob|Eve) for the cascade state plus the GHZ
    baseline for the same split."""
    rho = cascade.dephased_density(params, dephase)
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
    dephase: float = 1.0,
) -> tuple[float, float]:
    """Locate the delay maximizing the secret rate inside ``bracket``, two ``DecayParams`` delays.

    Each round evaluates one grid as one branch state and narrows
    to the two cells around its best point: a 64-point first grid guards
    against non-unimodal objectives, then 16-point grids refine until the
    spacing is at most 1e-6 of the bracket width, or a round no longer
    narrows the interval. Returns the best evaluated grid point and its
    rate, so an optimum at the edge comes back as exactly ``lo`` or ``hi``.
    """
    lo, hi = bracket
    _check_bracket(gamma_b, gamma_x, lo, hi)
    tol = REFINE_TOL_FRACTION * (hi - lo)
    a, b, points = lo, hi, COARSE_SCAN_POINTS
    best_dt, best_cmi = lo, -math.inf
    while True:
        # linspace's points are a + k step >= a, but a subnormal step can round them above b
        xs = np.minimum(np.linspace(a, b, points), b)
        rho = cascade.BranchState(cascade.grid_amplitudes(gamma_b, gamma_x, xs), dephase)
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
    rho = cascade.BranchState(cascade.grid_amplitudes(FIG_SPEC.gamma_b, FIG_SPEC.gamma_x, grid))
    mi = _grid_measures(rho, _CHANNEL_COLUMNS)
    mi_ghz = entanglement.mi_from_table(_ghz_table(), _CHANNEL_COLUMNS["mi_ch1"])
    columns = {"gx_dt": FIG_SPEC.gamma_x * grid, **mi, "mi_avg": sum(mi.values()) / len(mi), "mi_ghz": mi_ghz}
    return _table(columns, FIG_SPEC.points)


def fig4_table() -> tuple[list[str], list[list[float]]]:
    """Secret rates across the delay grid for the single-mode channel (Alice
    holds early-B, Eve takes one of Bob's three modes) and the balanced
    early|late channel (Eve takes either late mode), with GHZ baselines."""
    grid = FIG_SPEC.grid()
    rho = cascade.BranchState(cascade.grid_amplitudes(FIG_SPEC.gamma_b, FIG_SPEC.gamma_x, grid))
    cmi = _grid_measures(rho, _FIG4_SPLITS)
    ghz = _measures(_ghz_table(), _FIG4_SPLITS)
    ch1, ch5 = [*_FIG4_SPLITS][:3], [*_FIG4_SPLITS][3:]  # each channel's GHZ baseline, of its first split, follows it
    columns = {"gx_dt": FIG_SPEC.gamma_x * grid, **{name: cmi[name] for name in ch1}, "ghz_ch1": ghz[ch1[0]],
               **{name: cmi[name] for name in ch5}, "ghz_ch5": ghz[ch5[0]]}
    return _table(columns, len(grid))


def _write_text(path: str, data: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(data)


def validate_oracles(params: DecayParams, trials: int, seed: int, step: float = 1e-4) -> tuple[list[str], bool]:
    """The report lines and verdict of checking the closed-form branch
    probabilities against the rate-equation integrator and the trajectory
    sampler; each check's verdict is taken once, for the line that prints it."""
    amps = cascade.amplitudes(params)
    expected = (amps.alpha2, amps.beta2, amps.gamma2)
    pops = oracle.rate_equation_populations(params, step)
    rk4_dev = max(abs(a - b) for a, b in zip((pops.p_b, pops.p_x, pops.p_g), expected))
    counts = oracle.monte_carlo_patterns(params, trials, seed)
    rk4_ok = rk4_dev <= RK4_MAX_DEVIATION
    support_ok = set(counts.support()) <= set(oracle.IDEAL_PATTERNS)
    lines = [
        "expected branch probabilities: " + ", ".join(_fmt(x) for x in expected),
        f"rate-equation max deviation: {rk4_dev:.3e}"
        + (" (ok)" if rk4_ok else f" (FAIL, limit {RK4_MAX_DEVIATION:.0e})"),
        f"trajectory support {counts.support()}" + (" (ok)" if support_ok else " (FAIL: unexpected patterns)"),
    ]
    passed = rk4_ok and support_ok
    for pattern, prob in zip(oracle.IDEAL_PATTERNS, expected):
        n = counts.counts[pattern]
        spread = math.sqrt(trials * prob * (1.0 - prob))
        if spread == 0.0:
            z = 0.0 if n == round(trials * prob) else math.inf
        else:
            z = (n - trials * prob) / spread
        z_ok = abs(z) <= MC_MAX_ZSCORE
        passed = passed and z_ok
        lines.append(f"pattern {pattern:04b}: count {n} z = {z:+.3f}" + ("" if z_ok else " (FAIL)"))
    return lines + ["result: " + ("PASS" if passed else "FAIL")], passed


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
    return EveSplit.from_alice_eve(parse_mode_list(args.alice), parse_mode_list(args.eve or ""))


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
    if args.alice is None and args.eve:
        raise ValueError("--eve needs --alice")
    spec = SweepSpec(
        gamma_b=gamma_b, gamma_x=gamma_x,
        dt_min=args.dt_min, dt_max=args.dt_max, points=args.points, scale=args.scale,
        channels=channels, dephase=args.dephase, ghz_reference=args.ghz,
        split=None if args.alice is None else _resolve_split(args),
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
    ghz_cmi = entanglement.cmi_from_table(_ghz_table(), split)
    header = ["dt_star", "gx_dt_star", "cmi_star", "cmi_ghz"]
    _emit(args, header, [[dt_star, gamma_x * dt_star, cmi_star, ghz_cmi]])
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    _emit(args, *{"fig3": fig3_table, "fig4": fig4_table}[args.command]())
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    lines, passed = validate_oracles(params, args.trials, args.seed, step=args.step)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_VALIDATION_FAILURE


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
    p.add_argument("--dephase", type=float, default=1.0,
                   help="attenuate all coherences by this factor in [0, 1] (default 1: no dephasing)")
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
    p.add_argument("--dephase", type=float, default=1.0)
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
    p.add_argument("--dephase", type=float, default=1.0)
    p.set_defaults(handler=_cmd_optimize_dt)

    for name, help_text in (
        ("fig3", "CSV of per-channel mutual information vs gamma_x dt "
                 "(200 log points, rates 2:1) plus average and GHZ reference"),
        ("fig4", "CSV of secret rates I(Alice:Bob|Eve) vs gamma_x dt for the "
                 "single-mode and balanced channels with GHZ baselines"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=str, required=True)
        p.set_defaults(handler=_cmd_figure, format="csv")

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
