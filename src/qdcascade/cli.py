"""Batch front-end: sweeps, secret-rate evaluation, delay optimization,
figure-data tables, and oracle validation.

Everything is emitted as machine-readable CSV or JSON with '\\n' line
endings, CSV cells at 12 significant digits and JSON floats as their exact
repr, so outputs are byte-reproducible and can be checked against golden files.

Unit convention: rates are in units where gamma_x = 1 unless both rates are
given explicitly; times are in the inverse rate units.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import cascade, entanglement, qmath
from .cascade import DecayParams, ModeLabel, _int_text
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
CELL_FORMAT = "%.12g"  # each CSV cell, and each number _fmt writes


def _fmt(x: float) -> str:
    return CELL_FORMAT % float(x)


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """CSV text of ``header`` and ``rows``, every cell as ``_fmt`` writes it."""
    row_format = ",".join([CELL_FORMAT] * len(header))
    try:
        lines = [row_format % tuple(row) for row in rows]
    except TypeError as exc:  # a row whose length differs from the header's, or a cell that is not a number
        raise ValueError(f"cannot write a row under the {len(header)} columns {list(header)}: {exc}") from None
    return "\n".join([",".join(header)] + lines) + "\n"


def _check_bracket(gamma_b: float, gamma_x: float, lo: float, hi: float) -> None:
    """Check the rates and a delay bracket (lo, hi), named by the flags
    ``dt_min`` and ``dt_max``: each end by the rules of ``DecayParams``,
    ``dt_max`` first, then lo < hi."""
    DecayParams.check(gamma_b, gamma_x, hi, "dt_max")
    DecayParams.check(gamma_b, gamma_x, lo, "dt_min")
    if not lo < hi:
        raise ValueError(f"dt_min must be smaller than dt_max, got {lo} and {hi}")


def _delay_grid(lo: float, hi: float, points: int, scale: str = "linear") -> np.ndarray:
    """``points`` delays from ``lo`` to ``hi``, evenly spaced on a linear or
    log scale; numpy can round a point out of [lo, hi], so each is clipped to it."""
    return (np.geomspace if scale == "log" else np.linspace)(lo, hi, points).clip(lo, hi)


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
            raise ValueError(f"points must be at least 2, got {_int_text(self.points)}")
        if self.points > np.iinfo(np.intp).max:
            raise ValueError(f"points must be at most {np.iinfo(np.intp).max}, got {_int_text(self.points)}")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale: must be 'linear' or 'log'")
        if self.scale == "log" and self.dt_min <= 0.0:
            raise ValueError(f"dt_min must be positive on a log scale, got {self.dt_min}")
        for c in self.channels:
            entanglement.channel_by_id(c)
        cascade.check_dephase(self.dephase)

    def grid(self) -> np.ndarray:
        return _delay_grid(self.dt_min, self.dt_max, self.points, self.scale)


# the figures' grid: 200 log-spaced delays in [1e-2, 10] at gamma_b : gamma_x = 2 : 1
FIG_SPEC = SweepSpec(gamma_b=2.0, gamma_x=1.0, dt_min=1e-2, dt_max=10.0, points=200, scale="log")


_CHANNEL_COLUMNS = {f"mi_ch{ch.id}": ch for ch in entanglement.enumerate_channels()}
# fig4's columns: (Alice, Eve) of each split, built once so that each split's masks are too
_FIG4_SPLITS = {name: EveSplit(*split) for name, split in {
    "cmi_ch1_eve_early_x": ({ModeLabel.EARLY_B}, {ModeLabel.EARLY_X}),
    "cmi_ch1_eve_late_b": ({ModeLabel.EARLY_B}, {ModeLabel.LATE_B}),
    "cmi_ch1_eve_late_x": ({ModeLabel.EARLY_B}, {ModeLabel.LATE_X}),
    "cmi_ch5_eve_late_b": ({ModeLabel.EARLY_B, ModeLabel.EARLY_X}, {ModeLabel.LATE_B}),
    "cmi_ch5_eve_late_x": ({ModeLabel.EARLY_B, ModeLabel.EARLY_X}, {ModeLabel.LATE_X}),
}.items()}


@functools.cache
def _ghz_table() -> Mapping[int, float]:
    """The GHZ state's entropy table over all 16 masks, one float each, built
    on the branch kets, never dephased, once per process and read-only, as
    every caller shares it: every grid command's GHZ baseline."""
    ghz = cascade.BranchState(cascade.ghz_state(4)[list(cascade.BRANCH_KETS)].real)
    return MappingProxyType({mask: s[0] for mask, s in entanglement.subset_entropies(ghz, range(16)).items()})


def _grid_table(spec: SweepSpec, header: Iterable[str], measures: Mapping,
                ghz: Mapping) -> tuple[list[str], list[list[float]]]:
    """Header and dt-ascending rows of the columns ``header`` over the grid of
    ``spec``, a repeated name kept at its first place. A column is a grid
    quantity (``dt``, ``gx_dt``, ``alpha2``, ``beta2``, ``gamma2``,
    ``fidelity``), a name of ``measures``, ``mi_avg`` (the mean of the seven
    channels, all in ``measures``) or a name of ``ghz``, that measure's GHZ
    baseline. A measure is a ``Channel`` for its MI or an ``EveSplit`` for
    its CMI; ``measures`` are read from one entropy table over their masks,
    of the branch state, or of the GHZ state for ``spec.ghz_reference``."""
    grid = spec.grid()
    state = cascade.grid_amplitudes(spec.gamma_b, spec.gamma_x, grid, spec.dephase)
    table = _ghz_table() if spec.ghz_reference else entanglement.subset_entropies(
        state, {mask for m in measures.values() for mask in m.subsets})
    read = {entanglement.Channel: entanglement.mi_from_table, EveSplit: entanglement.cmi_from_table}
    columns = {"dt": grid, "gx_dt": spec.gamma_x * grid, "alpha2": state.alpha2, "beta2": state.beta2,
               "gamma2": state.gamma2, "fidelity": state.ghz_fidelity,
               **{name: read[type(m)](table, m) for name, m in measures.items()},
               **{name: read[type(m)](_ghz_table(), m) for name, m in ghz.items()}}
    header = list(dict.fromkeys(header))
    if "mi_avg" in header:
        columns["mi_avg"] = sum(columns[name] for name in _CHANNEL_COLUMNS) / len(_CHANNEL_COLUMNS)
    rows = np.empty((spec.points, len(header)))
    for k, name in enumerate(header):
        rows[:, k] = columns[name]  # a GHZ baseline, one number, fills its column
    return header, rows.tolist()


def sweep_table(spec: SweepSpec) -> tuple[list[str], list[list[float]]]:
    """Header and dt-ascending rows of a delay sweep."""
    cmi, ghz = ({}, {}) if spec.split is None else ({"cmi": spec.split}, {"cmi_ghz": spec.split})
    return _grid_table(spec, ["dt", "gx_dt", "alpha2", "beta2", "gamma2", "fidelity",
                              *(f"mi_ch{c}" for c in spec.channels), "mi_avg", *cmi, *ghz],
                       {**_CHANNEL_COLUMNS, **cmi}, ghz)


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
        xs = _delay_grid(a, b, points)
        rho = cascade.grid_amplitudes(gamma_b, gamma_x, xs, dephase)
        cmi = entanglement.conditional_mutual_information(rho, split)
        k = int(cmi.argmax())
        if cmi[k] > best_cmi:
            best_dt, best_cmi = float(xs[k]), float(cmi[k])
        next_a, next_b = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, points - 1)])
        if (b - a) / (points - 1) <= tol or not next_b - next_a < b - a:
            return best_dt, best_cmi
        a, b, points = next_a, next_b, REFINE_POINTS


def fig3_table() -> tuple[list[str], list[list[float]]]:
    """Per-channel mutual information and the channel average across the
    delay grid, with the flat GHZ reference."""
    return _grid_table(FIG_SPEC, ["gx_dt", *_CHANNEL_COLUMNS, "mi_avg", "mi_ghz"], _CHANNEL_COLUMNS,
                       {"mi_ghz": _CHANNEL_COLUMNS["mi_ch1"]})


def fig4_table() -> tuple[list[str], list[list[float]]]:
    """Secret rates across the delay grid for the single-mode channel (Alice
    holds early-B, Eve takes one of Bob's three modes) and the balanced
    early|late channel (Eve takes either late mode), with GHZ baselines."""
    ch1, ch5 = [*_FIG4_SPLITS][:3], [*_FIG4_SPLITS][3:]  # each channel's GHZ baseline, of its first split, follows it
    return _grid_table(FIG_SPEC, ["gx_dt", *ch1, "ghz_ch1", *ch5, "ghz_ch5"], _FIG4_SPLITS,
                       {"ghz_ch1": _FIG4_SPLITS[ch1[0]], "ghz_ch5": _FIG4_SPLITS[ch5[0]]})


def validate_oracles(params: DecayParams, trials: int, seed: int, step: float = 1e-4) -> tuple[list[str], bool]:
    """The report lines and verdict of checking the closed-form branch
    probabilities against the rate-equation integrator and the trajectory
    sampler; each check's verdict is taken once, for the line that prints it."""
    from . import oracle  # only validate runs the oracles

    state = cascade.amplitudes(params)
    expected = (state.alpha2, state.beta2, state.gamma2)
    pops = oracle.rate_equation_populations(params, step)
    rk4_dev = max(abs(a - b) for a, b in zip((pops.p_b, pops.p_x, pops.p_g), expected))
    counts = oracle.monte_carlo_patterns(params, trials, seed)
    passed = rk4_dev <= RK4_MAX_DEVIATION
    lines = [
        "expected branch probabilities: " + ", ".join(_fmt(x) for x in expected),
        f"rate-equation max deviation: {rk4_dev:.3e}"
        + (" (ok)" if passed else f" (FAIL, limit {RK4_MAX_DEVIATION:.0e})"),
        f"trajectory support {counts.support()} (ok)",
    ]
    for pattern, n, prob in zip(oracle.IDEAL_PATTERNS, counts.counts, expected):
        spread = math.sqrt(trials * prob * (1.0 - prob))
        if spread == 0.0:
            z = 0.0 if n == round(trials * prob) else math.inf
        else:
            z = (n - trials * prob) / spread
        z_ok = abs(z) <= MC_MAX_ZSCORE
        passed = passed and z_ok
        # + 0.0 turns the -0.0 of a z that rounds to zero into +0.0, so it prints +0.000
        lines.append(f"pattern {pattern:04b}: count {n} z = {round(z, 3) + 0.0:+.3f}" + ("" if z_ok else " (FAIL)"))
    return lines + ["result: " + ("PASS" if passed else "FAIL")], passed


# --------------------------------------------------------------------------
# command-line surface
# --------------------------------------------------------------------------

def _resolve_rates(args: argparse.Namespace) -> tuple[float, float]:
    if args.ratio is not None:
        if args.gamma_b is not None:
            raise ValueError("--ratio conflicts with an explicit --gamma-b")
        return args.ratio * args.gamma_x, args.gamma_x
    gamma_b = args.gamma_b if args.gamma_b is not None else DEFAULT_RATIO * args.gamma_x
    return gamma_b, args.gamma_x


def _resolve_params(args: argparse.Namespace) -> DecayParams:
    gamma_b, gamma_x = _resolve_rates(args)
    DecayParams.check(gamma_b, gamma_x, args.dt, "dt")  # named by its flag, as _check_bracket names the bracket
    return DecayParams(gamma_b=gamma_b, gamma_x=gamma_x, delta_t=args.dt)


@functools.lru_cache(maxsize=64)
def _resolve_split(alice: str | None, eve: str | None) -> EveSplit:
    """The split of the texts of ``--alice`` and ``--eve``, each a
    comma-separated list of modes: one object per pair of texts while it is
    among the 64 most recent, so that its masks are computed once. A pair
    that raises is not cached, and raises again."""
    modes = [[ModeLabel.parse(t) for t in (text or "").split(",") if t.strip()] for text in (alice, eve)]
    return EveSplit(*modes)


def _emit(fmt: str, out: str | None, header: list[str], rows: list[list[float]]) -> None:
    if fmt == "json":
        import json  # only JSON output and --config load it

        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        text = _csv_lines(header, rows)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_amplitudes(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    state = cascade.amplitudes(params)
    header = ["dt", "gx_dt", "alpha", "beta", "gamma", "alpha2", "beta2", "gamma2", "fidelity"]
    row = [params.delta_t, params.gamma_x * params.delta_t, *state.c,
           state.alpha2, state.beta2, state.gamma2, state.ghz_fidelity]
    _emit(args.format, args.out, header, [row])
    return EXIT_OK


def _cmd_state(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    c = cascade.amplitudes(params).c
    header = ["basis_index", "pattern", "amplitude"]
    rows = [[i, int(f"{i:04b}"), a] for i, a in zip(cascade.BRANCH_KETS, c.tolist()) if a > 0.0]
    _emit(args.format, args.out, header, rows)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    gamma_b, gamma_x = _resolve_rates(args)
    if args.alice is None and args.eve:
        raise ValueError("--eve needs --alice")
    spec = SweepSpec(
        gamma_b=gamma_b, gamma_x=gamma_x,
        dt_min=args.dt_min, dt_max=args.dt_max, points=args.points, scale=args.scale,
        channels=tuple(args.channel or SweepSpec.channels), dephase=args.dephase, ghz_reference=args.ghz,
        split=None if args.alice is None else _resolve_split(args.alice, args.eve),
    )
    _emit(args.format, args.out, *sweep_table(spec))
    return EXIT_OK


def _cmd_secure_rate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    split = _resolve_split(args.alice, args.eve)
    result = secure_rate(params, split, args.dephase)
    _emit(args.format, args.out, list(result), [list(result.values())])
    return EXIT_OK


def _cmd_optimize_dt(args: argparse.Namespace) -> int:
    gamma_b, gamma_x = _resolve_rates(args)
    split = _resolve_split(args.alice, args.eve)
    dt_star, cmi_star = optimize_delay(
        gamma_b, gamma_x, split, (args.dt_min, args.dt_max), dephase=args.dephase
    )
    ghz_cmi = entanglement.cmi_from_table(_ghz_table(), split)
    header = ["dt_star", "gx_dt_star", "cmi_star", "cmi_ghz"]
    _emit(args.format, args.out, header, [[dt_star, gamma_x * dt_star, cmi_star, ghz_cmi]])
    # after the table, so that a failed write prints its error alone
    if dt_star in (args.dt_min, args.dt_max):
        print(f"note: the optimum lies at the bracket edge dt = {_fmt(dt_star)}", file=sys.stderr)
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    _emit("csv", args.out, *{"fig3": fig3_table, "fig4": fig4_table}[args.command]())
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    lines, passed = validate_oracles(params, args.trials, args.seed, step=args.step)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if passed else EXIT_VALIDATION_FAILURE


class Command(NamedTuple):
    """A subcommand: the function that runs it, its help line and its flags
    in ``--help`` order, each a name and its ``add_argument`` keywords."""

    handler: Callable[[argparse.Namespace], int]
    help: str
    flags: tuple[tuple[str, dict], ...]


_RATES = (
    ("--gamma-b", dict(type=float, help="biexciton decay rate")),
    ("--gamma-x", dict(type=float, default=DEFAULT_GAMMA_X, help="exciton decay rate (default 1)")),
    ("--ratio", dict(type=float, help="gamma_b / gamma_x; sets gamma_b = ratio * gamma_x")),
    ("--config", dict(help="JSON file with defaults for any flag (flags override)")),
)
_POINT = (*_RATES, ("--dt", dict(type=float, default=DEFAULT_DT, help="pulse delay")))
_OUTPUT = (("--format", dict(choices=("csv", "json"), default="csv")), ("--out", {}))

# the command line, stated once: build_parser, the --config check and the
# contract test all read it
COMMANDS = {
    "amplitudes": Command(
        _cmd_amplitudes,
        "branch amplitudes alpha = exp(-gamma_b dt/2), "
        "beta = sqrt(gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)), "
        "gamma = sqrt(1 - alpha^2 - beta^2)",
        (*_POINT, *_OUTPUT)),
    "state": Command(
        _cmd_state,
        "four-mode state alpha|0000> + beta|1001> + gamma|1111> "
        "over (early-B, early-X, late-B, late-X)",
        (*_POINT, *_OUTPUT)),
    "sweep": Command(
        _cmd_sweep,
        "mutual information I(p1:p2) = S(p1) + S(p2) - S(p1,p2) per channel "
        "over a delay grid, with the 7-channel average",
        (*_RATES, *_OUTPUT,
         ("--dt-min", dict(type=float, required=True)),
         ("--dt-max", dict(type=float, required=True)),
         ("--points", dict(type=int, required=True)),
         ("--scale", dict(choices=("linear", "log"), default="linear")),
         ("--channel", dict(type=int, action="append",
                            help="channel id 1..7; repeat to select several (default: all)")),
         ("--dephase", dict(type=float, default=1.0,
                            help="attenuate all coherences by this factor in [0, 1] (default 1: no dephasing)")),
         ("--ghz", dict(action="store_true", default=False,
                        help="evaluate the GHZ reference state instead of the cascade state")),
         ("--alice", dict(help="comma-separated modes for an extra secret-rate column")),
         ("--eve", {}))),
    "secure-rate": Command(
        _cmd_secure_rate,
        "secret rate I(Alice:Bob|Eve) = I(A:BE) - I(A:E), with GHZ baseline",
        (*_POINT, *_OUTPUT,
         ("--alice", dict(required=True, help="e.g. 'early-b' or 'eb,ex'")),
         ("--eve", dict(help="modes Eve grabs from Bob's side")),
         ("--dephase", dict(type=float, default=1.0)))),
    "optimize-dt": Command(
        _cmd_optimize_dt,
        "maximize I(Alice:Bob|Eve) over the pulse delay "
        "(coarse scan + repeated grid refinement)",
        (*_RATES, *_OUTPUT,
         ("--alice", dict(required=True)),
         ("--eve", {}),
         ("--dt-min", dict(type=float, default=1e-3)),
         ("--dt-max", dict(type=float, default=10.0)),
         ("--dephase", dict(type=float, default=1.0)))),
    "fig3": Command(
        _cmd_figure,
        "CSV of per-channel mutual information vs gamma_x dt "
        "(200 log points, rates 2:1) plus average and GHZ reference",
        (("--out", dict(required=True)),)),
    "fig4": Command(
        _cmd_figure,
        "CSV of secret rates I(Alice:Bob|Eve) vs gamma_x dt for the "
        "single-mode and balanced channels with GHZ baselines",
        (("--out", dict(required=True)),)),
    "validate": Command(
        _cmd_validate,
        "check the closed-form branch probabilities against the "
        "rate-equation integrator and the trajectory sampler",
        (*_POINT,
         ("--trials", dict(type=int, default=1_000_000)),
         ("--seed", dict(type=int, default=42)),
         ("--step", dict(type=float, default=1e-4)))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``COMMANDS``, built on the first call and shared by every
    later one. It holds no flag defaults, so a parse returns the command and
    only the flags that were given."""
    parser = argparse.ArgumentParser(
        prog="qdcascade",
        description="Photon-number entanglement from a two-pulse biexciton-exciton cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **{key: value for key, value in kwargs.items() if key != "default"})
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _has_json_type(value, flag: Mapping) -> bool:
    """Whether ``value`` has ``flag``'s JSON type: a bool for a switch, a list
    of values for a repeatable flag, else one value, which is a number that
    is not a bool for a numeric flag and a string for any other."""
    if flag.get("action") == "store_true":
        return isinstance(value, bool)
    if flag.get("action") == "append":
        return isinstance(value, list) and all(_has_json_type(v, {"type": flag["type"]}) for v in value)
    kinds = {float: (int, float), int: (int,)}.get(flag.get("type"), (str,))
    return isinstance(value, kinds) and not isinstance(value, bool)


def _config_values(path: str, command: str, flags: Mapping[str, Mapping]) -> dict:
    """The JSON object in the file ``path`` as values of ``flags``, the flags
    of ``command`` by dest. Each key names one of them but ``config`` (``-``
    or ``_``), and each value has the flag's JSON type and lies within its choices."""
    import json

    with open(path) as fh:
        try:
            config = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep to decode
            raise ValueError(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    config = {key.replace("-", "_"): value for key, value in config.items()}
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {unknown}")
    if "config" in config:  # only the command line's --config is read, and it wins the merge
        raise ValueError(f"config file {path} cannot name another config file")
    for key, value in config.items():
        flag = flags[key]
        if not _has_json_type(value, flag):
            raise ValueError(f"config {key} has the wrong type: {value!r}")
        if "choices" in flag and value not in flag["choices"]:
            raise ValueError(f"config {key} must be one of {list(flag['choices'])}, got {value!r}")
        if flag.get("type") is float:
            try:
                config[key] = float(value)
            except OverflowError:  # an integer beyond the float range
                raise ValueError(f"config {key} is too large for a float: {len(str(abs(value)))} digits") from None
    return config


def main(argv: Sequence[str] | None = None) -> int:
    given = vars(build_parser().parse_args(argv))
    command = COMMANDS[given["command"]]
    flags = {_dest(name): kwargs for name, kwargs in command.flags}
    try:
        # each flag's value: the table's default, then the --config file's, then the command line's;
        # --config= and --config=-- (refused below) read no file
        config = _config_values(given["config"], given["command"], flags) if given.get("config") else {}
        for key, flag in flags.items():
            # argparse drops the -- of --flag=-- and stores an empty list, to which it applies no type
            if key in given and not _has_json_type(given[key], flag):
                raise ValueError(f"{key} must be given a value, got '--'")
        defaults = {key: flag.get("default") for key, flag in flags.items()}
        return command.handler(argparse.Namespace(**{**defaults, **config, **given}))
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
