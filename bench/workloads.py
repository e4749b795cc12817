"""The benchmark's workloads: seeded job streams, the jobs themselves (run
in-process through ``cli.main``), and the checks on their outputs.

A workload has a ``unit`` of work, ``units_per_job``, ``jobs(seed)`` (an
endless, seed-determined stream of job inputs), ``run(job, ctx, timed)``
(the job: each ``timed(fn, *args)`` call is one timed step, and the job's
time is the sum of its steps) and ``check(job, result, ctx)`` (untimed,
returns a list of problems).
``ctx`` carries the package modules and a scratch directory; jobs reach
package functions through module attributes so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import closed_form

FIG_TOL = 1e-9
SECURE_RATE_TOL = 1e-9
NEGATIVITY_FLOOR = -1e-12
SCAN_BRACKET = ("1e-3", "10")
SCAN_SWEEP_POINTS = 50
ORACLE_TRIALS = 1_000_000

# the five Alice/Eve splits of the fig4 table, as CLI mode lists
FIG4_SPLITS = (("eb", "ex"), ("eb", "lb"), ("eb", "lx"), ("eb,ex", "lb"), ("eb,ex", "lx"))


@dataclass
class Context:
    cli: ModuleType
    cascade: ModuleType
    entanglement: ModuleType
    tmp: Path


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _main(ctx: Context, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process: (exit code, its stdout). Capturing
    stdout keeps the benchmark's own last line the result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ctx.cli.main(argv)
    return code, out.getvalue()


class Figures:
    """One job is ``fig3`` plus ``fig4``: 400 grid points of pure states."""

    name = "figures"
    unit = "grid points"
    units_per_job = 2 * closed_form.FIG_POINTS

    def __init__(self, root: Path):
        self.golden = {n: (root / "tests" / "golden" / f"{n}.csv").read_bytes() for n in ("fig3", "fig4")}
        grid = closed_form.fig_grid()
        self.expected = {
            "fig3": (closed_form.FIG3_HEADER, closed_form.fig3_rows(grid)),
            "fig4": (closed_form.FIG4_HEADER, closed_form.fig4_rows(grid)),
        }

    def jobs(self, seed: int):
        # the figures take no parameters; every job is the same
        while True:
            yield None

    def run(self, job, ctx: Context, timed):
        return {n: timed(_main, ctx, [n, "--out", str(ctx.tmp / f"{n}.csv")]) for n in ("fig3", "fig4")}

    def check(self, job, result, ctx: Context) -> list[str]:
        problems = []
        for name, (code, _) in result.items():
            if code != 0:
                problems.append(f"{name} exited {code}")
                continue
            path = ctx.tmp / f"{name}.csv"
            if path.read_bytes() != self.golden[name]:
                problems.append(f"{name}.csv differs from tests/golden/{name}.csv")
            header, rows = _read_csv(path)
            want_header, want_rows = self.expected[name]
            if header != want_header or len(rows) != len(want_rows):
                problems.append(f"{name}.csv has header {header} and {len(rows)} rows")
                continue
            worst = max(abs(a - b) for got, want in zip(rows, want_rows) for a, b in zip(got, want))
            if not worst <= FIG_TOL:
                problems.append(f"{name}.csv is {worst:.3e} from the closed form")
        return problems


@dataclass(frozen=True)
class ScanDraw:
    ratio: float
    dephase: float
    alice: str
    eve: str

    def rate_args(self) -> list[str]:
        return ["--ratio", repr(self.ratio), "--alice", self.alice, "--eve", self.eve,
                "--dephase", repr(self.dephase)]


class Scan:
    """One job is one seeded parameter draw on dephased (mixed) states:
    ``optimize-dt``, a 50-point log ``sweep`` and the negativity of all seven
    channels at the optimum."""

    name = "scan"
    unit = "draws"
    units_per_job = 1

    def __init__(self, root: Path):
        pass

    def jobs(self, seed: int):
        rng = random.Random(seed)
        while True:
            # every five draws cover the five splits once, so that runs with
            # different seeds carry the same mix of splits
            for alice, eve in rng.sample(FIG4_SPLITS, len(FIG4_SPLITS)):
                yield ScanDraw(ratio=rng.uniform(0.5, 4.0), dephase=rng.uniform(0.6, 1.0), alice=alice, eve=eve)

    def run(self, draw: ScanDraw, ctx: Context, timed):
        opt, sweep = ctx.tmp / "opt.csv", ctx.tmp / "sweep.csv"
        lo, hi = SCAN_BRACKET
        codes = {
            "optimize-dt": timed(_main, ctx, ["optimize-dt", *draw.rate_args(), "--dt-min", lo, "--dt-max", hi,
                                              "--out", str(opt)]),
            "sweep": timed(_main, ctx, ["sweep", *draw.rate_args(), "--dt-min", lo, "--dt-max", hi,
                                        "--points", str(SCAN_SWEEP_POINTS), "--scale", "log", "--out", str(sweep)]),
        }
        return codes, timed(self._negativity_at_optimum, draw, ctx)

    @staticmethod
    def _negativity_at_optimum(draw: ScanDraw, ctx: Context) -> dict[int, float]:
        dt_star = _read_csv(ctx.tmp / "opt.csv")[1][0][0]
        params = ctx.cascade.DecayParams(gamma_b=draw.ratio, gamma_x=1.0, delta_t=dt_star)
        rho = ctx.cascade.dephased_density(params, draw.dephase)
        return {ch.id: ctx.entanglement.negativity(rho, ch) for ch in ctx.entanglement.enumerate_channels()}

    def check(self, draw: ScanDraw, result, ctx: Context) -> list[str]:
        codes, negativity = result
        problems = [f"{cmd} exited {code}" for cmd, (code, _) in codes.items() if code != 0]
        if problems:
            return problems
        with open(ctx.tmp / "opt.csv", newline="") as fh:
            dt_text, _, cmi_text, ghz_text = list(csv.reader(fh))[1]
        dt_star, cmi_star, cmi_ghz = float(dt_text), float(cmi_text), float(ghz_text)
        if not 1e-3 <= dt_star <= 10.0 or cmi_star < 0.0 or cmi_ghz < 0.0:
            problems.append(f"optimize-dt gave dt_star {dt_star}, cmi_star {cmi_star}, cmi_ghz {cmi_ghz}")

        header, rows = _read_csv(ctx.tmp / "sweep.csv")
        if len(rows) != SCAN_SWEEP_POINTS:
            problems.append(f"sweep gave {len(rows)} rows")
        col = {name: i for i, name in enumerate(header)}
        for ch in ctx.entanglement.enumerate_channels():
            bound = 2.0 * min(len(ch.p1), len(ch.p2))
            values = [row[col[f"mi_ch{ch.id}"]] for row in rows]
            if not all(0.0 <= v <= bound for v in values):
                problems.append(f"sweep mi_ch{ch.id} leaves [0, {bound}]: {min(values)}..{max(values)}")
        for name in ("cmi", "cmi_ghz"):
            if not all(row[col[name]] >= 0.0 for row in rows):
                problems.append(f"sweep {name} is negative")

        low = min(negativity.values())
        if not low >= NEGATIVITY_FLOOR:
            problems.append(f"negativity {low:.3e} below {NEGATIVITY_FLOOR}")

        # the printed optimum must reproduce: secure-rate at the printed dt_star
        rate = ctx.tmp / "rate.csv"
        code, _ = _main(ctx, ["secure-rate", *draw.rate_args(), "--dt", dt_text, "--out", str(rate)])
        if code != 0:
            problems.append(f"secure-rate exited {code}")
        else:
            header, rows = _read_csv(rate)
            cmi = rows[0][header.index("cmi")]
            if not abs(cmi - cmi_star) <= SECURE_RATE_TOL:
                problems.append(f"secure-rate at dt_star gives {cmi!r}, optimize-dt printed {cmi_star!r}")
        return problems


class Oracle:
    """One job is ``validate --trials 1000000`` with a derived seed at the
    ratio-2 anchor, RK4 step 1e-4 and one Monte Carlo worker."""

    name = "oracle"
    unit = "trials"
    units_per_job = ORACLE_TRIALS

    def __init__(self, root: Path):
        pass

    def jobs(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield rng.getrandbits(63)

    def run(self, mc_seed: int, ctx: Context, timed):
        return timed(_main, ctx, ["validate", "--trials", str(ORACLE_TRIALS), "--seed", str(mc_seed)])

    def check(self, mc_seed: int, result, ctx: Context) -> list[str]:
        code, text = result
        lines = text.splitlines()
        if code != 0 or not lines or lines[-1] != "result: PASS":
            return [f"validate --seed {mc_seed} exited {code}: {lines[-1] if lines else 'no output'}"]
        return []


WORKLOADS = {w.name: w for w in (Figures, Scan, Oracle)}
