"""qdcascade benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {figures,scan,oracle} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
Jobs run in-process through ``qdcascade.cli.main`` in a closed loop (the
next job starts when the previous one ends) for ``--seconds``, and every
job's output is checked. The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.

--trace 0 prints the end-to-end metrics, measured untraced, with twelve
set-up launches spread over the run. Times are at nominal machine speed (see
``measure.py``); wall times are in the metadata. --trace 1 spends
half the time untraced and half with every public function of the package's
modules wrapped by a timer, and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

REQUIRED = ("src/qdcascade/cli.py", "tests/golden/fig3.csv", "tests/golden/fig4.csv")

UNITS = {
    "setup_s": "s",
    "throughput": "1/s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("figures", "scan", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_facts(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {"git_rev": rev, "src_sha256": digest.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a qdcascade checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # native thread pools are sized when numpy loads: pin them so that the
    # load stays within min(2, nproc) threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    load_at_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(2, nproc)
    inherited_threads = os.environ.get("CASCADE_THREADS")
    os.environ["CASCADE_THREADS"] = "1"  # the CLI default; jobs use one Monte Carlo worker
    sys.path.insert(0, str(root / "src"))

    import numpy
    from qdcascade import cascade, cli, entanglement, oracle, qmath
    from layers import UNITS as LAYER_UNITS, LayerProbe
    from measure import SETUP_REPEATS, TAIL_PERCENTILE, Phase, mc_worker_check, setup_once, tail
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload](root)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "unit": workload.unit, "units_per_job": workload.units_per_job,
        "nproc": nproc, "workers": workers, "loadavg_at_start": load_at_start,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "CASCADE_THREADS": inherited_threads, **source_facts(root),
    }
    correct = True
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        ctx = Context(cli=cli, cascade=cascade, entanglement=entanglement, tmp=Path(tmp))
        if args.trace == 0:
            # set-up is timed between slices of the job phase, so that it
            # sees the same mix of machine load as the jobs
            setup_once(root)  # untimed: compiles the bytecode
            phase = Phase(workload, ctx, args.seed)
            setup_wall, setup_times = [], []
            start = perf_counter()
            for i in range(1, SETUP_REPEATS + 1):
                phase.run(start + args.seconds * i / SETUP_REPEATS)
                wall, nominal = setup_once(root)
                setup_wall.append(wall)
                setup_times.append(nominal)
            phases = [phase]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            probe = LayerProbe([qmath, cascade, entanglement, oracle, cli])
            untraced = Phase(workload, ctx, args.seed)
            untraced.run(perf_counter() + args.seconds / 2)
            originals = {m: dict(vars(m)) for m in probe.tracer.modules}
            traced = Phase(workload, ctx, args.seed, probe=probe)
            with probe.tracer:
                traced.run(perf_counter() + args.seconds / 2)
            restored = all(vars(m)[k] is v for m, saved in originals.items() for k, v in saved.items())
            if not restored:
                print("check failed: traced module attributes were not restored", file=sys.stderr)
                correct = False
            phases = [untraced, traced]

        params = cascade.DecayParams(gamma_b=cli.DEFAULT_RATIO, gamma_x=cli.DEFAULT_GAMMA_X, delta_t=cli.DEFAULT_DT)
        identical, speedup = mc_worker_check(oracle, params, args.seed, workers)
        if not identical:
            print(f"check failed: Monte Carlo counts differ between 1 and {workers} workers", file=sys.stderr)
            correct = False
    with contextlib.suppress(OSError):  # another run may still be using it
        scratch.rmdir()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    meta.update({
        "jobs": [p.jobs for p in phases],
        "job_s_deciles": [statistics.quantiles(p.times, n=10) if len(p.times) > 1 else p.times for p in phases],
        "wall_job_s_deciles": [statistics.quantiles(p.wall, n=10) if len(p.wall) > 1 else p.wall for p in phases],
        "throughput": [p.throughput for p in phases],
        "wall_throughput": [p.wall_throughput for p in phases],
        "mc_workers_identical": identical, "mc_parallel_speedup": speedup,
        "fail_rate": failed / attempted,
    })
    if args.trace == 0:
        value, beyond = tail(phases[0].times)
        meta["setup_s"] = setup_times
        meta["setup_s_wall"] = setup_wall
        meta["job_s_tail"] = {"percentile": TAIL_PERCENTILE, "samples": len(phases[0].times), "beyond": beyond}
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput": phases[0].throughput,
            "job_s_tail": value,
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
    else:
        overhead_pct = 100.0 * (untraced.throughput - traced.throughput) / untraced.throughput
        meta["trace_overhead"] = {"throughput_delta": traced.throughput - untraced.throughput, "pct": overhead_pct}
        metrics = probe.metrics(traced.jobs, speedup, overhead_pct)
        units = LAYER_UNITS
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
