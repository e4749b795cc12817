"""Run the benchmark over several seeds and write a results file.

    python3 bench/record.py --out bench/results/BENCH_<name>.json

Run it from the root of a checkout. For every workload of BENCHMARK.json it
makes ten untraced runs (seeds 1..10) and one traced run, each as its own
``bench/run.py`` process with the ``run_seconds`` of BENCHMARK.json, and
writes every run's result and metadata plus, per metric, the median, the
quartiles and their distance as a share of the median (the spread).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, meta, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), **json.loads(meta)}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out[name] = entry
    return out


def main(argv=None) -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    report = {"run_seconds": config["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        untraced = []
        for seed in range(1, RUNS + 1):
            untraced.append(run_once(workload, seed, config["run_seconds"], 0))
            print(workload, seed, {k: round(v["value"], 6) for k, v in untraced[-1]["metrics"].items()}, flush=True)
        traced = run_once(workload, 1, config["run_seconds"], 1)
        report["workloads"][workload] = {
            "end_to_end": summarize(untraced),
            "per_layer": summarize([traced]),
            "runs": untraced + [traced],
        }
        for name, entry in report["workloads"][workload]["end_to_end"].items():
            print(f"  {name}: median {entry['median']:.6g} spread {entry.get('spread')}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
