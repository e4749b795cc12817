"""Check that scaling to nominal speed holds for different kinds of work.

    python3 bench/reference_check.py

Run it from the root of a checkout, on an otherwise idle machine. It
interleaves five jobs of different make-up for five minutes, times each with
the reference kernel around it as ``measure.Phase`` does, and prints, per
job, how far the per-window medians of wall time and of time at nominal speed
spread between 30 s windows. The scaling holds when every
job's nominal time stays steady while its wall time moves with the machine's
speed; a job whose nominal time drifts would be mis-measured.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from measure import nominal_scale, reference_s, setup_once  # noqa: E402
from qdcascade import cli  # noqa: E402

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(600, 16, 16)) + 1j * _RNG.normal(size=(600, 16, 16))
BATCH = _A + _A.conj().transpose(0, 2, 1)
SINGLE = BATCH[0]
SECONDS = 300.0
WINDOW = 30.0


def bytecode():
    total = 0
    for i in range(8_000_000):
        total += i * i


def lapack_single():
    for _ in range(20_000):
        np.linalg.eigvalsh(SINGLE)


def lapack_batched():
    for _ in range(40):
        np.linalg.eigvalsh(BATCH)


def main() -> int:
    root = Path.cwd()

    with tempfile.TemporaryDirectory() as tmp:
        def fig3():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["fig3", "--out", str(Path(tmp) / "fig3.csv")])

        jobs = {"python loop": bytecode, "eigvalsh, one 16x16": lapack_single,
                "eigvalsh, 600 16x16": lapack_batched, "fig3": fig3, "set-up": None}
        setup_once(root)  # compiles the bytecode
        samples = []  # (seconds since start, job, wall, nominal)
        start = perf_counter()
        while perf_counter() - start < SECONDS:
            for name, fn in jobs.items():
                at = perf_counter() - start
                if fn is None:
                    wall, nominal = setup_once(root)
                else:
                    before = reference_s()
                    t0 = perf_counter()
                    fn()
                    wall = perf_counter() - t0
                    nominal = wall * nominal_scale(before, reference_s())
                samples.append((at, name, wall, nominal))

    windows = int(samples[-1][0] // WINDOW) or 1
    print(f"{'job':22s} {'wall ms':>8s} {'wall iqr':>9s} {'wall range':>11s} {'nominal iqr':>12s} {'nominal range':>14s}")
    for name in jobs:
        medians = {"wall": [], "nominal": []}
        for w in range(windows):
            rows = [s for s in samples if s[1] == name and w * WINDOW <= s[0] < (w + 1) * WINDOW]
            if rows:
                medians["wall"].append(statistics.median(r[2] for r in rows))
                medians["nominal"].append(statistics.median(r[3] for r in rows))
        cells = []
        for values in medians.values():
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            cells += [(q3 - q1) / mid, (max(values) - min(values)) / mid]
        print(f"{name:22s} {statistics.median(medians['wall']) * 1e3:8.1f} "
              f"{cells[0]:9.1%} {cells[1]:11.1%} {cells[2]:12.1%} {cells[3]:14.1%}")
    print(f"{windows} windows of {WINDOW:g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
