"""Measurement for one benchmark run: closed-loop job phases, interpreter
set-up time, the Monte Carlo worker check and the tail statistic.

Machine speed. On shared machines the same code runs at speeds that differ by
up to 2x, in phases of seconds to a minute, because other tenants share the
physical cores. Every timed job and set-up launch is therefore bracketed by
two runs of a fixed reference kernel, a Python loop and small LAPACK
eigensolves, and reported at nominal speed: its wall time times
``REFERENCE_NOMINAL_S`` over the mean of the two reference times.
``REFERENCE_NOMINAL_S`` is the kernel's time on an uncontended core of the
machine the README describes, so only ratios between runs on one machine are
meaningful. Wall times are kept as well. ``bench/reference_check.py`` checks
that this scaling holds for Python bytecode, LAPACK calls, the figures and
interpreter set-up alike.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import qdcascade.cli; qdcascade.cli.build_parser()"
SETUP_REPEATS = 12
TAIL_PERCENTILE = 90
MC_CHECK_TRIALS = 1 << 21
MC_CHECK_REPEATS = 3
MAX_REPORTED_PROBLEMS = 5

REFERENCE_NOMINAL_S = 4.2e-3
_REFERENCE_MATRIX = np.diag([0.1, 0.2, 0.3, 0.4]) + 0.05


def reference_s() -> float:
    """Wall time of the reference kernel."""
    start = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    for _ in range(100):
        np.linalg.eigvalsh(_REFERENCE_MATRIX)
    return perf_counter() - start


def nominal_scale(before: float, after: float) -> float:
    """Factor from wall time to time at nominal speed, given the reference
    kernel's times just before and just after the timed work."""
    return REFERENCE_NOMINAL_S * 2.0 / (before + after)


def tail(times: list[float]) -> tuple[float, int]:
    """(value, samples above it) of the ``TAIL_PERCENTILE``th percentile of
    ``times``, interpolated between order statistics. The percentile is fixed,
    not set by the job count, so that runs that fit different numbers of jobs
    report the same point of the distribution."""
    if len(times) < 2:
        return max(times), 0
    value = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(t > value for t in times)


class Phase:
    """Closed-loop jobs: each starts when the previous one has ended.
    ``wall`` holds each job's wall time, the sum of its timed steps, and
    ``times`` the same at nominal speed; ``run`` may be called several times
    and adds to them."""

    def __init__(self, workload, ctx, seed: int, probe=None):
        self.times: list[float] = []
        self.wall: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._workload = workload
        self._ctx = ctx
        self._jobs = workload.jobs(seed)
        self._probe = probe

    def run(self, deadline: float) -> None:
        """Run jobs until ``deadline``, a ``perf_counter`` time, and at least
        one."""
        started = self.attempted
        while self.attempted == started or perf_counter() < deadline:
            job = next(self._jobs)
            self.attempted += 1
            self._job_time = 0.0
            before = reference_s()
            try:
                result = self._workload.run(job, self._ctx, self._timed)
            except Exception:
                self._fail(f"job {job!r} raised:\n{traceback.format_exc()}")
                continue
            finally:
                if self._probe:
                    self._probe.end_job()
            self.wall.append(self._job_time)
            self.times.append(self._job_time * nominal_scale(before, reference_s()))
            problems = self._workload.check(job, result, self._ctx)
            if problems:
                self._fail(f"job {job!r}: " + "; ".join(problems))

    @property
    def jobs(self) -> int:
        return len(self.times)

    @property
    def throughput(self) -> float:
        """Work units per second of job time at nominal speed."""
        return self._workload.units_per_job * len(self.times) / sum(self.times) if self.times else 0.0

    @property
    def wall_throughput(self) -> float:
        return self._workload.units_per_job * len(self.wall) / sum(self.wall) if self.wall else 0.0

    def _timed(self, fn, *args):
        """Run one step of the current job and add its wall time to the job's."""
        if self._probe:
            self._probe.tracer.recording = True
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._job_time += perf_counter() - start
            if self._probe:
                self._probe.tracer.recording = False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_PROBLEMS:
            print(f"check failed: {message}", file=sys.stderr)


def setup_once(root: Path) -> tuple[float, float]:
    """(wall seconds, seconds at nominal speed) of a fresh interpreter
    importing the CLI and building its parser."""
    before = reference_s()
    start = perf_counter()
    # no timeout: with one, subprocess polls for the child's exit with sleeps
    # of up to 50 ms, and the times come out in 50 ms steps
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, check=True, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - start
    return elapsed, elapsed * nominal_scale(before, reference_s())


def mc_worker_check(oracle, params, seed: int, workers: int) -> tuple[bool, float]:
    """Monte Carlo counts at 1 and ``workers`` workers: (bit-identical, median
    1-worker time over median ``workers`` time)."""
    times = {1: [], workers: []}
    counts = set()
    for i in range(MC_CHECK_REPEATS):
        for w in (1, workers) if i % 2 == 0 else (workers, 1):
            start = perf_counter()
            counts.add(oracle.monte_carlo_patterns(params, MC_CHECK_TRIALS, seed, workers=w).counts)
            times[w].append(perf_counter() - start)
    return len(counts) == 1, statistics.median(times[1]) / statistics.median(times[workers])
