"""Analytics-independent validators of the early-window branch probabilities.

Two routes that never touch the closed-form amplitude expressions:

* a fourth-order Runge-Kutta integration of the classical rate equations
  for the ladder populations: the equations are linear, so one classical
  RK4 step is the matrix I + D with D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
  and its n steps are (I + D)^n, taken by binary powering with I kept apart
  (each squaring is D -> 2D + D^2) in O(log n) 3x3 products, and
* a quantum-jump Monte Carlo sampler of the full two-pulse protocol: both
  emissions wait exponential times t = log(1 - u) / -rate for uniforms u,
  the pulse applies the g<->B swap, and each trajectory ends in one of three
  branches, a four-bit emission pattern (early-B, early-X, late-B, late-X).
  The sampler counts two events, survived and late, on the logs log(1 - u)
  against rate-scaled thresholds, with no quotient, in two buffers each
  worker reuses across blocks; the three branch tallies follow from them.

Both are deterministic: block k of the sampler draws from SFC64 seeded by
``SeedSequence(seed, spawn_key=(k,))``, numpy's k-th spawned child of the
non-negative seed, taken whole: two (seed, block) pairs never share seed
material, their streams are independent as numpy documents spawned children
to be, and totals do not depend on how many workers run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .cascade import DecayParams, _int_text

POPULATION_SUM_ATOL = 1e-9
TRIALS_PER_BLOCK = 1 << 16
MAX_TRIALS = 10**10  # about two minutes of one worker's blocks

PATTERN_SURVIVED = 0b0000   # swapped B -> g at the pulse, no photons at all
PATTERN_SPLIT = 0b1001      # early B photon, late X photon
PATTERN_FULL_EARLY = 0b1111 # full early cascade, re-excited, full late cascade
IDEAL_PATTERNS = (PATTERN_SURVIVED, PATTERN_SPLIT, PATTERN_FULL_EARLY)


@dataclass(frozen=True)
class Populations:
    """Ladder level occupations (biexciton, exciton, ground)."""

    p_b: float
    p_x: float
    p_g: float

    def __post_init__(self):
        for name, value in (("p_b", self.p_b), ("p_x", self.p_x), ("p_g", self.p_g)):
            if not -POPULATION_SUM_ATOL <= value <= 1.0 + POPULATION_SUM_ATOL:  # a NaN fails too
                raise ValueError(f"{name} outside [0, 1]: {value}")
        total = self.p_b + self.p_x + self.p_g
        if not abs(total - 1.0) <= POPULATION_SUM_ATOL:
            raise ValueError(f"populations must sum to 1, got {total:.12g}")


@dataclass(frozen=True)
class PatternCounts:
    """Tallies of the three branches in ``IDEAL_PATTERNS`` order, none negative; the trials are their sum."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != len(IDEAL_PATTERNS):
            raise ValueError("need one counter per branch pattern")
        if min(self.counts) < 0:
            raise ValueError(f"pattern counts must be non-negative, got {min(self.counts)}")

    @property
    def trials(self) -> int:
        return sum(self.counts)

    def support(self) -> tuple[int, ...]:
        return tuple(pattern for pattern, n in zip(IDEAL_PATTERNS, self.counts) if n > 0)


def rate_equation_populations(p: DecayParams, step: float) -> Populations:
    """Integrate dP_B/dt = -gamma_b P_B, dP_X/dt = gamma_b P_B - gamma_x P_X
    from (1, 0, 0) to t = delta_t with n = ceil(delta_t / step) classical RK4
    steps, taken at once as the n-th power of the one-step map."""
    # RK4's real stability interval ends at -2.785, so no step above 2.78 / rate
    # is stable: where dt over that step is not finite, no finite count of stable steps spans dt
    rate = max(p.gamma_b, p.gamma_x)
    if not math.isfinite(p.delta_t / (2.78 / rate)):
        raise ValueError(f"dt * max(gamma_b, gamma_x) / 2.78 must be finite, got {p.delta_t} * {rate} / 2.78")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if p.delta_t == 0.0:
        return Populations(1.0, 0.0, 0.0)
    if step > p.delta_t / 10.0:
        raise ValueError(f"step must be at most dt / 10, got {step} for dt {p.delta_t}")
    if not math.isfinite(p.delta_t / step):
        raise ValueError(f"step must be coarse enough for a finite dt / step, got {step} for dt {p.delta_t}")

    gb, gx = p.gamma_b, p.gamma_x
    n_steps = math.ceil(p.delta_t / step)
    eye = np.eye(3)
    # one RK4 step is I + d with d = a + a^2/2 + a^3/6 + a^4/24. Binary powering
    # keeps I apart so the small d is never rounded into it: total is
    # (I + d)^k - I over the bits taken so far, and squaring maps d to 2d + d^2
    total = np.zeros((3, 3))
    # an overflowing h A or an unstable step gives populations outside [0, 1], inf or NaN, which Populations refuses
    with np.errstate(over="ignore", invalid="ignore"):
        a = (p.delta_t / n_steps) * np.array([[-gb, 0.0, 0.0], [gb, -gx, 0.0], [0.0, gx, 0.0]])  # h A
        d = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
        while n_steps:
            if n_steps & 1:
                total += d + total @ d
            d = 2.0 * d + d @ d
            n_steps >>= 1
    pb, px, pg = (total[:, 0] + (1.0, 0.0, 0.0)).tolist()
    try:
        return Populations(pb, px, pg)
    except ValueError as exc:
        raise ValueError(f"step must be stable for RK4, got {step}: {exc}") from None


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The stream of block ``block_index``: SFC64 on the child that
    ``SeedSequence(seed).spawn(n)[block_index]`` gives."""
    entropy = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.SFC64(entropy))


def _tally_blocks(p: DecayParams, trials: int, seed: int, first: int, stride: int) -> tuple[int, int]:
    """(survived, late) over the blocks first, first + stride, ... of ``trials``:
    the trajectories with t_b >= delta_t and those with t_b + t_x >= delta_t,
    where t = log(1 - u) / -rate. Both events are counted on the logs L, with
    no quotient: L_b <= -gamma_b delta_t, and, scaled by the slower rate,
    L_fast (slow / fast) + L_slow <= -slow delta_t."""
    log_b, log_x = np.empty((2, min(TRIALS_PER_BLOCK, trials)))
    # slow / fast <= 1 and slow delta_t <= gamma_x delta_t (finite by DecayParams)
    # cannot overflow; a gamma_b delta_t that does makes its threshold -inf: no survivors
    slow, fast = sorted((p.gamma_b, p.gamma_x))
    survived = late = 0
    for k in range(first, math.ceil(trials / TRIALS_PER_BLOCK), stride):
        n = min(TRIALS_PER_BLOCK, trials - k * TRIALS_PER_BLOCK)
        b, x, rng = log_b[:n], log_x[:n], _block_rng(seed, k)
        for u in (b, x):
            # inverse CDF: u = k 2^-53 in [0, 1) makes 1 - u exact and never 0, so log(1 - u) is finite
            np.subtract(1.0, rng.random(n, out=u), out=u)
            np.log(u, out=u)
        survived += int(np.count_nonzero(b <= -p.gamma_b * p.delta_t))
        faster, slower = (b, x) if p.gamma_b >= p.gamma_x else (x, b)
        np.multiply(faster, slow / fast, out=faster)
        late += int(np.count_nonzero(np.add(faster, slower, out=faster) <= -slow * p.delta_t))
    return survived, late


def _worker_count(workers: int | None, n_blocks: int) -> int:
    """``workers``, else ``CASCADE_THREADS`` (default 1), capped at ``n_blocks``
    and at the CPUs this process may run on."""
    if workers is None:
        text = os.environ.get("CASCADE_THREADS", "1") or "1"
        try:
            workers = int(text)
        except ValueError:
            raise ValueError(f"CASCADE_THREADS must be an integer, got {text!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers, n_blocks, cpus))


def monte_carlo_patterns(
    p: DecayParams, trials: int, seed: int, workers: int | None = None
) -> PatternCounts:
    """Sample the two-pulse protocol ``trials`` times and tally its three branches.

    The trials are split into fixed-size blocks, each with its own derived
    stream, so the result is a function of (params, trials, seed) only --
    bit-identical for any worker count.

    The pulse at delta_t dumps a trajectory still in B to g (SURVIVED), lets
    one in X emit its photon late (SPLIT) and re-excites one in g for a full
    late cascade (FULL_EARLY); as t_x >= 0, survivors are late too, so SPLIT
    is late - survived.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {_int_text(trials)}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {_int_text(trials)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {_int_text(seed)}")
    workers = _worker_count(workers, math.ceil(trials / TRIALS_PER_BLOCK))
    if workers == 1:
        tallies = [_tally_blocks(p, trials, seed, 0, 1)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a multi-worker run pays this import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(lambda w: _tally_blocks(p, trials, seed, w, workers), range(workers)))
    survived, late = (sum(column) for column in zip(*tallies))
    return PatternCounts((survived, late - survived, trials - late))
