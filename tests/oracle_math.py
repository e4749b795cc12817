"""Reference implementations the tests compare the package against:
Kronecker products, Shannon entropies of explicit probability vectors, the
branch populations and the eigenvalues of a 2x2 Hermitian block in
high-precision decimal arithmetic, dense dephasing, classical RK4 on the
rate equations one step at a time, the trajectory sampler's tally with each
waiting time as a quotient, and the two-pulse protocol step by step (early
window, pulse, late cascade), which must reproduce ``cascade.final_state``."""

import decimal
import math
from typing import Iterable

import numpy as np


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def binary_entropy(p: float) -> float:
    """Shannon entropy of a (p, 1-p) distribution, in bits."""
    return shannon_entropy((p, 1.0 - p))


def shannon_entropy(probs: Iterable[float]) -> float:
    """Shannon entropy of a probability vector, in bits, 0 log 0 := 0."""
    out = 0.0
    for p in probs:
        if not -1e-12 <= p <= 1.0 + 1e-12:
            raise ValueError(f"probability {p} outside [0, 1]")
        if p > 0.0:
            out -= p * math.log2(p)
    return max(0.0, out)


def branch_populations(gamma_b: float, gamma_x: float, dt: float) -> tuple[float, float, float]:
    """(alpha^2, beta^2, gamma^2) of the closed form in 60-digit decimal
    arithmetic, rounded to floats: alpha^2 = exp(-gamma_b dt),
    beta^2 = gamma_b (exp(-gamma_b dt) - exp(-gamma_x dt)) / (gamma_x - gamma_b)
    (gamma_b dt exp(-gamma_b dt) at equal rates), gamma^2 = 1 - alpha^2 - beta^2.
    The arguments are taken exactly; 60 digits absorb the cancellation of
    nearly equal rates, and decimal's exponent range the products that
    overflow a double."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        gb, gx, t = decimal.Decimal(gamma_b), decimal.Decimal(gamma_x), decimal.Decimal(dt)
        alpha2 = (-gb * t).exp()
        beta2 = gb * t * alpha2 if gb == gx else gb * (alpha2 - (-gx * t).exp()) / (gx - gb)
        return float(alpha2), float(beta2), float(1 - alpha2 - beta2)


def pair_eigenvalues(a: float, b: float, c: complex) -> tuple[float, float]:
    """Eigenvalues (larger, smaller) of the Hermitian block [[a, c], [c*, b]]
    in 60-digit decimal arithmetic, rounded to floats: the larger
    (a+b)/2 + sqrt(((a-b)/2)^2 + |c|^2), the smaller the determinant
    ab - |c|^2 over it (0 for the zero block). The entries are taken
    exactly; at 60 digits the determinant keeps some 40 digits even where
    ab and |c|^2 agree to all 16 of a double, so the smaller eigenvalue is
    accurate however far below the larger one it lies."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, b = decimal.Decimal(a), decimal.Decimal(b)
        c2 = decimal.Decimal(complex(c).real) ** 2 + decimal.Decimal(complex(c).imag) ** 2
        upper = (a + b) / 2 + (((a - b) / 2) ** 2 + c2).sqrt()
        return float(upper), float((a * b - c2) / upper) if upper else 0.0


def rk4_step_loop(gamma_b: float, gamma_x: float, delta_t: float, step: float) -> tuple[float, float, float]:
    """(P_B, P_X, P_G) after n = ceil(delta_t / step) classical RK4 steps of
    dP_B/dt = -gamma_b P_B, dP_X/dt = gamma_b P_B - gamma_x P_X from
    (1, 0, 0), taken one at a time with the four stages written out:
    the same steps ``oracle.rate_equation_populations`` takes as one power
    of the step map."""
    gb, gx = gamma_b, gamma_x
    n_steps = math.ceil(delta_t / step)
    h = delta_t / n_steps
    half_h, sixth_h = 0.5 * h, h / 6.0
    pb, px, pg = 1.0, 0.0, 0.0
    for _ in range(n_steps):
        b1, x1, g1 = -gb * pb, gb * pb - gx * px, gx * px
        sb, sx = pb + half_h * b1, px + half_h * x1
        b2, x2, g2 = -gb * sb, gb * sb - gx * sx, gx * sx
        sb, sx = pb + half_h * b2, px + half_h * x2
        b3, x3, g3 = -gb * sb, gb * sb - gx * sx, gx * sx
        sb, sx = pb + h * b3, px + h * x3
        b4, x4, g4 = -gb * sb, gb * sb - gx * sx, gx * sx
        pb += sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        px += sixth_h * (x1 + 2.0 * x2 + 2.0 * x3 + x4)
        pg += sixth_h * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
    return pb, px, pg


def divide_tally(p, trials: int, seed: int) -> tuple[int, int]:
    """(survived, late) of the rates ``p.gamma_b``, ``p.gamma_x`` and the
    delay ``p.delta_t`` over 65536-trial blocks, block k drawn from SFC64 on
    ``SeedSequence(seed, spawn_key=(k,))`` as the sampler documents its
    streams (all of t_b's uniforms, then all of t_x's), with each waiting
    time taken as the quotient t = log(1 - u) / -rate: the trajectories with
    t_b >= delta_t and those with t_b + t_x >= delta_t."""
    block = 1 << 16
    survived = late = 0
    for k in range(math.ceil(trials / block)):
        n = min(block, trials - k * block)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(k,))))
        with np.errstate(over="ignore"):  # a tiny rate's quotient is inf, the right waiting time
            t_b, t_x = (np.log(1.0 - rng.random(n)) / -rate for rate in (p.gamma_b, p.gamma_x))
        survived += int(np.count_nonzero(t_b >= p.delta_t))
        late += int(np.count_nonzero(t_b + t_x >= p.delta_t))
    return survived, late


def dephase(rho, d: float) -> np.ndarray:
    """d rho + (1 - d) diag(rho): the dense density ``rho`` with every
    coherence attenuated by d, as ``cascade.dephased_density`` defines it."""
    return d * rho + (1.0 - d) * np.diag(np.diag(rho))


# basis index helpers for the 3LS (x) early-B (x) early-X space, dims (3, 2, 2)
G, X, B = 0, 1, 2


def early_index(level: int, n_b: int, n_x: int) -> int:
    return level * 4 + n_b * 2 + n_x


def early_state(p) -> np.ndarray:
    """Joint emitter + early-mode state at the end of the first decay window
    of the rates ``p.gamma_b``, ``p.gamma_x`` and the delay ``p.delta_t``.

    alpha |B>|00> + beta |X>|10> + gamma |g>|11>, over dims (3, 2, 2), each
    amplitude the square root of its ``branch_populations`` weight.
    """
    alpha, beta, gamma = (math.sqrt(w) for w in branch_populations(p.gamma_b, p.gamma_x, p.delta_t))
    v = np.zeros(12, dtype=np.complex128)
    v[early_index(B, 0, 0)] = alpha
    v[early_index(X, 1, 0)] = beta
    v[early_index(G, 1, 1)] = gamma
    return v


def apply_second_pulse(state: np.ndarray) -> np.ndarray:
    """Swap the |g> and |B> amplitudes for every photonic configuration.

    The pulse drives the two-photon g-B resonance only; |X> amplitudes are
    untouched. Norm is preserved exactly.
    """
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    if v.shape[0] != 12:
        raise ValueError(f"expected a dimension-12 state over (3LS, early-B, early-X), got {v.shape[0]}")
    out = v.copy()
    out[0:4] = v[8:12]
    out[8:12] = v[0:4]
    return out


def complete_late_decay(state: np.ndarray) -> np.ndarray:
    """Let every ladder branch finish its cascade into the late modes.

    |g> emits nothing, |X> emits a late X photon, |B> emits both late
    photons; the emitter factor is dropped (it always ends in |g>). Maps a
    dimension-12 state onto the four-mode space (early-B, early-X, late-B,
    late-X).
    """
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    if v.shape[0] != 12:
        raise ValueError(f"expected a dimension-12 state over (3LS, early-B, early-X), got {v.shape[0]}")
    late_pattern = {G: 0b00, X: 0b01, B: 0b11}
    out = np.zeros(16, dtype=np.complex128)
    for level in (G, X, B):
        for n_b in (0, 1):
            for n_x in (0, 1):
                amp = v[early_index(level, n_b, n_x)]
                if amp != 0.0:
                    out[(n_b * 2 + n_x) * 4 + late_pattern[level]] += amp
    return out
