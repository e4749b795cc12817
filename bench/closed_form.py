"""Closed-form reference values for the figure tables.

The cascade state alpha|0000> + beta|1001> + gamma|1111> is a superposition
of three branches with real amplitudes. The spectrum of any reduced state
follows from the branches alone: two branches that agree on the kept modes S
share a ket of rho_S, and two that agree on the complement of S are coherent
in rho_S. Branches linked by either relation form one block of rho_S:

* a block of one branch, or of branches all linked by the same relation,
  has a single eigenvalue, the sum of its weights;
* a chain a -S- m -complement- c (or the mirror) has the 2x2 Gram matrix
  [[w_a, c_a c_m], [c_a c_m, w_m + w_c]], whose eigenvalues are
  (W +- sqrt(W^2 - 4 w_a w_c)) / 2 with W = w_a + w_m + w_c.

Grouping by the complement pattern alone misses the chain and is wrong on 6
of the 15 subsets. None of this touches the package under test.
"""

from __future__ import annotations

import math
from itertools import combinations

ALL = frozenset(range(4))

# branch patterns over (early-B, early-X, late-B, late-X)
CASCADE_PATTERNS = ((0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1))
GHZ_PATTERNS = ((0, 0, 0, 0), (1, 1, 1, 1))

CHANNEL_P1 = ({0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {0, 3})

FIG_RATES = (2.0, 1.0)
FIG_POINTS = 200
FIG3_HEADER = ["gx_dt"] + [f"mi_ch{c}" for c in range(1, 8)] + ["mi_avg", "mi_ghz"]
# (column, alice, eve); Bob holds the remaining modes
FIG4_SPLITS = (
    ("cmi_ch1_eve_early_x", {0}, {1}),
    ("cmi_ch1_eve_late_b", {0}, {2}),
    ("cmi_ch1_eve_late_x", {0}, {3}),
    ("cmi_ch5_eve_late_b", {0, 1}, {2}),
    ("cmi_ch5_eve_late_x", {0, 1}, {3}),
)
FIG4_HEADER = (
    ["gx_dt"] + [c for c, _, _ in FIG4_SPLITS[:3]] + ["ghz_ch1"]
    + [c for c, _, _ in FIG4_SPLITS[3:]] + ["ghz_ch5"]
)


def branch_weights(gamma_b: float, gamma_x: float, dt: float) -> tuple[float, float, float]:
    """(alpha^2, beta^2, gamma^2) from the rate equations, in the expm1 form
    that stays accurate as gamma_x approaches gamma_b."""
    a2 = math.exp(-gamma_b * dt)
    x = (gamma_x - gamma_b) * dt
    ratio = -math.expm1(-x) / x if x != 0.0 else 1.0
    b2 = gamma_b * dt * a2 * ratio
    return a2, b2, 1.0 - a2 - b2


def shannon(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def reduced_spectrum(branches, keep) -> list[float]:
    """Eigenvalues of the reduced state on the modes ``keep`` of the pure
    state sum_i sqrt(w_i)|pattern_i>; ``branches`` is [(pattern, w_i)]."""
    keep = frozenset(keep)
    rest = ALL - keep
    live = [(pat, w) for pat, w in branches if w > 0.0]

    def on(pat, modes):
        return tuple(pat[m] for m in sorted(modes))

    def relation(i, j):
        if on(live[i][0], keep) == on(live[j][0], keep):
            return "keep"
        if on(live[i][0], rest) == on(live[j][0], rest):
            return "rest"
        return None

    n = len(live)
    links = {(i, j): relation(i, j) for i, j in combinations(range(n), 2)}
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for (i, j), rel in links.items():
        if rel is not None:
            parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)

    spectrum = []
    for members in blocks.values():
        weight = sum(live[i][1] for i in members)
        kinds = {links[pair] for pair in combinations(members, 2)} - {None}
        if len(members) == 3 and len(kinds) == 2:
            # chain: the two ends are the pair that is not linked
            ends = next(pair for pair in combinations(members, 2) if links[pair] is None)
            product = live[ends[0]][1] * live[ends[1]][1]
            root = math.sqrt(max(weight * weight - 4.0 * product, 0.0))
            low = 2.0 * product / (weight + root)  # (W - root)/2 without cancellation
            spectrum += [weight - low, low]
        else:
            spectrum.append(weight)
    return spectrum


def subset_entropy(branches, keep) -> float:
    """Von Neumann entropy (bits) of the reduced state on ``keep``."""
    if not keep:
        return 0.0
    return shannon(reduced_spectrum(branches, keep))


def cascade_branches(gamma_b: float, gamma_x: float, dt: float):
    return list(zip(CASCADE_PATTERNS, branch_weights(gamma_b, gamma_x, dt)))


def ghz_branches():
    return [(pat, 0.5) for pat in GHZ_PATTERNS]


def mutual_information(branches, p1) -> float:
    p1 = frozenset(p1)
    return subset_entropy(branches, p1) + subset_entropy(branches, ALL - p1) - subset_entropy(branches, ALL)


def conditional_mutual_information(branches, alice, eve) -> float:
    """I(A:B|E) = S(AE) + S(BE) - S(E) - S(ABE), Bob holding the rest."""
    alice, eve = frozenset(alice), frozenset(eve)
    bob = ALL - alice - eve
    return (
        subset_entropy(branches, alice | eve) + subset_entropy(branches, bob | eve)
        - subset_entropy(branches, eve) - subset_entropy(branches, ALL)
    )


def fig_grid() -> list[float]:
    """The figures' 200 log-spaced gamma_x dt values from 1e-2 to 10."""
    return [1e-2 * 1000.0 ** (k / (FIG_POINTS - 1)) for k in range(FIG_POINTS)]


def fig3_rows(grid) -> list[list[float]]:
    ghz = ghz_branches()
    mi_ghz = mutual_information(ghz, CHANNEL_P1[0])
    rows = []
    for gx_dt in grid:
        br = cascade_branches(FIG_RATES[0], FIG_RATES[1], gx_dt / FIG_RATES[1])
        mi = [mutual_information(br, p1) for p1 in CHANNEL_P1]
        rows.append([gx_dt] + mi + [sum(mi) / len(mi), mi_ghz])
    return rows


def fig4_rows(grid) -> list[list[float]]:
    ghz = ghz_branches()
    ghz_ch1 = conditional_mutual_information(ghz, {0}, {1})
    ghz_ch5 = conditional_mutual_information(ghz, {0, 1}, {2})
    rows = []
    for gx_dt in grid:
        br = cascade_branches(FIG_RATES[0], FIG_RATES[1], gx_dt / FIG_RATES[1])
        cmi = [conditional_mutual_information(br, a, e) for _, a, e in FIG4_SPLITS]
        rows.append([gx_dt] + cmi[:3] + [ghz_ch1] + cmi[3:] + [ghz_ch5])
    return rows
