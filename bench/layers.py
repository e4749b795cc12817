"""Per-layer metrics of a traced run, one layer per package module.

``LayerProbe`` owns a ``Tracer`` over the five modules plus the counters
that need a look at arguments (Monte Carlo trials, RK4 steps, objective
evaluations, distinct entropies). ``metrics(jobs)`` turns them into the
per-layer metrics, normalised per job so they do not depend on how many
jobs fit into the run.
"""

from __future__ import annotations

import math

from tracer import Tracer

TRIALS_PER_BLOCK = 1 << 16

# metric -> unit; the set a traced run prints (BENCHMARK.json per_layer)
UNITS = {
    "qmath.eig_hermitian.calls": "calls/job",
    "qmath.eig_hermitian.self_s": "s/job",
    "qmath.eig_hermitian.us_per_call": "us",
    "qmath.partial_trace.calls": "calls/job",
    "qmath.partial_trace.self_s": "s/job",
    "qmath.vn_entropy.calls": "calls/job",
    "qmath.vn_entropy.self_s": "s/job",
    "qmath.hermiticity_defect.calls": "calls/job",
    "qmath.hermiticity_defect.self_s": "s/job",
    "qmath.checks_per_entropy": "ratio",
    "entanglement.mutual_information.calls": "calls/job",
    "entanglement.mutual_information.self_s": "s/job",
    "entanglement.conditional_mutual_information.calls": "calls/job",
    "entanglement.conditional_mutual_information.self_s": "s/job",
    "entanglement.negativity.calls": "calls/job",
    "entanglement.negativity.self_s": "s/job",
    "entanglement.entropy_useful_ratio": "ratio",
    "cascade.amplitudes.calls": "calls/job",
    "cascade.amplitudes.self_s": "s/job",
    "cascade.density.calls": "calls/job",
    "cascade.density.self_s": "s/job",
    "oracle.monte_carlo_patterns.self_s": "s/job",
    "oracle.monte_carlo_patterns.ms_per_block": "ms",
    "oracle.mc.parallel_speedup": "x",
    "oracle.rate_equation_populations.steps": "steps/job",
    "oracle.rate_equation_populations.ns_per_step": "ns",
    "cli.self_s": "s/job",
    "cli.optimize_delay.objective_evals": "evals/job",
    "trace.overhead_pct": "%",
}

# functions that build the four-mode state or density report as one layer
GROUPS = {
    "cascade.final_state": "cascade.density",
    "cascade.dephased_density": "cascade.density",
    "cascade.ghz_state": "cascade.density",
}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work."""
    return num / den if den else 0.0


def _digest(matrix) -> tuple:
    return matrix.shape, hash(matrix.tobytes())


class LayerProbe:
    def __init__(self, modules):
        self.tracer = Tracer(modules, groups=GROUPS, hooks={
            "qmath.partial_trace": self._on_partial_trace,
            "qmath.vn_entropy": self._on_vn_entropy,
            "entanglement.conditional_mutual_information": self._on_cmi,
            "oracle.rate_equation_populations": self._on_rk4,
            "oracle.monte_carlo_patterns": self._on_monte_carlo,
        })
        self._reduced = {}  # id(reduced state) -> (reduced state, (state digest, kept modes))
        self._job_entropies = set()
        self.distinct_entropies = 0
        self.objective_evals = 0
        self.rk4_steps = 0
        self.mc_trials = 0

    # -- hooks: run after each recorded call ---------------------------------
    def _on_partial_trace(self, args, kwargs, result):
        rho, keep = args[0], args[2] if len(args) > 2 else kwargs["keep"]
        self._reduced[id(result)] = (result, (_digest(rho), tuple(sorted(keep))))

    def _on_vn_entropy(self, args, kwargs, result):
        rho = args[0] if args else kwargs["rho"]
        entry = self._reduced.pop(id(rho), None)
        self._job_entropies.add(entry[1] if entry else (_digest(rho), "all"))

    def _on_cmi(self, args, kwargs, result):
        if self.tracer.in_span("cli.optimize_delay"):
            self.objective_evals += 1

    def _on_rk4(self, args, kwargs, result):
        # requested steps, ceil(delta_t / step) from the call's arguments: the
        # package exposes no step count, so this assumes its fixed-step RK4
        p, step = args[0], args[1] if len(args) > 1 else kwargs["step"]
        if p.delta_t > 0.0:
            self.rk4_steps += math.ceil(p.delta_t / step)

    def _on_monte_carlo(self, args, kwargs, result):
        self.mc_trials += result.trials

    def end_job(self):
        """Close the per-job count of distinct (state, subset) entropies."""
        self.distinct_entropies += len(self._job_entropies)
        self._job_entropies.clear()
        self._reduced.clear()

    def metrics(self, jobs: int, parallel_speedup: float, overhead_pct: float) -> dict[str, float]:
        t = self.tracer
        eig, vn, herm = t.get("qmath.eig_hermitian"), t.get("qmath.vn_entropy"), t.get("qmath.hermiticity_defect")
        mc, rk4 = t.get("oracle.monte_carlo_patterns"), t.get("oracle.rate_equation_populations")
        out = {
            "qmath.eig_hermitian.us_per_call": _ratio(eig.total_s, eig.calls) * 1e6,
            "qmath.checks_per_entropy": _ratio(herm.calls, vn.calls),
            "entanglement.entropy_useful_ratio": _ratio(self.distinct_entropies, vn.calls),
            "oracle.monte_carlo_patterns.ms_per_block": _ratio(mc.self_s, self.mc_trials / TRIALS_PER_BLOCK) * 1e3,
            "oracle.mc.parallel_speedup": parallel_speedup,
            "oracle.rate_equation_populations.steps": self.rk4_steps / jobs,
            "oracle.rate_equation_populations.ns_per_step": _ratio(rk4.self_s, self.rk4_steps) * 1e9,
            "cli.self_s": t.module_self_s("cli") / jobs,
            "cli.optimize_delay.objective_evals": self.objective_evals / jobs,
            "trace.overhead_pct": overhead_pct,
        }
        for name in UNITS:
            key, _, stat = name.rpartition(".")
            if name not in out and stat in ("calls", "self_s"):
                out[name] = getattr(t.get(key), stat) / jobs
        return {name: out[name] for name in UNITS}
