"""Tests of the benchmark itself: its closed-form oracle, the tracer's
clean-up, the seeded job streams and the tail statistic.

    python -m pytest bench/tests -q
"""

import itertools
import math
import time
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import closed_form  # noqa: E402
import measure  # noqa: E402
from layers import UNITS, LayerProbe  # noqa: E402
from qdcascade import cascade, cli, entanglement, oracle, qmath  # noqa: E402
from tracer import Tracer, public_functions  # noqa: E402
from workloads import Oracle, Scan  # noqa: E402

ANCHOR = (2.0, 1.0, math.log(2.0) / 2.0)  # alpha^2 = 1/2
SUBSETS = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]
MODULES = [qmath, cascade, entanglement, oracle, cli]


def test_closed_form_matches_vn_entropy_at_anchor():
    rho = qmath.density_from_state(cascade.final_state(cascade.DecayParams(*ANCHOR)))
    branches = closed_form.cascade_branches(*ANCHOR)
    assert len(SUBSETS) == 15
    for keep in SUBSETS:
        want = qmath.vn_entropy(qmath.partial_trace(rho, cascade.FOUR_MODE_DIMS, keep))
        assert closed_form.subset_entropy(branches, keep) == pytest.approx(want, abs=1e-12), keep


def test_closed_form_chain_spectrum():
    # {early-X, late-B}: 0000 and 1001 agree on it, 1001 and 1111 on its complement
    branches = closed_form.cascade_branches(*ANCHOR)
    a2, _, g2 = (w for _, w in branches)
    root = math.sqrt(1.0 - 4.0 * a2 * g2)
    assert sorted(closed_form.reduced_spectrum(branches, {1, 2})) == pytest.approx([(1 - root) / 2, (1 + root) / 2])


def test_closed_form_weights_near_degenerate_rates():
    a2, b2, g2 = closed_form.branch_weights(1.0, 1.0 + 2e-9, 0.7)
    assert b2 == pytest.approx(0.7 * math.exp(-0.7), rel=1e-8)
    assert a2 + b2 + g2 == pytest.approx(1.0, abs=1e-15)


def test_tracer_restores_every_attribute(tmp_path):
    before = {m: dict(vars(m)) for m in MODULES}
    probe = LayerProbe(MODULES)
    with probe.tracer:
        assert qmath.vn_entropy is not before[qmath]["vn_entropy"]
        probe.tracer.recording = True
        cli.main(["secure-rate", "--alice", "eb", "--eve", "ex", "--out", str(tmp_path / "rate.csv")])
        probe.tracer.recording = False
        probe.end_job()
    for module, saved in before.items():
        assert vars(module) == saved, module.__name__
    assert probe.tracer.get("entanglement.conditional_mutual_information").calls == 2
    assert probe.tracer.get("qmath.vn_entropy").calls == 10
    assert probe.distinct_entropies == 10  # five subsets of two states


def test_tracer_restores_after_a_failure():
    before = dict(vars(qmath))
    with pytest.raises(ValueError):
        with Tracer([qmath]) as tracer:
            tracer.recording = True
            qmath.vn_entropy([[2.0]])
    assert vars(qmath) == before
    assert tracer.get("qmath.vn_entropy").calls == 1


def test_tracer_self_time_excludes_children():
    with Tracer([qmath]) as tracer:
        tracer.recording = True
        qmath.vn_entropy([[1.0]])
    vn, eig = tracer.get("qmath.vn_entropy"), tracer.get("qmath.eig_hermitian")
    assert vn.calls == eig.calls == 1
    assert vn.self_s == pytest.approx(vn.total_s - eig.total_s - tracer.get("qmath.require_density_matrix").total_s)


def test_layer_metrics_cover_every_module():
    assert {name.split(".", 1)[0] for name in UNITS} >= {"qmath", "cascade", "entanglement", "oracle", "cli"}
    assert "main" in public_functions(cli) and "_cmd_fig3" not in public_functions(cli)


@pytest.mark.parametrize("workload", [Scan, Oracle])
def test_job_streams_follow_the_seed(workload):
    w = workload(ROOT)
    first = list(itertools.islice(w.jobs(7), 20))
    assert first == list(itertools.islice(w.jobs(7), 20))
    assert first != list(itertools.islice(w.jobs(8), 20))


def test_scan_draws_stay_in_range():
    for draw in itertools.islice(Scan(ROOT).jobs(1), 200):
        assert 0.5 <= draw.ratio <= 4.0 and 0.6 <= draw.dephase <= 1.0
        assert (draw.alice, draw.eve) in {("eb", "ex"), ("eb", "lb"), ("eb", "lx"), ("eb,ex", "lb"), ("eb,ex", "lx")}


def test_tail_is_the_90th_percentile_whatever_the_job_count():
    assert measure.tail([float(i) for i in range(1, 102)]) == (91.0, 10)
    assert measure.tail([float(i) for i in range(1, 22)]) == (19.0, 2)
    assert measure.tail([3.0]) == (3.0, 0)



class _SleepWorkload:
    units_per_job = 10

    def jobs(self, seed):
        while True:
            yield seed

    def run(self, job, ctx, timed):
        return timed(time.sleep, 0.01)

    def check(self, job, result, ctx):
        return []


def test_phase_scales_job_time_by_the_reference_around_it(monkeypatch):
    # a machine at half speed: the reference kernel takes twice its nominal time
    monkeypatch.setattr(measure, "reference_s", lambda: 2.0 * measure.REFERENCE_NOMINAL_S)
    phase = measure.Phase(_SleepWorkload(), None, seed=1)
    phase.run(deadline=0.0)
    assert phase.jobs == 1 and phase.wall[0] >= 0.01
    assert phase.times[0] == pytest.approx(phase.wall[0] / 2.0)
    assert phase.throughput == pytest.approx(10 / phase.times[0])
