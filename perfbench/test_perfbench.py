"""Tests of the benchmark's own machinery: span self time, Spark job
attribution, the output checks, and BENCHMARK.json against metrics.py.

    PYTHONPATH=src python -m pytest perfbench/ -q
"""
import json
from pathlib import Path

import pytest

from perfbench.checks import Outcome, check_bias, check_outcome, check_reservoir, eq4_hours
from perfbench.metrics import END_TO_END, PER_LAYER, ops_per_s, tail
from perfbench.run import _in_child
from perfbench.tracing import Span, Tracer, self_times
from perfbench.workloads import Op

ROOT = Path(__file__).resolve().parent.parent


class TestSelfTime:
    def test_hand_built_tree(self):
        # op [0, 10]: framework [1, 9] with children pps [2, 4],
        # annotate [4, 6] and estimate [7, 8].
        spans = [
            Span(0, "op.twcs", 0, None, 0.0, 10.0),
            Span(1, "framework", 0, 0, 1.0, 9.0),
            Span(2, "pps_draw", 0, 1, 2.0, 4.0),
            Span(3, "annotate", 0, 1, 4.0, 6.0),
            Span(4, "estimate", 0, 1, 7.0, 8.0),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 8.0)
        assert own[1] == pytest.approx(8.0 - (2.0 + 2.0 + 1.0))
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(2.0)
        assert own[4] == pytest.approx(1.0)

    def test_tracer_records_nesting_and_operation_ids(self):
        ticks = iter(range(100))
        t = Tracer(clock=lambda: float(next(ticks)))
        with t.operation("op.a"):
            with t.span("x"):
                pass
        with t.operation("op.b"):
            pass
        a, x, b = t.spans
        assert (a.parent, x.parent, b.parent) == (None, a.id, None)
        assert a.op == x.op != b.op
        assert self_times(t.spans)[a.id] == pytest.approx(a.duration - x.duration)

    def test_wrap_and_restore(self):
        class Layer:
            def work(self, v):
                return v + 1

        t = Tracer()
        t.wrap(Layer, "work", "layer")
        assert Layer().work(1) == 2
        t.restore()
        assert [s.name for s in t.spans] == ["layer"]
        assert Layer.work.__qualname__.endswith("Layer.work")
        Layer().work(1)
        assert len(t.spans) == 1


class TestSparkJobAttribution:
    # An RDD count is exactly one Spark job.
    def test_jobs_land_in_the_triggering_span(self, spark):
        sc = spark.sparkContext
        t = Tracer(sc)
        with t.operation("op.x"):
            sc.parallelize(range(10), 2).count()
            for n_jobs in (2, 1):  # two instances of one span name
                with t.span("inner"):
                    for _ in range(n_jobs):
                        sc.parallelize(range(5), 2).count()
        sc.parallelize(range(3), 2).count()  # outside every span: nobody's job
        t.resolve_jobs(t.spans)
        outer, first, second = t.spans
        assert len({outer.group, first.group, second.group}) == 3
        assert (len(outer.jobs), len(first.jobs), len(second.jobs)) == (1, 2, 1)
        all_jobs = outer.jobs + first.jobs + second.jobs
        assert len(set(all_jobs)) == 4
        assert (first.stages, first.tasks, first.failed_tasks) == (2, 4, 0)

    def test_a_second_tracer_does_not_see_the_first_ones_jobs(self, spark):
        sc = spark.sparkContext
        a, b = Tracer(sc), Tracer(sc)
        with a.span("s"):
            sc.parallelize(range(4), 2).count()
        with b.span("s"):
            sc.parallelize(range(4), 2).count()
        a.resolve_jobs(a.spans)
        b.resolve_jobs(b.spans)
        assert len(a.spans[0].jobs) == len(b.spans[0].jobs) == 1
        assert a.spans[0].jobs != b.spans[0].jobs


def _outcome(**kw):
    base = dict(
        design="twcs", mu_hat=0.9, moe=0.04, n_units=20, min_units=20, eps=0.05,
        hours=eq4_hours(20, 180), n_entities=20, n_triples=180, true_mu=0.9, m=10,
    )
    base.update(kw)
    return Outcome(**base)


class TestChecks:
    def test_a_good_outcome_passes(self):
        assert check_outcome(_outcome()) == []

    def test_eq4_uses_the_papers_costs(self):
        # 45 s per entity and 25 s per triple (Sec 7.1.3)
        assert eq4_hours(20, 180) == pytest.approx((20 * 45 + 180 * 25) / 3600)

    def test_hours_not_eq4(self):
        bad = check_outcome(_outcome(hours=_outcome().hours + 0.25))
        assert len(bad) == 1 and "Eq 4" in bad[0]

    def test_more_triples_than_m_per_entity(self):
        bad = check_outcome(_outcome(n_triples=201, hours=eq4_hours(20, 201)))
        assert len(bad) == 1 and "triples for" in bad[0]

    def test_an_entity_without_triples(self):
        assert check_outcome(_outcome(n_triples=19, hours=eq4_hours(20, 19), m=None))

    def test_moe_above_eps_at_stop(self):
        bad = check_outcome(_outcome(moe=0.07))
        assert len(bad) == 1 and "MoE" in bad[0]

    def test_stop_before_the_guard(self):
        assert check_outcome(_outcome(n_units=19))

    def test_max_units_without_convergence(self):
        assert check_outcome(_outcome(n_units=100_000, moe=0.06))

    def test_estimate_outside_unit_interval(self):
        assert check_outcome(_outcome(mu_hat=1.01))

    def test_zero_moe_passes(self):
        # The Wald collapse is reported through estimate.zero_moe_share.
        assert check_outcome(_outcome(moe=0.0, mu_hat=1.0)) == []

    def test_reservoir(self):
        assert check_reservoir(40, 40, 0) == []
        assert check_reservoir(40, 60, 20) == []
        assert check_reservoir(40, 41, 0)

    def test_bias_pooled(self):
        assert check_bias([_outcome(mu_hat=0.96), _outcome(mu_hat=0.88)], 0.05, False) == []
        assert check_bias([_outcome(mu_hat=0.97), _outcome(mu_hat=0.96)], 0.05, False)

    def test_bias_per_design_catches_one_biased_design(self):
        ops = [_outcome(design="srs", mu_hat=0.97)] + 4 * [_outcome(mu_hat=0.9)]
        assert check_bias(ops, 0.05, False) == []
        bad = check_bias(ops, 0.05, True)
        assert len(bad) == 1 and bad[0].startswith("srs:")


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail(list(range(19))) is None
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(200)))[0] == 95.0
    assert tail(list(range(1000)))[0] == 99.0


def test_ops_per_s_rebuilds_a_unit_from_medians():
    # Units of one 0.1 s and one 0.3 s operation plus 0.1 s outside them:
    # 2 operations per 0.5 s. One unit run on a stalled host does not move it.
    ops, units = [], []
    for stall in (1, 1, 1, 1, 5):
        ops += [Op("a", 0.1 * stall, None, []), Op("b", 0.3 * stall, None, [])]
        units.append((2, 0.5 * stall, 0.4 * stall))
    assert ops_per_s(ops, units) == pytest.approx(4.0)


def test_in_child_returns_the_result_or_raises_the_error():
    assert _in_child(lambda: [1, "two"]) == [1, "two"]
    with pytest.raises(ZeroDivisionError):
        _in_child(lambda: 1 / 0)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]
