"""Metric definitions and their computation from operations and spans.

End-to-end metrics come from the untraced run and exist in every
workload. Each workload has a slow and a fast operation kind:

| workload     | slow_op_ms                   | fast_op_ms          | ops_per_s     |
|--------------|------------------------------|---------------------|---------------|
| spark-static | TWCS(m=10) evaluate_static   | SRS evaluate_static | evaluations/s |
| mc-static    | size-stratified TWCS trial   | SRS trial           | trials/s      |
| evolving     | RS apply_update              | SS apply_update     | ops/s (init + updates) |

ops_per_s is the number of operations in a unit (see workloads.py) over
a unit's time rebuilt from medians; see `ops_per_s`.

The report also prints them under the names of the per-workload metrics
they stand for (twcs_eval_s, srs_eval_s, mc_trials_per_s, mc_trial_ms,
rs_update_ms, ss_update_ms), with the tail percentile and sample count.

Per-layer metrics come from the traced run. Each names the end-to-end
metric and workload it should move. A workload reports every per-layer
metric; one whose layer the workload never calls reads 0.
"""
from __future__ import annotations

import statistics

import numpy as np

from perfbench.checks import design_stats
from perfbench.tracing import self_times

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("slow_op_ms", "ms", "lower", 0.25),
    ("fast_op_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_TWCS = "slow_op_ms (twcs_eval_s) on spark-static"
_SRS = "fast_op_ms (srs_eval_s) on spark-static"
_EVAL = "slow_op_ms and fast_op_ms on spark-static"
_MC = "ops_per_s (mc_trials_per_s), slow_op_ms and fast_op_ms on mc-static"
_RS = "slow_op_ms (rs_update_ms) on evolving"
_SS = "fast_op_ms (ss_update_ms) on evolving"
_STAT = "no timing metric: a statistical output of the design"

MC_DESIGNS = ("srs", "rcs", "wcs", "twcs", "twcs_stratified")
DESIGNS = MC_DESIGNS + ("rs", "ss")

PER_LAYER = [
    # name, unit, better, the end-to-end metric and workload it should move
    ("kg.materialise_s", "s", "lower", "setup_s on spark-static"),
    ("cluster_stats.calls", "count", "lower", _TWCS),
    ("cluster_stats.self_s", "s", "lower", _TWCS),
    ("pps_draw.self_s", "s", "lower", _TWCS),
    ("pps_draw.jobs", "count", "lower", _TWCS),
    ("second_stage.self_s", "s", "lower", _TWCS),
    ("srs_prefix.self_s", "s", "lower", _SRS),
    ("srs_prefix.jobs", "count", "lower", _SRS),
    ("framework.self_s", "s", "lower", _TWCS),
    ("framework.batches_per_eval", "count", "lower", _TWCS),
    ("framework.s_per_batch", "s", "lower", _TWCS),
    ("annotate.collect_s", "s", "lower", _EVAL),
    ("annotate.jobs", "count", "lower", _EVAL),
    ("annotate.tasks", "count", "lower", _EVAL),
    ("spark.jobs_per_eval", "count", "lower", _EVAL),
    ("spark.stages_per_eval", "count", "lower", _EVAL),
    ("spark.tasks_per_eval", "count", "lower", _EVAL),
    ("spark.failed_tasks", "count", "lower", _EVAL),
    *[(f"mc.{d}.trial_ms", "ms", "lower", _MC) for d in MC_DESIGNS],
    ("mc.pps_draws.calls_per_trial", "count", "lower", f"{_MC}; {_SS}"),
    ("mc.pps_draws.share", "fraction", "lower", f"{_MC}; {_SS}"),
    ("estimate.calls_per_op", "count", "lower", f"{_MC}; {_RS}; {_SS}"),
    ("estimate.share", "fraction", "lower", f"{_MC}; {_RS}; {_SS}"),
    ("stratification.build_s", "s", "lower", "setup_s on mc-static"),
    ("reservoir.insertions_per_update", "count", "lower", f"{_RS}; peak_rss_mb on evolving"),
    ("reservoir.spare_size", "count", "lower", f"{_RS}; peak_rss_mb on evolving"),
    ("reservoir.estimate_share", "fraction", "lower", _RS),
    ("ss.draws_per_update", "count", "lower", _SS),
    ("ss.strata", "count", "lower", _SS),
    *[
        (f"{stat}.{d}", unit, better, _STAT)
        for d in DESIGNS
        for stat, unit, better in (
            ("estimate.bias", "fraction", "lower"),
            ("estimate.ci_coverage", "fraction", "higher"),
            ("estimate.zero_moe_share", "fraction", "lower"),
            ("annotate.hours_per_op", "h", "lower"),
            ("annotate.triples_per_op", "count", "lower"),
            ("annotate.entities_per_op", "count", "lower"),
        )
    ],
    ("trace.overhead_share", "fraction", "lower", "none: (traced - untraced) / untraced wall time"),
    ("trace.spans_per_op", "count", "lower", "none: spans recorded per operation"),
]

# The per-workload metrics the end-to-end ones stand for, for the report:
# name, unit, op kind (None: all kinds), scale from seconds.
NAMED = {
    "spark-static": [("twcs_eval_s", "s", "twcs", 1.0), ("srs_eval_s", "s", "srs", 1.0)],
    "mc-static": [("mc_trial_ms", "ms", None, 1e3)],
    "evolving": [("rs_update_ms", "ms", "rs", 1e3), ("ss_update_ms", "ms", "ss", 1e3)],
}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(q, q-th percentile) for the highest q with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - q / 100) >= 10:
            return q, float(np.percentile(values, q))
    return None


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def ops_per_s(ops, units) -> float:
    """Operations per second over the run's mix, each at its kind's median.

    The time of an average unit is rebuilt from medians: for each of its
    operations the median time of that kind, plus the median time a unit
    spends outside its operations. A mean over the whole run would move
    with every few seconds in which the shared host runs slower.
    """
    times: dict[str, list[float]] = {}
    for op in ops:
        times.setdefault(op.kind, []).append(op.seconds)
    median = {kind: _median(xs) for kind, xs in times.items()}
    inside = sum(median[op.kind] for op in ops) / len(units)
    outside = _median([seconds - in_ops for _, seconds, in_ops in units])
    return len(ops) / len(units) / (inside + outside)


def end_to_end(wl, ops, units, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    def ms(kind):
        return 1e3 * _median([op.seconds for op in ops if op.kind == kind])

    return {
        "setup_s": setup_s,
        "slow_op_ms": ms(wl.slow),
        "fast_op_ms": ms(wl.fast),
        "ops_per_s": ops_per_s(ops, units),
        "peak_rss_mb": peak_rss_mb,
    }


def report_lines(wl, ops, units) -> list[str]:
    """The per-workload metric names, with median, tail percentile and n."""
    lines = []
    if wl.name == "mc-static":
        lines.append(
            f"  mc_trials_per_s = {ops_per_s(ops, units):.1f} 1/s"
            f" ({len(ops)} trials in {len(units)} units)"
        )
    for name, unit, kind, scale in NAMED[wl.name]:
        xs = [scale * op.seconds for op in ops if kind is None or op.kind == kind]
        t = tail(xs)
        tl = f", p{t[0]:g} = {t[1]:.4g}" if t else ", no percentile with 10 samples beyond it"
        lines.append(f"  {name} = {_median(xs):.4g} {unit} (median{tl}; n = {len(xs)})")
    return lines


class _Spans:
    """Spans of the traced operations, grouped by operation kind."""

    def __init__(self, spans):
        self.spans = spans
        self.own = self_times(spans)
        self.roots = [s for s in spans if s.op is not None and s.name.startswith("op.")]
        self.kind = {s.op: s.name[3:] for s in self.roots}

    def n_ops(self, kinds) -> int:
        return sum(1 for s in self.roots if s.name[3:] in kinds)

    def op_seconds(self, kinds) -> float:
        return sum(s.duration for s in self.roots if s.name[3:] in kinds)

    def total(self, name, kinds, value) -> float:
        """Sum of ``value(span)`` over spans called ``name`` (None: any) in
        operations of the given kinds."""
        return sum(
            value(s)
            for s in self.spans
            if (name is None or s.name == name) and self.kind.get(s.op) in kinds
        )

    def self_s(self, name, kinds) -> float:
        return self.total(name, kinds, lambda s: self.own[s.id])


def _count(s):
    return 1


def _seconds(s):
    return s.duration


def _jobs(s):
    return len(s.jobs)


def _per(total, n):
    return total / n if n else 0.0


def per_layer(wl, untraced, traced, spans, overhead_share: float) -> dict[str, float]:
    v = {name: 0.0 for name, *_ in PER_LAYER}
    sp = _Spans(spans)
    kinds = {op.kind for op in traced}
    n_ops = sp.n_ops(kinds)
    v["kg.materialise_s"] = _median(wl.setup_parts.get("kg.materialise", []))
    v["stratification.build_s"] = _median(wl.setup_parts.get("stratification", []))
    v["estimate.calls_per_op"] = _per(sp.total("estimate", kinds, _count), n_ops)
    v["estimate.share"] = _per(sp.total("estimate", kinds, _seconds), sp.op_seconds(kinds))
    v["trace.overhead_share"] = overhead_share
    v["trace.spans_per_op"] = _per(sp.total(None, kinds, _count), n_ops)

    if wl.name == "spark-static":
        tw, sr, ev = {"twcs"}, {"srs"}, {"twcs", "srs"}
        n_tw, n_sr, n_ev = sp.n_ops(tw), sp.n_ops(sr), sp.n_ops(ev)
        v["cluster_stats.calls"] = _per(sp.total("cluster_stats", tw, _count), n_tw)
        v["cluster_stats.self_s"] = _per(sp.self_s("cluster_stats", tw), n_tw)
        v["pps_draw.self_s"] = _per(sp.self_s("pps_draw", tw), n_tw)
        v["pps_draw.jobs"] = _per(sp.total("pps_draw", tw, _jobs), n_tw)
        v["second_stage.self_s"] = _per(sp.self_s("second_stage", tw), n_tw)
        v["srs_prefix.self_s"] = _per(sp.self_s("srs_prefix", sr), n_sr)
        v["srs_prefix.jobs"] = _per(sp.total("srs_prefix", sr, _jobs), n_sr)
        v["framework.self_s"] = _per(sp.self_s("framework", tw), n_tw)
        batches = sum(op.extra["batches"] for op in traced if op.kind == "twcs" and op.outcome)
        v["framework.batches_per_eval"] = _per(batches, n_tw)
        v["framework.s_per_batch"] = _per(sp.op_seconds(tw), batches)
        v["annotate.collect_s"] = _per(sp.self_s("annotate", ev), n_ev)
        v["annotate.jobs"] = _per(sp.total("annotate", ev, _jobs), n_ev)
        v["annotate.tasks"] = _per(sp.total("annotate", ev, lambda s: s.tasks), n_ev)
        v["spark.jobs_per_eval"] = _per(sp.total(None, ev, _jobs), n_ev)
        v["spark.stages_per_eval"] = _per(sp.total(None, ev, lambda s: s.stages), n_ev)
        v["spark.tasks_per_eval"] = _per(sp.total(None, ev, lambda s: s.tasks), n_ev)
        v["spark.failed_tasks"] = float(sum(s.failed_tasks for s in spans))

    if wl.name == "mc-static":
        for d in MC_DESIGNS:
            v[f"mc.{d}.trial_ms"] = 1e3 * _median([op.seconds for op in untraced if op.kind == d])
    pps = {"ss"} if wl.name == "evolving" else kinds
    v["mc.pps_draws.calls_per_trial"] = _per(sp.total("mc.pps_draws", pps, _count), sp.n_ops(pps))
    v["mc.pps_draws.share"] = _per(sp.total("mc.pps_draws", pps, _seconds), sp.op_seconds(pps))

    if wl.name == "evolving":
        rs = [op.extra for op in untraced if op.kind == "rs" and op.outcome]
        ss = [op.extra for op in untraced if op.kind == "ss" and op.outcome]
        v["reservoir.insertions_per_update"] = _per(sum(e["insertions"] for e in rs), len(rs))
        v["reservoir.spare_size"] = _per(sum(e["spare"] for e in rs), len(rs))
        v["reservoir.estimate_share"] = _per(
            sp.total("reservoir.estimate", {"rs"}, _seconds), sp.op_seconds({"rs"})
        )
        v["ss.draws_per_update"] = _per(sum(e["draws"] for e in ss), len(ss))
        v["ss.strata"] = _per(sum(e["strata"] for e in ss), len(ss))

    stats = design_stats([op.outcome for op in untraced if op.outcome])
    for d, st in stats.items():
        if d in DESIGNS:
            for stat, key in (
                ("estimate.bias", "bias"),
                ("estimate.ci_coverage", "ci_coverage"),
                ("estimate.zero_moe_share", "zero_moe_share"),
                ("annotate.hours_per_op", "hours_per_op"),
                ("annotate.triples_per_op", "triples_per_op"),
                ("annotate.entities_per_op", "entities_per_op"),
            ):
                v[f"{stat}.{d}"] = st[key]
    return v
