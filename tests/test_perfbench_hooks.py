"""The names the benchmark harness (``perfbench/``) patches in ``src/``.

``Tracer.wrap`` looks each wrapped attribute up with ``vars(owner)[attr]``,
so a refactor that drops or moves one turns ``--trace 1`` into a
KeyError; and the mc-static workload counts its operations by patching
the trial functions ``run_trials`` dispatches to. Neither needs Spark.
"""
from collections import Counter

import numpy as np
import pytest

from perfbench.tracing import Tracer
from perfbench.workloads import Evolving, McStatic, SparkStatic
from repro.core import cluster_sampling
from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.core.stratification import np_assign_stratum_by_size, np_cum_sqrt_f_boundaries
from repro.kg.generator import nell_like
from repro.sim import mc


@pytest.mark.parametrize("workload", [SparkStatic, McStatic, Evolving], ids=lambda w: w.name)
def test_install_layers_finds_every_wrapped_attribute(workload, tmp_path):
    w = workload(0, tmp_path)
    t = Tracer()
    try:
        w.install_layers(t)
        patches = list(t._patches)
        assert patches
    finally:
        t.restore()
        if workload is McStatic:
            w.close()  # undoes the trial hooks its constructor installs
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patches)


def test_run_trials_reaches_every_design_through_the_hooks(monkeypatch):
    calls: Counter = Counter()

    def counting(fn, design):
        def trial(*args, **kwargs):
            calls[design] += 1
            return fn(*args, **kwargs)

        return trial

    for d in list(mc._DESIGNS):
        monkeypatch.setitem(mc._DESIGNS, d, counting(mc._DESIGNS[d], d))
    monkeypatch.setattr(mc, "twcs_trial", counting(mc.twcs_trial, "twcs"))
    monkeypatch.setattr(
        mc, "stratified_twcs_trial", counting(mc.stratified_twcs_trial, "twcs_stratified")
    )
    pop = Population.from_synthetic(nell_like())
    strata = np_assign_stratum_by_size(pop.sizes, np_cum_sqrt_f_boundaries(pop.sizes, 2))
    for design in dict(McStatic.MIX):
        kw = {"m": 3} if design.startswith("twcs") else {}
        if design == "twcs_stratified":
            kw["strata"] = strata
        calls.clear()
        mc.run_trials(pop, design, n_trials=2, seed=1, **kw)
        assert calls[design] == 2, design


def test_mc_draws_through_the_cluster_sampling_module(monkeypatch):
    """Spark cluster designs draw in ``mc``; spark-static's ``pps_draw``
    span wraps ``cluster_sampling.weighted_cluster_draws``, so ``mc`` has
    to look that name up on the module at call time."""
    calls = Counter()
    kernel = cluster_sampling.weighted_cluster_draws

    def counting(*args, **kwargs):
        calls["pps"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cluster_sampling, "weighted_cluster_draws", counting)
    pop = Population.from_synthetic(nell_like())
    mc.twcs_trial(pop, 3, np.random.default_rng(1), EvalConfig())
    assert calls["pps"] > 0
