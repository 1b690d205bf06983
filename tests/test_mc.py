"""Tests for the Monte-Carlo simulation layer (repro.sim.mc)."""
import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig, EvalResult
from repro.core.stats import Estimate
from repro.core.stratification import (
    np_assign_stratum_by_size,
    np_assign_stratum_oracle,
    np_cum_sqrt_f_boundaries,
)
from repro.kg.generator import movie_like, nell_like, yago_like
from repro.sim import mc


@pytest.fixture(scope="module")
def nell_pop():
    return Population.from_synthetic(nell_like())


@pytest.fixture(scope="module")
def yago_pop():
    return Population.from_synthetic(yago_like())


@pytest.fixture
def rng():
    return np.random.default_rng(0)


CFG = EvalConfig()


class TestSrsTrial:
    def test_result_consistency(self, nell_pop, rng):
        t = mc.srs_trial(nell_pop, rng, CFG)
        assert t.n_triples == t.n_draws
        assert t.n_entities <= t.n_triples
        assert 0 <= t.mu_hat <= 1
        assert t.hours == pytest.approx((t.n_entities * 45 + t.n_triples * 25) / 3600)

    def test_stops_at_threshold(self, nell_pop, rng):
        t = mc.srs_trial(nell_pop, rng, CFG)
        assert t.stop_reason == "moe"
        assert t.moe <= CFG.eps

    def test_census_on_tiny_population(self, rng):
        pop = Population(np.arange(3), np.array([2, 2, 2]), np.array([2, 1, 0]))
        t = mc.srs_trial(pop, rng, CFG)
        assert t.stop_reason == "exhausted"
        assert t.n_triples == 6
        assert t.mu_hat == pytest.approx(0.5)

    def test_unbiased_over_trials(self, nell_pop):
        s = mc.run_trials(nell_pop, "srs", n_trials=300, seed=5)
        se = s.mu_sd / np.sqrt(s.n_trials)
        # Early stopping makes iterative SRS only approximately unbiased;
        # the paper's own Table 5 deviations are of this size (<1.5%).
        assert abs(s.mu_mean - nell_pop.mu) < max(5 * se, 0.02)


class TestPpsDraws:
    def test_frequencies_proportional_to_size(self, rng):
        pop = Population(np.arange(3), np.array([1, 3, 6]), np.array([1, 3, 6]))
        draws = mc._pps_draws(pop, 30000, rng)
        freq = np.bincount(draws, minlength=3) / 30000
        assert np.allclose(freq, [0.1, 0.3, 0.6], atol=0.01)


class TestTwcsTrial:
    def test_second_stage_cap(self, nell_pop, rng):
        t = mc.twcs_trial(nell_pop, 2, rng, CFG)
        assert t.n_triples <= 2 * t.n_draws
        assert t.n_entities == t.n_draws

    def test_wcs_annotates_full_clusters(self, nell_pop, rng):
        t = mc.wcs_trial(nell_pop, rng, CFG)
        assert t.n_triples >= t.n_draws  # all triples of each draw

    @pytest.mark.parametrize("design,kw", [("twcs", {"m": 3}), ("wcs", {})])
    def test_unbiased_over_trials(self, nell_pop, design, kw):
        s = mc.run_trials(nell_pop, design, n_trials=300, seed=6, **kw)
        se = s.mu_sd / np.sqrt(s.n_trials)
        assert abs(s.mu_mean - nell_pop.mu) < max(5 * se, 0.02)

    def test_proposition2_m1_matches_srs_statistics(self, nell_pop):
        """TWCS(m=1) and SRS have the same per-unit variance, so with the
        same stopping rule they need a similar number of annotations."""
        cfg = EvalConfig(batch_triples=20, batch_clusters=20, min_triples=20, min_draws=20)
        twcs1 = mc.run_trials(nell_pop, "twcs", m=1, n_trials=300, seed=7, cfg=cfg)
        srs = mc.run_trials(nell_pop, "srs", n_trials=300, seed=8, cfg=cfg)
        assert twcs1.triples_mean == pytest.approx(srs.triples_mean, rel=0.15)
        assert twcs1.mu_mean == pytest.approx(srs.mu_mean, abs=0.02)


class TestRcsTrial:
    def test_unbiased_and_expensive(self, nell_pop):
        s = mc.run_trials(nell_pop, "rcs", n_trials=60, seed=9)
        assert abs(s.mu_mean - nell_pop.mu) < 0.03
        twcs = mc.run_trials(nell_pop, "twcs", m=3, n_trials=60, seed=9)
        assert s.hours_mean > 2 * twcs.hours_mean  # Table 5 ordering

    def test_draws_bounded_by_population(self, nell_pop, rng):
        t = mc.rcs_trial(nell_pop, rng, CFG)
        assert t.n_draws <= nell_pop.n_clusters
        tiny = Population(np.arange(3), np.array([2, 2, 2]), np.array([2, 1, 0]))
        t = mc.rcs_trial(tiny, rng, CFG)
        assert t.stop_reason == "exhausted"
        assert (t.n_draws, t.n_triples, t.mu_hat) == (3, 6, pytest.approx(0.5))


class TestStratifiedTrial:
    def test_unbiased(self, nell_pop):
        strata = np_assign_stratum_by_size(
            nell_pop.sizes, np_cum_sqrt_f_boundaries(nell_pop.sizes, 2)
        )
        s = mc.run_trials(
            nell_pop, "twcs_stratified", m=3, strata=strata, n_trials=300, seed=10
        )
        se = s.mu_sd / np.sqrt(s.n_trials)
        assert abs(s.mu_mean - nell_pop.mu) < max(5 * se, 0.02)

    def test_oracle_strata_cut_cost(self, nell_pop):
        """Table 7: oracle stratification beats plain TWCS decisively."""
        strata = np_assign_stratum_oracle(nell_pop.cluster_accuracies, 2)
        strat = mc.run_trials(
            nell_pop, "twcs_stratified", m=3, strata=strata, n_trials=150, seed=11
        )
        plain = mc.run_trials(nell_pop, "twcs", m=3, n_trials=150, seed=11)
        assert strat.hours_mean < plain.hours_mean

    def test_requires_strata_and_m(self, nell_pop):
        with pytest.raises(ValueError):
            mc.run_trials(nell_pop, "twcs_stratified", n_trials=1, seed=1, m=3)
        with pytest.raises(ValueError):
            mc.run_trials(nell_pop, "twcs", n_trials=1, seed=1)


class TestDesignOrdering:
    def test_table5_cost_ordering_on_nell(self, nell_pop):
        """TWCS(m*) <= WCS <= RCS in cost; all unbiased (Table 5)."""
        twcs = mc.run_trials(nell_pop, "twcs", m=2, n_trials=120, seed=12)
        wcs = mc.run_trials(nell_pop, "wcs", n_trials=120, seed=12)
        rcs = mc.run_trials(nell_pop, "rcs", n_trials=30, seed=12)
        assert twcs.hours_mean <= wcs.hours_mean * 1.05
        assert wcs.hours_mean < rcs.hours_mean

    def test_yago_converges_fast(self, yago_pop):
        """Highly accurate KGs need only ~20-40 triples (Sec 7.2.1)."""
        s = mc.run_trials(yago_pop, "twcs", m=2, n_trials=120, seed=13)
        assert s.triples_mean < 80

    def test_run_trials_unknown_design(self, nell_pop):
        with pytest.raises(ValueError):
            mc.run_trials(nell_pop, "bogus", n_trials=1, seed=1)

    @pytest.mark.parametrize("design", ["twcs", "twcs_stratified"])
    def test_run_trials_rejects_m_below_one(self, nell_pop, design):
        """A zero second-stage size annotates nothing per draw (s = 0)."""
        strata = np.zeros(nell_pop.n_clusters, dtype=int)
        with pytest.raises(ValueError, match="m >= 1"):
            mc.run_trials(nell_pop, design, m=0, strata=strata, n_trials=1, seed=1)

    @pytest.mark.parametrize(
        "design,stray",
        [("srs", "m"), ("rcs", "m"), ("wcs", "m"), ("srs", "strata"), ("twcs", "strata")],
    )
    def test_run_trials_rejects_arguments_the_design_ignores(self, nell_pop, design, stray):
        """A stray ``m`` or ``strata`` would run another design than asked."""
        kw = {"m": 3} if design == "twcs" else {}
        kw[stray] = 3 if stray == "m" else np.zeros(nell_pop.n_clusters, dtype=int)
        with pytest.raises(ValueError, match="takes no m" if stray == "m" else "strata"):
            mc.run_trials(nell_pop, design, n_trials=1, seed=1, **kw)

    def test_run_trials_rejects_no_trials(self, nell_pop):
        """No trials leave nothing to summarise (np.percentile of nothing)."""
        with pytest.raises(ValueError, match="n_trials"):
            mc.run_trials(nell_pop, "srs", n_trials=0, seed=1)


class TestSummary:
    def test_from_trials_statistics(self):
        trials = [
            EvalResult(Estimate(0.8, 0.0006, 10, 0.05), 1.0, 10, 20, 1, "moe", 10),
            EvalResult(Estimate(0.9, 0.0006, 20, 0.05), 2.0, 20, 40, 1, "moe", 20),
        ]
        s = mc.TrialsSummary.from_trials("x", trials)
        assert s.mu_mean == pytest.approx(0.85)
        assert s.hours_mean == pytest.approx(1.5)
        assert s.triples_mean == pytest.approx(30)
        assert s.n_trials == 2
