"""Tests for stratification (Sec 5.3): cum-sqrt-F boundaries, stratum
assignment, strata weights, and variance reduction."""
import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.core.stratification import (
    np_assign_stratum_by_size,
    np_assign_stratum_oracle,
    np_cum_sqrt_f_boundaries,
)
from repro.kg.generator import movie_like
from repro.sim import mc


@pytest.fixture(scope="module")
def movie_small():
    return movie_like(sf=0.003)


class TestBoundaries:
    def test_increasing_and_inf_terminated(self, movie_small):
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 4)
        assert (np.diff(b[:-1]) > 0).all()
        assert b[-1] == float("inf")

    def test_single_stratum(self, movie_small):
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 1)
        assert len(b) == 1 and b[0] == float("inf")

    def test_balances_sqrt_frequency_mass(self):
        # Uniform histogram over sizes 1..100: cuts land near 50.
        b = np_cum_sqrt_f_boundaries(np.arange(1, 101), 2)
        assert 40 <= b[0] <= 60

    def test_degenerate_fewer_sizes_than_strata(self):
        b = np_cum_sqrt_f_boundaries(np.array([1] * 5 + [2] * 5), 5)
        assert b[-1] == float("inf")
        assert (np.diff(b[:-1]) > 0).all()

    def test_rejects_zero_strata(self):
        with pytest.raises(ValueError):
            np_cum_sqrt_f_boundaries(np.array([1]), 0)


class TestAssignment:
    def test_all_strata_nonempty(self, movie_small):
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 4)
        s = np_assign_stratum_by_size(movie_small.sizes, b)
        assert len(np.unique(s)) == len(b)

    def test_oracle_strata_by_accuracy(self):
        mus = np.array([0.0, 0.24, 0.5, 0.9, 1.0])
        s = np_assign_stratum_oracle(mus, 4)
        assert s.tolist() == [0, 0, 2, 3, 3]


class TestStrataWeights:
    def test_weights_sum_to_one_and_match_counts(self, monkeypatch, movie_small):
        """stratified_twcs_trial splits the population by stratum and
        weighs stratum h by W_h = M[h] / M (Eq 13)."""
        seen = {}

        def capture(strata, w, m, rng, cfg):
            seen.update(strata=strata, w=w)

        monkeypatch.setattr(mc, "_twcs_loop", capture)
        pop = Population.from_synthetic(movie_small)
        s = np_assign_stratum_by_size(pop.sizes, np_cum_sqrt_f_boundaries(pop.sizes, 3))
        mc.stratified_twcs_trial(pop, s, 5, np.random.default_rng(0), EvalConfig())
        subs, w = seen["strata"], seen["w"]
        assert w.sum() == pytest.approx(1.0)
        assert sum(sub.n_triples for sub in subs) == movie_small.n_triples
        assert sum(sub.n_clusters for sub in subs) == movie_small.n_entities
        assert w == pytest.approx([sub.n_triples / movie_small.n_triples for sub in subs])


class TestVarianceReduction:
    def test_oracle_strata_reduce_weighted_variance(self):
        """sum W_h^2 Var_h < Var for homogeneous strata (Sec 5.3 claim),
        verified on a population with strongly bimodal cluster accuracy."""
        rng = np.random.default_rng(0)
        n = 2000
        sizes = np.full(n, 4)
        good = rng.random(n) < 0.5
        taus = np.where(good, 4, 0)
        pop = Population(np.arange(n), sizes, taus)
        mus = pop.cluster_accuracies
        strata = np_assign_stratum_oracle(mus, 2)
        overall = float(np.dot(sizes, (mus - pop.mu) ** 2) / pop.n_triples)
        within = 0.0
        for h in np.unique(strata):
            mask = strata == h
            w = sizes[mask].sum() / pop.n_triples
            mu_h = taus[mask].sum() / sizes[mask].sum()
            var_h = float(np.dot(sizes[mask], (mus[mask] - mu_h) ** 2) / sizes[mask].sum())
            within += w * w * var_h
        assert within < overall
