"""Tests for stratification (Sec 5.3): cum-sqrt-F boundaries, stratum
assignment, strata weights, and variance reduction."""
import numpy as np
import pytest

from repro.core.cluster_stats import Population
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
        """run_trials splits the population by stratum once, and every
        trial weighs stratum h by W_h = M[h] / M (Eq 13)."""
        strata_seen, weights_seen = [], []
        trial, combine = mc.stratified_twcs_trial, mc.combine_stratified

        def capture_trial(strata, m, rng, cfg):
            strata_seen.append(strata)
            return trial(strata, m, rng, cfg)

        def capture_combine(weights, per_stratum):
            weights_seen.append(weights)
            return combine(weights, per_stratum)

        monkeypatch.setattr(mc, "stratified_twcs_trial", capture_trial)
        monkeypatch.setattr(mc, "combine_stratified", capture_combine)
        pop = Population.from_synthetic(movie_small)
        s = np_assign_stratum_by_size(pop.sizes, np_cum_sqrt_f_boundaries(pop.sizes, 3))
        mc.run_trials(pop, "twcs_stratified", m=5, strata=s, n_trials=3, seed=0)

        assert len(strata_seen) == 3
        subs = strata_seen[0]
        assert all(seen is subs for seen in strata_seen)
        assert sum(sub.n_triples for sub in subs) == pop.n_triples
        assert sum(sub.n_clusters for sub in subs) == pop.n_clusters
        label = dict(zip(pop.subjects.tolist(), s.tolist()))
        assert all(len({label[x] for x in sub.subjects.tolist()}) == 1 for sub in subs)
        assert weights_seen
        for w in weights_seen:
            assert w.sum() == pytest.approx(1.0)
            assert w == pytest.approx([sub.n_triples / pop.n_triples for sub in subs])


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
