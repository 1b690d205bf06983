"""Tests for RS — weighted reservoir incremental evaluation (Sec 6.1)."""
import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.evolving.reservoir import ReservoirEvaluator
from repro.kg.generator import movie_like
from repro.kg.updates import update_batch, update_sequence


@pytest.fixture(scope="module")
def base_pop():
    return Population.from_synthetic(movie_like(sf=0.02, seed=21))


@pytest.fixture(scope="module")
def delta_pop():
    return Population.from_synthetic(
        update_batch(n_triples=5000, accuracy=0.9, seed=9, subject_offset=10_000_000)
    )


class TestSparkReservoir:
    def test_weighted_inclusion_favours_large_clusters(self):
        """P(cluster in reservoir) increases with M_i under RS's A-Res keys."""
        pop = Population.from_synthetic(movie_like(sf=0.005, seed=33))
        hits = np.zeros(pop.n_clusters)
        for seed in range(300):
            ev = ReservoirEvaluator(m=5)
            ev.initialise(pop, np.random.default_rng(seed))
            hits[[i for _, i, _ in ev.members]] += 1
        big = pop.sizes >= np.percentile(pop.sizes, 90)
        small = pop.sizes <= np.percentile(pop.sizes, 50)
        assert hits[big].mean() > 3 * hits[small].mean()


class TestReservoirEvaluator:
    def test_initialise_converges(self, base_pop):
        ev = ReservoirEvaluator(m=5)
        est = ev.initialise(base_pop, np.random.default_rng(1))
        assert est.moe <= ev.cfg.eps
        assert abs(est.mu_hat - base_pop.mu) < 0.1
        assert ev.hours > 0

    def test_update_keeps_reservoir_size_and_converges(self, base_pop, delta_pop):
        ev = ReservoirEvaluator(m=5)
        rng = np.random.default_rng(2)
        ev.initialise(base_pop, rng)
        size0 = len(ev.members)
        est = ev.apply_update(delta_pop, rng)
        assert len(ev.members) >= size0  # merge keeps size; top-up may grow
        assert est.moe <= ev.cfg.eps

    def test_stops_exhausted_below_min_draws(self):
        """Fewer clusters than min_draws: the top-up runs the pool dry."""
        tiny = Population(np.arange(3), np.array([2, 2, 2]), np.array([2, 1, 0]))
        ev = ReservoirEvaluator(m=5)
        est = ev.initialise(tiny, np.random.default_rng(4))
        assert ev.stop_reason == "exhausted"
        assert est.n_units == 3

    def test_incremental_a_res_equals_one_shot(self, base_pop, delta_pop):
        """DESIGN.md §6: after updates the reservoir holds the largest keys of
        G + Delta, exactly as one A-Res pass over it would, and the spare
        pool is every other cluster, all keyed below the reservoir."""
        ev, rng = ReservoirEvaluator(m=5), np.random.default_rng(8)
        ev.initialise(base_pop, rng)
        for _ in range(2):
            ev.apply_update(delta_pop, rng)
        member_i = np.array(sorted(i for _, i, _ in ev.members))
        one_shot = np.sort(np.argsort(-ev.keys)[: len(ev.members)])
        np.testing.assert_array_equal(member_i, one_shot)
        assert ev.pop.n_clusters == base_pop.n_clusters + 2 * delta_pop.n_clusters
        np.testing.assert_array_equal(
            np.sort(np.concatenate([member_i, ev.spare])), np.arange(ev.pop.n_clusters)
        )
        assert ev.keys[ev.spare].max() < min(key for key, _, _ in ev.members)

    @pytest.mark.parametrize(
        "state", ["pop", "keys", "members", "ledger", "n_insertions", "stop_reason"]
    )
    def test_state_is_not_a_constructor_option(self, state):
        with pytest.raises(TypeError):
            ReservoirEvaluator(m=5, **{state: []})

    def test_update_before_initialise_rejected(self, delta_pop):
        ev = ReservoirEvaluator(m=5)
        with pytest.raises(RuntimeError):
            ev.apply_update(delta_pop, np.random.default_rng(3))

    def test_incremental_cost_below_fresh_evaluation(self, base_pop, delta_pop):
        """RS's point: updating costs far less than re-evaluating."""
        rng = np.random.default_rng(4)
        ev = ReservoirEvaluator(m=5)
        ev.initialise(base_pop, rng)
        h0 = ev.hours
        ev.apply_update(delta_pop, rng)
        assert ev.hours - h0 < 0.5 * h0

    def test_proposition3_insertion_bound(self, base_pop):
        """E[#insertions] = O(|R| log(N_j / N_i)) (Eq 14): check the
        average over repeats stays within a constant factor."""
        n_ins = []
        for t in range(20):
            rng = np.random.default_rng(100 + t)
            ev = ReservoirEvaluator(m=5)
            ev.initialise(base_pop, rng)
            r_size = len(ev.members)
            delta = Population.from_synthetic(
                update_batch(
                    n_triples=base_pop.n_triples // 2,
                    accuracy=0.9,
                    seed=200 + t,
                    subject_offset=20_000_000,
                    )
            )
            ev.apply_update(delta, rng)
            nj = base_pop.n_clusters + delta.n_clusters
            bound = r_size * np.log(nj / base_pop.n_clusters)
            n_ins.append(ev.n_insertions / max(bound, 1e-9))
        assert np.mean(n_ins) < 3.0

    def test_estimates_unbiased_over_trials(self, base_pop, delta_pop):
        ests = []
        for t in range(40):
            rng = np.random.default_rng(300 + t)
            ev = ReservoirEvaluator(m=5)
            ev.initialise(base_pop, rng)
            ests.append(ev.apply_update(delta_pop, rng).mu_hat)
        truth = (base_pop.mu * base_pop.n_triples + delta_pop.mu * delta_pop.n_triples) / (
            base_pop.n_triples + delta_pop.n_triples
        )
        assert np.mean(ests) == pytest.approx(truth, abs=0.03)


class TestUpdateCost:
    """An update writes Delta in place: O(|Delta|), not a copy of G + Delta."""

    def test_updates_never_concatenate_the_population(self, base_pop, monkeypatch):
        def refuse(pops):
            raise AssertionError("Population.concat copies every cluster seen")

        monkeypatch.setattr(Population, "concat", refuse)
        ev, rng = ReservoirEvaluator(m=5), np.random.default_rng(5)
        ev.initialise(base_pop, rng)
        for d in update_sequence(
            n_batches=3, n_triples_each=3000, accuracy=0.9, seed=7, subject_offset=10_000_000
        ):
            ev.apply_update(Population.from_synthetic(d), rng)
        assert ev.pop.n_clusters == ev.keys.size

    def test_update_within_capacity_keeps_the_key_buffer(self, base_pop, delta_pop):
        ev, rng = ReservoirEvaluator(m=5), np.random.default_rng(6)
        ev.initialise(base_pop, rng)
        ev.apply_update(delta_pop, rng)  # outgrows the base's exact fit: capacity doubles
        assert ev.keys.size + delta_pop.n_clusters <= 2 * base_pop.n_clusters
        keys = ev.keys
        ev.apply_update(delta_pop, rng)
        assert np.shares_memory(keys, ev.keys)
        np.testing.assert_array_equal(ev.keys[: keys.size], keys)
