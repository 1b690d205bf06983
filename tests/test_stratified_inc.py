"""Tests for SS — stratified incremental evaluation (Sec 6.2, Alg 2)."""
import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.evolving import stratified_inc
from repro.evolving.stratified_inc import StratifiedIncrementalEvaluator
from repro.kg.generator import movie_like
from repro.kg.updates import update_batch, update_sequence
from repro.sim import mc


@pytest.fixture(scope="module")
def base_pop():
    return Population.from_synthetic(movie_like(sf=0.02, seed=21))


@pytest.fixture(scope="module")
def delta_pop():
    return Population.from_synthetic(
        update_batch(n_triples=5000, accuracy=0.9, seed=9, subject_offset=10_000_000)
    )


class TestAlgorithm2:
    def test_initialise_converges(self, base_pop):
        ev = StratifiedIncrementalEvaluator(m=5)
        est = ev.initialise(base_pop, np.random.default_rng(1))
        assert est.moe <= ev.cfg.eps
        assert len(ev.strata) == 1

    def test_update_adds_stratum_and_converges(self, base_pop, delta_pop):
        ev = StratifiedIncrementalEvaluator(m=5)
        rng = np.random.default_rng(2)
        ev.initialise(base_pop, rng)
        est = ev.apply_update(delta_pop, rng)
        assert len(ev.strata) == 2
        assert est.moe <= ev.cfg.eps
        assert len(ev.strata[1].means) >= 2  # new stratum needs a variance

    def test_update_stops_on_moe(self, base_pop, delta_pop):
        ev = StratifiedIncrementalEvaluator(m=5)
        rng = np.random.default_rng(4)
        ev.initialise(base_pop, rng)
        est = ev.apply_update(delta_pop, rng)
        assert ev.stop_reason == "moe"
        assert est.moe <= ev.cfg.eps

    def test_reuses_all_base_annotations(self, base_pop, delta_pop):
        """SS never discards base-stratum draws (its edge over RS)."""
        ev = StratifiedIncrementalEvaluator(m=5)
        rng = np.random.default_rng(3)
        ev.initialise(base_pop, rng)
        base_draws = list(ev.strata[0].means)
        ev.apply_update(delta_pop, rng)
        assert ev.strata[0].means == base_draws

    def test_estimate_reads_the_newest_stratum_as_it_is(self, base_pop, delta_pop):
        """The newest stratum is re-estimated, in-place edits too; an older
        one keeps its estimate from when the next update arrived."""
        ev = StratifiedIncrementalEvaluator(m=5)
        rng = np.random.default_rng(3)
        ev.initialise(base_pop, rng)
        ev.strata[0].means[:] = [0.5] * len(ev.strata[0].means)
        assert ev.estimate().mu_hat == 0.5
        ev.apply_update(delta_pop, rng)
        before = ev.estimate()
        ev.strata[0].means[:] = [1.0] * len(ev.strata[0].means)
        assert ev.estimate() == before
        w0 = base_pop.n_triples / (base_pop.n_triples + delta_pop.n_triples)
        mu1 = np.mean(ev.strata[1].means)
        assert before.mu_hat == pytest.approx(w0 * 0.5 + (1 - w0) * mu1)

    @pytest.mark.parametrize("state", ["strata", "ledger", "stop_reason"])
    def test_state_is_not_a_constructor_option(self, state):
        with pytest.raises(TypeError):
            StratifiedIncrementalEvaluator(m=5, **{state: []})

    def test_update_before_initialise_rejected(self, delta_pop):
        ev = StratifiedIncrementalEvaluator(m=5)
        with pytest.raises(RuntimeError):
            ev.apply_update(delta_pop, np.random.default_rng(4))

    def test_incremental_cheaper_than_baseline(self, base_pop, delta_pop):
        inc, fresh = [], []
        for t in range(15):
            rng = np.random.default_rng(10 + t)
            ev = StratifiedIncrementalEvaluator(m=5)
            ev.initialise(base_pop, rng)
            h0 = ev.hours
            ev.apply_update(delta_pop, rng)
            inc.append(ev.hours - h0)
            rng = np.random.default_rng(10 + t)
            snapshot = Population.concat([base_pop, delta_pop])
            fresh.append(mc.twcs_trial(snapshot, 5, rng, EvalConfig()).hours)
        assert np.mean(inc) < 0.5 * np.mean(fresh)

    def test_estimates_unbiased_over_trials(self, base_pop, delta_pop):
        ests = []
        for t in range(40):
            rng = np.random.default_rng(50 + t)
            ev = StratifiedIncrementalEvaluator(m=5)
            ev.initialise(base_pop, rng)
            ests.append(ev.apply_update(delta_pop, rng).mu_hat)
        truth = (
            base_pop.mu * base_pop.n_triples + delta_pop.mu * delta_pop.n_triples
        ) / (base_pop.n_triples + delta_pop.n_triples)
        assert np.mean(ests) == pytest.approx(truth, abs=0.03)

    def test_sequence_of_updates_accumulates_strata(self, base_pop):
        ev = StratifiedIncrementalEvaluator(m=5)
        rng = np.random.default_rng(6)
        ev.initialise(base_pop, rng)
        deltas = update_sequence(
            n_batches=3,
            n_triples_each=3000,
            accuracy=0.9,
            seed=7,
            subject_offset=10_000_000,
        )
        for d in deltas:
            est = ev.apply_update(Population.from_synthetic(d), rng)
            assert est.moe <= ev.cfg.eps
        assert len(ev.strata) == 4

    def test_update_estimates_only_the_new_stratum(self, base_pop, monkeypatch):
        """Algorithm 2 only samples the newest stratum, so the frozen ones
        keep their Eq 9 estimates: one update computes Eq 9 once per
        estimate of the loop (batches + 1), not once per stratum."""
        ev = StratifiedIncrementalEvaluator(m=5)
        rng = np.random.default_rng(6)
        ev.initialise(base_pop, rng)
        deltas = update_sequence(
            n_batches=5, n_triples_each=3000, accuracy=0.9, seed=7, subject_offset=10_000_000
        )
        for d in deltas[:4]:
            ev.apply_update(Population.from_synthetic(d), rng)
        calls = []
        kernel = stratified_inc.estimate_cluster_means

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(stratified_inc, "estimate_cluster_means", counting)
        draws0 = sum(len(st.means) for st in ev.strata)
        ev.apply_update(Population.from_synthetic(deltas[4]), rng)
        draws = sum(len(st.means) for st in ev.strata) - draws0
        batches = 1 + max(0, draws - 2) // stratified_inc.UPDATE_BATCH_CLUSTERS
        assert len(ev.strata) == 6
        assert 0 < len(calls) <= batches + 1


class TestFaultToleranceTradeoff:
    def test_rs_stochastic_refresh_vs_ss_deterministic_reuse(self, base_pop):
        """Sec 7.3.2 / Fig 9-2/3: both methods shed a corrupted base
        estimate only as the base's share of the KG shrinks, but RS does
        so *stochastically* (reservoir churn + fresh top-ups), so across
        runs its trajectories spread much wider and its lucky runs jump
        back to the truth — the paper's two single-run plots — while
        SS's full-reuse estimate moves deterministically and "hardly
        recovers". We assert the mechanism: RS's across-trial spread
        exceeds SS's, and RS's best run beats SS's best run."""
        from repro.evolving.reservoir import ReservoirEvaluator

        corrupt, n_trials, n_batches = 0.5, 10, 8
        rs_final, ss_final = [], []
        for t in range(n_trials):
            deltas = [
                Population.from_synthetic(d)
                for d in update_sequence(
                    n_batches=n_batches,
                    n_triples_each=base_pop.n_triples // 5,
                    accuracy=0.9,
                    seed=8 + t,
                    subject_offset=10_000_000,
                )
            ]
            rng_r, rng_s = np.random.default_rng(9 + t), np.random.default_rng(9 + t)
            rs = ReservoirEvaluator(m=5)
            rs.initialise(base_pop, rng_r)
            ss = StratifiedIncrementalEvaluator(m=5)
            ss.initialise(base_pop, rng_s)
            for mb in [mb for _, _, mb in rs.members]:
                mb.mean = corrupt
            ss.strata[0].means = [corrupt] * len(ss.strata[0].means)
            for d in deltas:
                rs_est = rs.apply_update(d, rng_r).mu_hat
                ss_est = ss.apply_update(d, rng_s).mu_hat
            rs_final.append(rs_est)
            ss_final.append(ss_est)
        truth = Population.concat([base_pop, *deltas]).mu
        assert np.std(rs_final) > np.std(ss_final)
        assert abs(max(rs_final) - truth) < abs(max(ss_final) - truth)
        # And both have shed a large part of the initial corruption.
        assert np.mean(rs_final) > corrupt + 0.15
        assert np.mean(ss_final) > corrupt + 0.15


class TestConcat:
    def test_concat_populations(self, base_pop, delta_pop):
        c = Population.concat([base_pop, delta_pop])
        assert c.n_triples == base_pop.n_triples + delta_pop.n_triples
        assert c.n_clusters == base_pop.n_clusters + delta_pop.n_clusters

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            Population.concat([])
