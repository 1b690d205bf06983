"""Tests for the Eq 4 cost model and the incremental evaluators' ledger (Sec 3.2)."""
import pytest

from repro.core.cost import DEFAULT_COST, CostLedger, CostParams


class TestCostParams:
    def test_paper_fitted_defaults(self):
        assert DEFAULT_COST.c1 == 45.0 and DEFAULT_COST.c2 == 25.0

    def test_eq4(self):
        # Cost(G') = |E'| c1 + |G'| c2.
        assert CostParams().cost_seconds(10, 40) == 10 * 45 + 40 * 25

    def test_table4_arithmetic(self):
        """The paper's Sec 7.1.3 sanity check: TWCS 24 entities / 178
        triples -> (24*45 + 178*25)/3600 ~= 1.54 h. (For SRS the paper
        prints '174*(45+25)/3600 ~= 3.86', but 174*70/3600 is actually
        3.38 h — we assert the correct arithmetic of Eq 4.)"""
        assert DEFAULT_COST.cost_hours(174, 174) == pytest.approx(3.38, abs=0.01)
        assert DEFAULT_COST.cost_hours(24, 178) == pytest.approx(1.54, abs=0.01)

    def test_custom_params(self):
        assert CostParams(c1=10, c2=1).cost_seconds(2, 3) == 23


class TestCostLedgerTasks:
    def test_charges_per_task(self):
        led = CostLedger()
        led.charge_task(5)
        led.charge_task(3)
        assert led.n_identifications == 2
        assert led.n_validations == 8
        assert led.seconds == 2 * 45 + 8 * 25

    def test_repeated_cluster_draws_charge_identification_again(self):
        """WCS/TWCS draw with replacement: each draw is its own task
        (Eq 11's upper bound)."""
        led = CostLedger()
        led.charge_task(2)
        led.charge_task(2)  # same entity drawn again -> new task
        assert led.n_identifications == 2

    def test_rejects_negative_triples(self):
        with pytest.raises(ValueError):
            CostLedger().charge_task(-1)

