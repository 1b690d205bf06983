"""Golden values pinning the random-draw order of the MC and evolving loops.

Each value below is one seeded run's exact output. Any change to the
order or number of RNG calls in a trial, or in RS/SS initialise and
apply_update, changes them, and so would every Monte-Carlo table.
"""
import dataclasses

import numpy as np
import pytest

from repro.core.cluster_stats import Population
from repro.core.framework import evaluate_static
from repro.core.stratification import np_assign_stratum_by_size, np_cum_sqrt_f_boundaries
from repro.evolving.reservoir import ReservoirEvaluator
from repro.evolving.stratified_inc import StratifiedIncrementalEvaluator
from repro.kg.generator import movie_like, nell_like
from repro.kg.updates import update_batch, update_sequence
from repro.sim import mc

# dataclasses.astuple(mc.run_trials(NELL, design, n_trials=3, seed=42, m=3))
MC = {
    "srs": ("srs", 0.9159999999999999, 0.031749015732775075, 2.467592592592593, 0.7156273866925177, 133.33333333333334, 38.18813079129867, 3, 0.8824, 0.9393999999999999),
    "rcs": ("rcs", 0.8945796402840407, 0.008476030052093648, 13.261111111111111, 0.10508851354459413, 1060.0, 15.132745950421556, 3, 0.8860635410282911, 0.9020370654092766),
    "wcs": ("wcs", 0.9354629629629629, 0.004167438200173194, 1.5, 0.32102567587017283, 132.0, 25.709920264364882, 3, 0.9314652777777778, 0.9393819444444443),
    "twcs": ("twcs", 0.9449074074074072, 0.01946097181202194, 1.1712962962962963, 0.5453194735100704, 96.66666666666667, 42.54801209614068, 3, 0.9296527777777777, 0.9652777777777777),
    "twcs_stratified": ("twcs_stratified", 0.9273459545990578, 0.033593614361380864, 1.5717592592592593, 0.9011827076868181, 130.33333333333334, 74.80864477674578, 3, 0.9048642114616211, 0.963203813635546),
}


@pytest.fixture(scope="module")
def nell_pop():
    return Population.from_synthetic(nell_like())


# Spark TWCS evaluate_static on nell_like(). Its draws depend on the KG's
# content only, not on its partitioning, so the values are exact.
SPARK_TWCS = {
    (1, 3): dict(mu_hat=0.9145833333333332, n_draws=80, n_triples=198, n_batches=4,
                 n_entities=80, hours=2.375),
    (42, 10): dict(mu_hat=0.8979166666666666, n_draws=80, n_triples=227, n_batches=4),
}


@pytest.fixture(scope="module")
def base_and_delta():
    base = Population.from_synthetic(movie_like(sf=0.02, seed=21))
    delta = Population.from_synthetic(
        update_batch(n_triples=5000, accuracy=0.9, seed=9, subject_offset=10_000_000)
    )
    return base, delta


@pytest.mark.parametrize("design", list(MC))
def test_mc_trials(nell_pop, design):
    kw = {}
    if design.startswith("twcs"):
        kw["m"] = 3
    if design == "twcs_stratified":
        kw["strata"] = np_assign_stratum_by_size(
            nell_pop.sizes, np_cum_sqrt_f_boundaries(nell_pop.sizes, 2)
        )
    s = mc.run_trials(nell_pop, design, n_trials=3, seed=42, **kw)
    assert dataclasses.astuple(s) == MC[design]


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


@pytest.mark.parametrize("seed,m", list(SPARK_TWCS))
def test_spark_twcs(nell_df, seed, m):
    r = evaluate_static(nell_df, design="twcs", m=m, seed=seed)
    assert {k: getattr(r, k) for k in SPARK_TWCS[seed, m]} == SPARK_TWCS[seed, m]


def test_reservoir(base_and_delta):
    base, delta = base_and_delta
    rs, rng = ReservoirEvaluator(m=5), np.random.default_rng(5)
    ests = [rs.initialise(base, rng), rs.apply_update(delta, rng)]
    assert [(e.mu_hat, e.var_hat, e.n_units) for e in ests] == [
        (0.8522222222222221, 0.0006078886796400921, 60),
        (0.851111111111111, 0.0005935132872985979, 60),
    ]
    assert (rs.hours, len(rs.spare), rs.n_insertions) == (2.963888888888889, 6271, 6)


def test_stratified_incremental(base_and_delta):
    base, delta = base_and_delta
    ss, rng = StratifiedIncrementalEvaluator(m=5), np.random.default_rng(6)
    ests = [ss.initialise(base, rng), ss.apply_update(delta, rng)]
    assert [(e.mu_hat, e.var_hat) for e in ests] == [
        (0.8636363636363638, 0.0005863833136560408),
        (0.858145886715123, 0.0004895633402733716),
    ]
    assert ss.hours == 1.0916666666666666
    assert [len(st.means) for st in ss.strata] == [22, 2]
    assert ests[-1].n_units == 24


# (mu_hat, var_hat, n_units, stop_reason) after initialise and after each of
# five updates of half the base's triples: RS's arrays of every cluster seen
# outgrow their capacity more than once on the way.
SEQUENCE = {
    "rs": [
        (0.863611111111111, 0.0005925128164888052, 60, "moe"),
        (0.8644444444444445, 0.0005673990374555346, 60, "moe"),
        (0.8933333333333332, 0.00046252354048964214, 60, "moe"),
        (0.9133333333333333, 0.0004376647834274952, 60, "moe"),
        (0.9002777777777778, 0.00045676265955220765, 60, "moe"),
        (0.9002777777777777, 0.00045676265955220754, 60, "moe"),
    ],
    "ss": [
        (0.8817204301075268, 0.00044519502870605707, 62, "moe"),
        (0.8926435096888801, 0.0003803124647187546, 69, "moe"),
        (0.9196092507126994, 0.00021325346795247576, 71, "moe"),
        (0.9357384851324984, 0.0001362654854290565, 73, "moe"),
        (0.9464906451351782, 9.448076024926093e-05, 75, "moe"),
        (0.9398325571812954, 0.00027445779272709727, 77, "moe"),
    ],
}


def _run_sequence(ev, base, rng):
    """(mu_hat, var_hat, n_units, stop_reason) after each step of ``ev``."""
    deltas = update_sequence(
        n_batches=5,
        n_triples_each=base.n_triples // 2,
        accuracy=0.9,
        seed=11,
        subject_offset=10_000_000,
    )
    out = []
    for d in [None, *deltas]:
        e = ev.initialise(base, rng) if d is None else ev.apply_update(Population.from_synthetic(d), rng)
        out.append((e.mu_hat, e.var_hat, e.n_units, ev.stop_reason))
    return out


def test_reservoir_sequence(base_and_delta):
    base, _ = base_and_delta
    rs = ReservoirEvaluator(m=5)
    assert _run_sequence(rs, base, np.random.default_rng(12)) == SEQUENCE["rs"]
    assert (rs.hours, len(rs.spare), rs.n_insertions) == (5.906944444444444, 20600, 72)


def test_stratified_incremental_sequence(base_and_delta):
    base, _ = base_and_delta
    ss = StratifiedIncrementalEvaluator(m=5)
    assert _run_sequence(ss, base, np.random.default_rng(13)) == SEQUENCE["ss"]
    assert ss.hours == 3.5388888888888888
    assert [len(st.means) for st in ss.strata] == [62, 7, 2, 2, 2, 2]
