"""The three benchmark workloads.

Each is a closed loop: one caller, and each operation starts when the
previous one returns. A workload builds all its inputs from the workload
seed in `set_up`, before timing starts, then runs numbered units (an
evaluation pair, a `run_trials` call per design, or an update sequence)
in `unit`. Every
operation a unit performs is appended to ``ops`` with its wall time, its
outcome and the checks it failed.

- spark-static: Table 4 traffic on a cached MOVIE sf=0.2 KG, alternating
  TWCS(m=10) and SRS `evaluate_static` calls, ``clusters`` not passed,
  as `tables/table4.py` calls it (but see `SparkStatic.CONFIG`). Drives
  the Spark samplers, cluster stats, the annotator's collect and the
  Fig 2 loop; the MC and evolving code stay idle.
- mc-static: `mc.run_trials` over the Table 5/7 MOVIE designs (SRS, RCS,
  WCS, TWCS(m=5), size-stratified TWCS with 4 Cum-sqrt-F strata) on
  numpy MOVIE sf=1 populations, a fixed trial count per design. Spark
  does nothing.
- evolving: RS and SS side by side, initialised on a MOVIE sf=1 base and
  fed sequences of 10%-size, 90%-accurate insert batches. Same draw and
  estimator code as mc-static, but on a new small population per update.
"""
from __future__ import annotations

import functools
import os
import shlex
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench.checks import Outcome, check_outcome, check_reservoir
from perfbench.tracing import Tracer
from repro.annotate.annotator import SimulatedAnnotator
from repro.core import cluster_sampling, framework, stratification
from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.evolving import reservoir, stratified_inc
from repro.kg import generator, updates
from repro.sim import mc

CONFIG = EvalConfig()  # the default every caller in the repo uses
N_SEEDS = 5000  # per-operation seeds drawn up front; more than any run uses


@dataclass
class Op:
    kind: str
    seconds: float
    outcome: Outcome | None  # None when the operation raised
    failures: list[str]
    extra: dict = field(default_factory=dict)


def _op_scope(tracer: Tracer | None, kind: str):
    return tracer.operation(f"op.{kind}") if tracer is not None else nullcontext()


def _record_error(ops: list[Op], kind: str, seconds: float, exc: Exception) -> None:
    traceback.print_exc()
    ops.append(Op(kind, seconds, None, [f"raised {exc!r}"]))


class Workload:
    """Seeds, set-up repetitions and the op loop shared by the workloads."""

    name: str
    slow: str  # op kind behind slow_op_ms
    fast: str  # op kind behind fast_op_ms
    setup_reps = 3
    bias_per_design = True  # enough ops per design in a run to check each
    # Run each unit in a child forked from the set-up process: every unit
    # then starts from the same heap, and a run averages over many fresh
    # memory placements instead of the one its process happened to get.
    fork_units = False

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.kg_seed = int(rng.integers(1, 2**31))
        seeds = rng.choice(2**31, size=2 * N_SEEDS, replace=False)
        self.op_seeds = [int(s) for s in seeds[:N_SEEDS]]
        self.warm_seeds = [int(s) for s in seeds[N_SEEDS:]]  # never measured
        self.scratch = scratch
        self.setup_parts: dict[str, list[float]] = {}

    def _timed(self, part: str, fn):
        t = perf_counter()
        out = fn()
        self.setup_parts.setdefault(part, []).append(perf_counter() - t)
        return out

    def set_up(self) -> float:
        """Build inputs and warm up ``setup_reps`` times; median seconds."""
        times = []
        for rep in range(self.setup_reps):
            t = perf_counter()
            self.build(rep)
            times.append(perf_counter() - t)
        return statistics.median(times)

    def spark_context(self):
        return None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# spark-static
# ---------------------------------------------------------------------------


def start_spark(tmp: Path):
    """local[4] with the test fixture's settings; scratch files under ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Every JVM spark-submit starts: no perf-data file in the system /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            "--master local[4] --driver-memory 4g",
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


class SparkStatic(Workload):
    name = "spark-static"
    slow, fast = "twcs", "srs"
    # A run affords only a few evaluations per design, too few for a
    # per-design mean: the mean-error check pools both designs.
    bias_per_design = False
    M = 10
    SF = 0.2  # the scale tables/table4.py evaluates at
    WARM_UP_PAIRS = 2
    # One 60-draw first batch instead of Table 4's 20: at 20 draws the
    # MoE rule needs 1 to 3 batches depending on seed and KG, so TWCS
    # evaluation time is trimodal and the few evaluations a run affords
    # give no steady median. At 60 draws it holds after the first batch
    # in nearly every evaluation. Everything else is Table 4's default.
    CONFIG = EvalConfig(batch_clusters=60)

    def set_up(self) -> float:
        """Session start, then the KG materialised and cached ``setup_reps``
        times (median charged), then warm-up evaluations on unmeasured seeds."""
        t = perf_counter()
        self.spark = start_spark(self.scratch / "spark")
        session_s = perf_counter() - t
        for rep in range(self.setup_reps):
            if rep:
                self.kg.unpersist(blocking=True)
            self.build(rep)
        materialise_s = statistics.median(self.setup_parts["kg.materialise"])
        t = perf_counter()
        for j in range(2 * self.WARM_UP_PAIRS):
            self._evaluate(j, self.warm_seeds[j], [], None)
        warm_s = perf_counter() - t
        return session_s + materialise_s + warm_s

    def build(self, rep: int) -> None:
        def materialise():
            kg = generator.movie_like(sf=self.SF, seed=self.kg_seed)
            sdf = kg.to_spark(self.spark).cache()
            sdf.count()
            return kg, sdf

        kg, self.kg = self._timed("kg.materialise", materialise)
        self.true_mu = kg.accuracy

    def spark_context(self):
        return self.spark.sparkContext

    def install_layers(self, t: Tracer) -> None:
        for fn in ("evaluate_static", "_run_cluster", "_run_srs"):
            t.wrap(framework, fn, "framework")
        t.wrap(framework, "cluster_stats_df", "cluster_stats")
        t.wrap(framework, "_shuffled_prefix", "srs_prefix")
        t.wrap(framework, "estimate_srs", "estimate")
        t.wrap(cluster_sampling, "weighted_cluster_draws", "pps_draw")
        t.wrap(cluster_sampling, "second_stage_sample", "second_stage")
        t.wrap(cluster_sampling, "draws_to_triples", "second_stage")
        t.wrap(cluster_sampling, "estimate_cluster_means", "estimate")
        t.wrap(cluster_sampling, "estimate_rcs", "estimate")
        t.wrap(SimulatedAnnotator, "annotate_tasks", "annotate")
        t.wrap(SimulatedAnnotator, "annotate_triples", "annotate")

    def unit(self, i: int, ops: list[Op], tracer: Tracer | None) -> None:
        """One TWCS and one SRS evaluation, so every run has an even mix."""
        for j in (2 * i, 2 * i + 1):
            self._evaluate(j, self.op_seeds[j], ops, tracer)

    def _evaluate(self, i: int, seed: int, ops: list[Op], tracer: Tracer | None) -> None:
        design = "twcs" if i % 2 == 0 else "srs"
        kw = {"m": self.M} if design == "twcs" else {}
        t = perf_counter()
        try:
            with _op_scope(tracer, design):
                r = framework.evaluate_static(
                    self.kg, design=design, seed=seed, config=self.CONFIG, **kw
                )
        except Exception as exc:  # an operation that raises is a failed operation
            _record_error(ops, design, perf_counter() - t, exc)
            return
        dt = perf_counter() - t
        cfg = self.CONFIG
        est = r.estimate
        # TWCS charges one identification per draw, and its triple count is
        # the annotated rows, tallied apart from the cost ledger. SRS charges
        # one per distinct subject; its triples are its labels.
        if design == "srs":
            o = Outcome(
                design, est.mu_hat, est.moe, est.n_units, cfg.min_triples, cfg.eps,
                r.hours, r.n_entities, est.n_units, self.true_mu,
            )
        else:
            o = Outcome(
                design, est.mu_hat, est.moe, est.n_units, cfg.min_draws, cfg.eps,
                r.hours, est.n_units, r.n_triples, self.true_mu, self.M,
            )
        ops.append(Op(design, dt, o, check_outcome(o), {"batches": r.n_batches}))

    def close(self) -> None:
        stop_spark(self.spark)


# ---------------------------------------------------------------------------
# mc-static
# ---------------------------------------------------------------------------


class McStatic(Workload):
    name = "mc-static"
    slow, fast = "twcs_stratified", "srs"
    M = 5
    N_STRATA = 4
    # (design, trials per run_trials call), in the harnesses' ratios:
    # tables/table5.py runs SRS, WCS and TWCS at t trials and RCS at t/10,
    # tables/table7.py runs size-stratified TWCS at the same t.
    T = 20
    MIX = (("srs", T), ("wcs", T), ("twcs", T), ("rcs", T // 10), ("twcs_stratified", T))
    # Trial cost depends on the population (how many batches its strata
    # need), so units cycle over several MOVIE draws rather than one.
    N_POPULATIONS = 8

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.tracer: Tracer | None = None
        self._ops: list[Op] = []
        self._in_trial = False
        self._originals = (dict(mc._DESIGNS), mc.twcs_trial, mc.stratified_twcs_trial)
        for d in ("srs", "rcs", "wcs"):
            mc._DESIGNS[d] = self._hook(mc._DESIGNS[d], d)
        mc.twcs_trial = self._hook(mc.twcs_trial, "twcs")
        mc.stratified_twcs_trial = self._hook(mc.stratified_twcs_trial, "twcs_stratified")

    def _hook(self, fn, design: str):
        """Time one trial, check its result, and open its operation span.

        `wcs_trial` calls `twcs_trial`: only the outermost call is a trial.
        """

        @functools.wraps(fn)
        def trial(*args, **kwargs):
            if self._in_trial:
                return fn(*args, **kwargs)
            self._in_trial = True
            t = perf_counter()
            try:
                with _op_scope(self.tracer, design):
                    r = fn(*args, **kwargs)
            finally:
                self._in_trial = False
            dt = perf_counter() - t
            # SRS draws triples and charges each distinct subject once; the
            # cluster designs charge one identification per cluster drawn.
            if design == "srs":
                o = Outcome(
                    design, r.mu_hat, r.moe, r.n_draws, CONFIG.min_triples, CONFIG.eps,
                    r.hours, r.n_entities, r.n_draws, self.pop.mu,
                )
            else:
                m = self.M if design in ("twcs", "twcs_stratified") else None
                o = Outcome(
                    design, r.mu_hat, r.moe, r.n_draws, CONFIG.min_draws, CONFIG.eps,
                    r.hours, r.n_draws, r.n_triples, self.pop.mu, m,
                )
            self._ops.append(Op(design, dt, o, check_outcome(o)))
            return r

        return trial

    def build(self, rep: int) -> None:
        self.pops = self._timed(
            "kg.materialise",
            lambda: [
                Population.from_synthetic(generator.movie_like(sf=1.0, seed=self.kg_seed + k))
                for k in range(self.N_POPULATIONS)
            ],
        )

        def strata():
            return [
                stratification.np_assign_stratum_by_size(
                    p.sizes, stratification.np_cum_sqrt_f_boundaries(p.sizes, self.N_STRATA)
                )
                for p in self.pops
            ]

        self.strata = self._timed("stratification", strata)
        for j in range(len(self.MIX)):  # warm-up: one call per design
            self._run(0, j, self.warm_seeds[j + rep * len(self.MIX)], [], None, n_trials=2)

    def install_layers(self, t: Tracer) -> None:
        t.wrap(mc, "_pps_draws", "mc.pps_draws")
        for fn in ("estimate_srs", "estimate_cluster_means", "estimate_rcs", "combine_stratified"):
            t.wrap(mc, fn, "estimate")

    def unit(self, i: int, ops: list[Op], tracer: Tracer | None) -> None:
        """One `run_trials` call per design, so every run has the same mix."""
        for j in range(len(self.MIX)):
            self._run(i % self.N_POPULATIONS, j, self.op_seeds[i * len(self.MIX) + j], ops, tracer)

    def _run(self, k, j, seed, ops, tracer, n_trials=None) -> None:
        """`run_trials` for design ``j`` of the mix on population ``k``."""
        design, n = self.MIX[j]
        kw = {}
        if design in ("twcs", "twcs_stratified"):
            kw["m"] = self.M
        if design == "twcs_stratified":
            kw["strata"] = self.strata[k]
        self.pop, self._ops, self.tracer = self.pops[k], ops, tracer
        t = perf_counter()
        try:
            mc.run_trials(self.pop, design, n_trials=n_trials or n, seed=seed, cfg=CONFIG, **kw)
        except Exception as exc:  # the trial that raised is a failed operation
            _record_error(ops, design, perf_counter() - t, exc)

    def close(self) -> None:
        designs, twcs, strat = self._originals
        mc._DESIGNS.update(designs)
        mc.twcs_trial, mc.stratified_twcs_trial = twcs, strat


# ---------------------------------------------------------------------------
# evolving
# ---------------------------------------------------------------------------


class Evolving(Workload):
    name = "evolving"
    slow, fast = "rs", "ss"
    # Each unit allocates and sorts Python lists of every cluster of the
    # KG. In one process, runs of the same code read 15% apart from one
    # another while each held steady within itself; a child per unit
    # takes that spread out of the run-to-run comparison.
    fork_units = True
    M = 5
    N_UPDATES = 5  # insert batches per sequence
    N_SEQUENCES = 16  # distinct update sequences; units cycle through them

    def build(self, rep: int) -> None:
        def inputs():
            base = Population.from_synthetic(generator.movie_like(sf=1.0, seed=self.kg_seed))
            seqs = [
                [
                    Population.from_synthetic(d)
                    for d in updates.update_sequence(
                        n_batches=self.N_UPDATES,
                        n_triples_each=base.n_triples // 10,
                        accuracy=0.9,
                        seed=self.kg_seed + 7919 * (k + 1),
                        subject_offset=10_000_000,
                    )
                ]
                for k in range(self.N_SEQUENCES)
            ]
            return base, seqs

        self.base, self.sequences = self._timed("kg.materialise", inputs)
        self._sequence(0, self.warm_seeds[rep], [], None)  # warm-up

    def install_layers(self, t: Tracer) -> None:
        RS = reservoir.ReservoirEvaluator
        t.wrap(RS, "estimate", "reservoir.estimate")
        t.wrap(RS, "_top_up_until_converged", "reservoir.top_up")
        t.wrap(reservoir, "estimate_cluster_means", "estimate")
        t.wrap(stratified_inc, "estimate_cluster_means", "estimate")
        t.wrap(stratified_inc, "combine_stratified", "estimate")
        t.wrap(stratified_inc, "_pps_draws", "mc.pps_draws")

    def unit(self, i: int, ops: list[Op], tracer: Tracer | None) -> None:
        self._sequence(i, self.op_seeds[i], ops, tracer)

    def _sequence(self, i, seed, ops, tracer) -> None:
        """Initialise RS and SS on the base, then apply one update sequence."""
        rs = reservoir.ReservoirEvaluator(m=self.M, cfg=CONFIG)
        ss = stratified_inc.StratifiedIncrementalEvaluator(m=self.M, cfg=CONFIG)
        rs_rng = np.random.default_rng([seed, 1])
        ss_rng = np.random.default_rng([seed, 2])
        mu = self.base.mu
        rs_ok = self._step(ops, tracer, "rs_init", rs, lambda: rs.initialise(self.base, rs_rng), mu)
        ss_ok = self._step(ops, tracer, "ss_init", ss, lambda: ss.initialise(self.base, ss_rng), mu)
        sizes, taus = self.base.n_triples, int(self.base.taus.sum())
        for delta in self.sequences[i % self.N_SEQUENCES]:
            sizes += delta.n_triples
            taus += int(delta.taus.sum())
            mu = taus / sizes
            if rs_ok:
                rs_ok = self._step(
                    ops, tracer, "rs", rs, lambda: rs.apply_update(delta, rs_rng), mu, delta
                )
            if ss_ok:
                ss_ok = self._step(
                    ops, tracer, "ss", ss, lambda: ss.apply_update(delta, ss_rng), mu
                )

    def _step(self, ops, tracer, kind, ev, call, true_mu, delta=None) -> bool:
        """One RS/SS operation, timed and checked; False if it raised.

        The entities charged are counted apart from the cost ledger: for
        RS, the clusters that entered the reservoir (its Algorithm 1
        insertions plus the spare clusters it topped up with; after
        initialisation, all members); for SS, the draws its strata hold.
        The triples are the members' annotated triples after RS's
        initialisation, and the ledger's otherwise.
        """
        led = ev.ledger
        ent0, tri0, hours0 = led.n_identifications, led.n_validations, led.hours
        is_rs = isinstance(ev, reservoir.ReservoirEvaluator)
        if is_rs:
            size0, spare0, ins0 = len(ev.members), len(ev.spare), ev.n_insertions
        else:
            draws0 = sum(len(st.means) for st in ev.strata)
        t = perf_counter()
        try:
            with _op_scope(tracer, kind):
                est = call()
        except Exception as exc:  # an operation that raises is a failed operation
            _record_error(ops, kind, perf_counter() - t, exc)
            return False
        dt = perf_counter() - t
        failures = []
        triples = led.n_validations - tri0
        if is_rs:
            insertions = ev.n_insertions - ins0
            if delta is None:
                entered = len(ev.members)
                triples = sum(mb.s for _, _, mb in ev.members)
            else:
                entered = insertions + spare0 + delta.n_clusters - len(ev.spare)
                topped_up = (led.n_identifications - ent0) - insertions
                failures += check_reservoir(size0, len(ev.members), topped_up)
            extra = {"insertions": insertions, "spare": len(ev.spare)}
            n_units = est.n_units
        else:
            n_units = sum(len(st.means) for st in ev.strata)
            entered = n_units - draws0
            extra = {"draws": entered, "strata": len(ev.strata)}
        o = Outcome(
            kind, est.mu_hat, est.moe, n_units, CONFIG.min_draws, CONFIG.eps,
            led.hours - hours0, entered, triples, true_mu, self.M,
        )
        ops.append(Op(kind, dt, o, check_outcome(o) + failures, extra))
        return True


WORKLOADS = {w.name: w for w in (SparkStatic, McStatic, Evolving)}
