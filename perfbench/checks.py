"""Output checks on every operation (evaluation, trial or update).

An operation fails if it raises or if its outcome breaks one of:

- the estimate mu_hat lies in [0, 1];
- the hours charged equal Eq 4 of the entities and triples charged,
  computed here from the paper's fitted c1 = 45 s and c2 = 25 s rather
  than the program's own cost model. The workloads pass entity and
  triple counts taken apart from the program's cost ledger wherever the
  output offers one (see workloads.py);
- every entity charged comes with at least one triple, and with at most
  m when the design annotates at most m triples per cluster;
- it stopped with MoE <= eps after the min_* guard. Stopping at
  ``max_units`` without that is a silent non-convergence, not a success.

RS also keeps its reservoir size through Algorithm 1 (`check_reservoir`),
and each workload checks that the mean estimate is within eps of the
truth (`check_bias`).

Known defects of the paper-faithful Wald interval pass these checks on
purpose (MoE = 0 when all labels agree, ~85% coverage, SRS's upward
optional-stopping bias). `design_stats` reports them instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C1_S = 45.0  # entity identification, seconds (Sec 7.1.3)
C2_S = 25.0  # relationship validation, seconds
HOURS_TOL = 1e-9  # relative: hours are sums of per-task charges


def eq4_hours(n_entities: int, n_triples: int) -> float:
    """Eq 4: |E'| c1 + |G'| c2, in hours."""
    return (C1_S * n_entities + C2_S * n_triples) / 3600.0


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the checks read.

    Hours, entities and triples are those charged by this operation.
    """

    design: str
    mu_hat: float
    moe: float
    n_units: int  # primary units behind the estimate
    min_units: int  # the design's min_* guard
    eps: float
    hours: float
    n_entities: int
    n_triples: int
    true_mu: float
    m: int | None = None  # most triples annotated per entity; None: no cap


def check_outcome(o: Outcome) -> list[str]:
    """Reasons the outcome is wrong; empty when it passes."""
    bad = []
    if not 0.0 <= o.mu_hat <= 1.0:
        bad.append(f"mu_hat {o.mu_hat} outside [0, 1]")
    eq4 = eq4_hours(o.n_entities, o.n_triples)
    if not abs(o.hours - eq4) <= HOURS_TOL * max(1.0, eq4):
        bad.append(
            f"hours {o.hours} != Eq 4 {eq4} of {o.n_entities} entities, {o.n_triples} triples"
        )
    cap = o.n_triples if o.m is None else o.m * o.n_entities
    if not o.n_entities <= o.n_triples <= cap:
        bad.append(f"{o.n_triples} triples for {o.n_entities} entities (m = {o.m})")
    if not (o.n_units >= o.min_units and o.moe <= o.eps):
        bad.append(
            f"stopped without MoE <= eps after the guard: moe {o.moe}, "
            f"{o.n_units} units, guard {o.min_units}"
        )
    return bad


def check_reservoir(size_before: int, size_after: int, topped_up: int) -> list[str]:
    """Algorithm 1 swaps clusters one for one; only top-up draws may grow R."""
    if size_after - topped_up != size_before:
        return [f"reservoir size {size_before} -> {size_after} with {topped_up} top-up draws"]
    return []


def check_bias(outcomes: list[Outcome], eps: float, per_design: bool) -> list[str]:
    """|mean mu_hat - mu| <= eps, per design or pooled over all operations."""
    groups = {}
    for o in outcomes:
        groups.setdefault(o.design if per_design else "all designs", []).append(o)
    bad = []
    for design, os_ in sorted(groups.items()):
        err = float(np.mean([o.mu_hat - o.true_mu for o in os_]))
        if not abs(err) <= eps:
            bad.append(f"{design}: mean error {err} over {len(os_)} ops exceeds eps {eps}")
    return bad


def design_stats(outcomes: list[Outcome]) -> dict[str, dict[str, float]]:
    """Per design: bias, CI coverage, share of MoE = 0, and cost per operation."""
    out = {}
    for design in sorted({o.design for o in outcomes}):
        os_ = [o for o in outcomes if o.design == design]
        err = np.array([o.mu_hat - o.true_mu for o in os_])
        moe = np.array([o.moe for o in os_])
        out[design] = {
            "bias": float(err.mean()),
            "ci_coverage": float(np.mean(np.abs(err) <= moe)),
            "zero_moe_share": float(np.mean(moe == 0.0)),
            "hours_per_op": float(np.mean([o.hours for o in os_])),
            "triples_per_op": float(np.mean([o.n_triples for o in os_])),
            "entities_per_op": float(np.mean([o.n_entities for o in os_])),
        }
    return out
