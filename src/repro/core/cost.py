"""Annotation cost model (Sec 3.2, Eq 4).

Cost(G') = |E'| * c1 + |G'| * c2, where E' is the set of distinct
entity-identification events and G' the annotated triples. The paper
fits c1 = 45 s (entity identification) and c2 = 25 s (relationship
validation) from measured human annotation times (Sec 7.1.3, Fig 4).

Two accounting conventions, both from the paper:

- **SRS** groups sampled triples by subject before handing them to
  annotators, so it pays c1 once per *distinct* subject in the sample
  (Sec 5.1 cost analysis).
- **Cluster designs** pay c1 once per cluster *draw* (Eq 11's upper
  bound): WCS/TWCS draw with replacement, and each draw is prepared as
  its own Evaluation Task.

Every static evaluation, Spark or Monte-Carlo, is charged Eq 4 once, by
``core.framework.sample_until`` on its batches' entities and triples.
RS and SS keep a ``CostLedger``: their cost spans Algorithm 1's
replacements and several loops. KGEval charges per annotation.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostParams:
    """Fitted per-unit costs in seconds."""

    c1: float = 45.0  # entity identification
    c2: float = 25.0  # relationship validation

    def cost_seconds(self, n_entities: int, n_triples: int) -> float:
        return self.c1 * n_entities + self.c2 * n_triples

    def cost_hours(self, n_entities: int, n_triples: int) -> float:
        return self.cost_seconds(n_entities, n_triples) / 3600.0


DEFAULT_COST = CostParams()


@dataclass
class CostLedger:
    """The annotation effort of an incremental evaluator (RS/SS): each
    ``charge_task(n_triples)`` is one Evaluation Task, a per-draw entity
    identification plus its triples."""

    n_identifications: int = 0
    n_validations: int = 0

    def charge_task(self, n_triples: int) -> None:
        if n_triples < 0:
            raise ValueError("n_triples must be >= 0")
        self.n_identifications += 1
        self.n_validations += n_triples

    @property
    def seconds(self) -> float:
        return DEFAULT_COST.cost_seconds(self.n_identifications, self.n_validations)

    @property
    def hours(self) -> float:
        return self.seconds / 3600.0
