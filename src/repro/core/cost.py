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
"""
from __future__ import annotations

from dataclasses import dataclass, field


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
    """Accumulates annotation effort across the iterative framework.

    ``charge_task(n_triples)`` records one Evaluation Task: a
    per-draw entity identification plus its triples. ``charge_srs_batch``
    records an SRS batch, charging identification only for subjects not
    seen in *any* earlier batch (the sample pool groups by subject).
    """

    params: CostParams = field(default_factory=CostParams)
    n_identifications: int = 0
    n_validations: int = 0
    _seen_subjects: set = field(default_factory=set)

    def charge_task(self, n_triples: int) -> None:
        if n_triples < 0:
            raise ValueError("n_triples must be >= 0")
        self.n_identifications += 1
        self.n_validations += n_triples

    def charge_srs_batch(self, subjects) -> None:
        for s in subjects:
            if s not in self._seen_subjects:
                self._seen_subjects.add(s)
                self.n_identifications += 1
            self.n_validations += 1

    @property
    def seconds(self) -> float:
        return self.params.cost_seconds(self.n_identifications, self.n_validations)

    @property
    def hours(self) -> float:
        return self.seconds / 3600.0
