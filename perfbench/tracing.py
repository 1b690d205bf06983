"""Spans recorded around the program's layer functions, from outside `src/`.

A span is one call into a layer: name, start, end, parent span, and the
id of the operation (evaluation, trial or update) it belongs to. Spans
are kept in memory and written out once, when the run ends.

Layer functions are wrapped by replacing the module or class attribute
that callers resolve at call time (``framework.cluster_stats_df``,
``mc._pps_draws``, ``ReservoirEvaluator.estimate``...). `restore()` puts
the originals back.

Spark jobs are attributed to the span that triggered them: every span
instance sets its own, unique, Spark job group while it is open, so a
job started inside nested spans lands in the innermost one. Spark is
lazy, so a sampler span that only builds a plan shows no jobs; the jobs
of that plan land in whichever span collects it (usually `annotate`).
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    op: int | None  # shared by every span of one operation; None in set-up
    parent: int | None
    start: float
    end: float = float("nan")
    group: str | None = None  # Spark job group of this span instance only
    jobs: list[int] = field(default_factory=list)
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Records spans; with a SparkContext, also the Spark jobs of each span."""

    def __init__(self, spark_context=None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sc = spark_context
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []
        self.next_op = 0
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            len(self.spans), name, self.op, parent.id if parent else None, self._clock()
        )
        if self._sc is not None:
            sp.group = f"perfbench-{id(self):x}-{sp.id}"
            self._sc.setJobGroup(sp.group, name)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._stack.pop()
            if self._sc is not None:
                if parent is not None:
                    self._sc.setJobGroup(parent.group, parent.name)
                else:
                    self._sc.setLocalProperty("spark.jobGroup.id", None)

    @contextmanager
    def operation(self, name: str):
        """A root span whose id is shared by every span opened inside it."""
        outer, self.op = self.op, self.next_op
        self.next_op += 1
        try:
            with self.span(name) as sp:
                yield sp
        finally:
            self.op = outer

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module or class) by a spanned call."""
        orig = vars(owner)[attr]

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def resolve_jobs(self, spans: list[Span]) -> None:
        """Fill in the Spark jobs, stages and tasks of finished ``spans``.

        Waits for Spark's listener bus first, so every job already run is
        visible to the status tracker.
        """
        if self._sc is None:
            return
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self._sc.statusTracker()
        for sp in spans:
            if sp.group is None:
                continue
            sp.jobs = sorted(tracker.getJobIdsForGroup(sp.group))
            for job in sp.jobs:
                info = tracker.getJobInfo(job)
                for stage in info.stageIds if info else []:
                    st = tracker.getStageInfo(stage)
                    if st is not None and st.numCompletedTasks + st.numFailedTasks > 0:
                        sp.stages += 1
                        sp.tasks += st.numCompletedTasks
                        sp.failed_tasks += st.numFailedTasks

    def write(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        own = self_times(self.spans)
        with open(path, "w") as f:
            for sp in self.spans:
                row = asdict(sp)
                row["self_s"] = own[sp.id]
                f.write(json.dumps(row) + "\n")
