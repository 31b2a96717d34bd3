"""Harness-side span tracing and the statistics the harness reports.

Spans are recorded by the benchmark only, in the traced child process,
around calls into each layer's public functions: :func:`install` replaces
the listed methods with timing wrappers *on the classes (or the module, for
a function), inside that one process* — the repository's files are not
touched, engines built mid-run (after a plan switch) are covered too, and
nothing unpicklable is hung on objects that checkpoints serialise.  A span is ``(name, start, end,
parent)``; spans of one pipeline batch share a batch id.  They live in
compact arrays and are written out when the pass ends.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
SAMPLES_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def supported_percentile(sorted_values: Sequence[float], q: float):
    """Percentile ``q``, or ``None`` with fewer than ten samples beyond it."""
    count = len(sorted_values)
    if count - int(-(-count * q // 100)) < SAMPLES_BEYOND:
        return None
    return percentile(sorted_values, q)


class SpanRecorder:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.batch = array("l")
        self._stack: List[int] = []
        self.current_batch = 0

    def intern(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.batch.append(self.current_batch)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self._clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self._clock()
        self._stack.pop()

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        name_id = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = function
        return traced

    def spans(self) -> List[Tuple[str, float, float, int]]:
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self.start))
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "batch": self.batch.tolist(),
                },
                handle,
            )


def self_times(
    spans: Iterable[Tuple[str, float, float, int]],
) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, self seconds)``; self = duration − time covered by children.

    Children are clipped to their parent and overlapping children are
    merged before subtracting, so a stretch of the parent covered twice is
    subtracted once.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, Tuple[int, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        calls, seconds = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, seconds + (end - start) - covered)
    return totals


def install(recorder: SpanRecorder, targets) -> Callable[[], None]:
    """Wrap ``(owner, attribute, span name)`` targets; returns the undo."""
    originals = []
    for owner, attribute, name in targets:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(original, name))

    def uninstall() -> None:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)

    return uninstall


def layer_targets():
    """The layer boundaries the traced pass records, by span name.

    Span names are ``<layer>.<call>``; the layer is everything before the
    last dot and is what per-layer self times are summed by.
    """
    from repro.adaptive import AdaptationController, InvariantBasedPolicy
    from repro.engine import AdaptiveCEPEngine, MultiPatternEngine, cep_engine
    from repro.engine.migration import PlanMigrationManager
    from repro.multi.hub import SharedStatisticsCollector, SharedStatisticsHub
    from repro.multi.sharing import PrefixShareManager, SharedPrefixGroup
    from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
    from repro.parallel import KeyPartitioner, ParallelCEPEngine, StreamingMatchDeduplicator
    from repro.statistics import StatisticsCollector
    from repro.streaming import (
        CheckpointStore,
        JSONLMatchWriter,
        ReorderBuffer,
        StreamingPipeline,
    )
    from repro.streaming.workers import InlineBackend

    return [
        (StreamingPipeline, "run", "streaming.pipeline.run"),
        (ReorderBuffer, "push", "streaming.ordering.push"),
        (ReorderBuffer, "flush", "streaming.ordering.flush"),
        (InlineBackend, "submit", "streaming.workers.submit"),
        (InlineBackend, "flush", "streaming.workers.flush"),
        (AdaptiveCEPEngine, "process", "engine.process"),
        (MultiPatternEngine, "process", "multi.dispatch"),
        (SharedPrefixGroup, "process", "engine.evaluate_shared"),
        (SharedPrefixGroup, "deliver_pending", "engine.evaluate_shared"),
        (ParallelCEPEngine, "process", "parallel.process"),
        (KeyPartitioner, "route", "parallel.route"),
        (StreamingMatchDeduplicator, "filter", "parallel.merge"),
        (StatisticsCollector, "observe_event", "statistics.observe"),
        (SharedStatisticsCollector, "observe_event", "statistics.observe"),
        (SharedStatisticsHub, "observe", "statistics.observe"),
        (StatisticsCollector, "snapshot", "statistics.snapshot"),
        (AdaptationController, "update", "adaptive.update"),
        (InvariantBasedPolicy, "should_reoptimize", "adaptive.decide"),
        (GreedyOrderPlanner, "generate", "optimizer.generate"),
        (ZStreamTreePlanner, "generate", "optimizer.generate"),
        # Engine build: the module function every engine is built through
        # (looked up at call time) and the share manager's factory, whose
        # self time is the sharing decision and the shared-suffix engines.
        (cep_engine, "engine_for_plan", "compile.build"),
        (PrefixShareManager, "__call__", "multi.build"),
        (PlanMigrationManager, "switch_to", "engine.switch"),
        (PlanMigrationManager, "process", "engine.evaluate"),
        (JSONLMatchWriter, "emit", "streaming.sinks.emit"),
        (InlineBackend, "snapshot_base", "streaming.checkpoint.snapshot"),
        (InlineBackend, "snapshot_delta", "streaming.checkpoint.snapshot"),
        (CheckpointStore, "save", "streaming.checkpoint.save_full"),
        (CheckpointStore, "save_delta", "streaming.checkpoint.save_delta"),
    ]
