"""The common evaluator surface.

Three engine facades execute patterns over event streams — the
single-pattern :class:`~repro.engine.AdaptiveCEPEngine`, the shared
one-pass :class:`~repro.engine.MultiPatternEngine` and the sharded
:class:`~repro.parallel.ParallelCEPEngine`.  They are interchangeable
behind :class:`CEPEngine`: the streaming pipeline, the experiment
runner, checkpointing workers and the CLI all program against this
protocol, so deployments can swap facades without touching call sites.

Every conforming engine agrees on the return shapes:

``process(event)``
    evaluates one event immediately and returns the (possibly empty)
    ``list[Match]`` it completes — never ``None``.  It is the only way
    events reach an engine: the pipeline, the inline and worker hosts of
    a shard replica and ``run`` all call it once per event.
``run(stream)``
    consumes a whole stream and returns a
    :class:`~repro.engine.RunResult` (matches + run metrics + plan
    history) — on every facade the same fold of ``process`` over the
    stream (:func:`~repro.engine.cep_engine.fold_run`).
``work_metrics()``
    the engine's work counters so far as a
    :class:`~repro.metrics.RunMetrics` (what ``run`` reports).
``partial_match_count()``
    number of live partial matches across all internal engines.
``plan_history``
    descriptions of every plan installed so far, in adoption order.
``introspection()``
    a JSON-serializable dict of engine internals for observability.

State is not part of the protocol: every facade is captured whole by
:func:`~repro.engine.state.snapshot_engine` and rebuilt by
:func:`~repro.engine.state.restore_engine`, and incremental checkpoints
are diffed by a :class:`~repro.streaming.delta.DeltaTracker` that the
hosting backend owns.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, runtime_checkable

from repro.engine.cep_engine import RunResult
from repro.engine.match import Match
from repro.events import Event
from repro.metrics import RunMetrics


@runtime_checkable
class CEPEngine(Protocol):
    """Structural type of every engine facade (see module docstring).

    ``runtime_checkable``, so ``isinstance(engine, CEPEngine)`` verifies a
    facade exposes the full surface (signatures are not checked — this is
    a structural, not behavioural, guarantee).
    """

    def process(self, event: Event) -> List[Match]:
        ...

    def run(self, stream: Iterable[Event]) -> RunResult:
        ...

    def work_metrics(self) -> RunMetrics:
        ...

    def partial_match_count(self) -> int:
        ...

    @property
    def plan_history(self) -> List[str]:
        ...

    def introspection(self) -> dict:
        ...
