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
    ``list[Match]`` it completes — never ``None``.
``process_batch(events)``
    evaluates a batch in stream order and returns the concatenated
    ``list[Match]``, exactly the matches event-at-a-time processing
    would have produced.
``run(stream)``
    consumes a whole stream and returns a
    :class:`~repro.engine.RunResult` (matches + run metrics + plan
    history) — on every facade the same fold of ``process`` over the
    stream (:func:`~repro.engine.cep_engine.fold_run`).
``work_metrics()``
    the engine's work counters so far as a
    :class:`~repro.metrics.RunMetrics` (what ``run`` reports).
``snapshot_state()`` / ``restore_state(blob)``
    serialize to / rebuild from an opaque ``bytes`` blob with a
    self-describing header, so
    :func:`~repro.engine.state.restore_engine` can route any blob to
    the facade that wrote it.
``partial_match_count()``
    number of live partial matches across all internal engines.
``plan_history``
    descriptions of every plan installed so far, in adoption order.
``introspection()``
    a JSON-serializable dict of engine internals for observability.
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

    def process_batch(self, events: List[Event]) -> List[Match]:
        ...

    def run(self, stream: Iterable[Event]) -> RunResult:
        ...

    def work_metrics(self) -> RunMetrics:
        ...

    def snapshot_state(self) -> bytes:
        ...

    def partial_match_count(self) -> int:
        ...

    @property
    def plan_history(self) -> List[str]:
        ...

    def introspection(self) -> dict:
        ...
