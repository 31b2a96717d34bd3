"""On-the-fly plan migration (Section 2.2 of the paper).

When the adaptation layer installs a new plan at time ``t0``, the previous
engine is not discarded immediately: partial matches containing at least
one event accepted before ``t0`` still belong to the old plan, while
matches consisting entirely of post-``t0`` events belong to the new plan.
The :class:`PlanMigrationManager` therefore keeps the old engine *draining*
for one pattern time window after the switch:

* the old engine keeps processing events (its existing buffers and partial
  matches may still complete), but suppresses matches made purely of
  post-switch events — those are the new engine's responsibility;
* the new engine starts with empty buffers, so it can only ever produce
  all-new matches; it inherits only the negated-item events, which can
  forbid a match but never complete one.

At ``t0 + W`` every pre-switch event has expired from the old engine and it
is retired.  The two engines never emit the same match, so no duplicate
processing of results occurs.
"""

from __future__ import annotations

from typing import List

from repro.engine.base import EngineCounters, EvaluationEngine
from repro.engine.match import Match
from repro.errors import EngineError
from repro.events import Event


class PlanMigrationManager:
    """Owns the active engine plus any engines still draining after a switch."""

    def __init__(self, initial_engine: EvaluationEngine, window: float):
        if window <= 0:
            raise EngineError("migration manager requires a positive window")
        self._active = initial_engine
        self._window = float(window)
        # (engine, retirement_time) pairs; usually at most one entry.
        self._draining: List[tuple] = []
        self._retired_counters = EngineCounters()
        self.switches_performed = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def active_engine(self) -> EvaluationEngine:
        return self._active

    @property
    def draining_count(self) -> int:
        return len(self._draining)

    def engines(self) -> List[EvaluationEngine]:
        """Live engines, active first then draining (oldest switch first)."""
        return [self._active] + [engine for engine, _retirement in self._draining]

    def partial_match_count(self) -> int:
        total = self._active.partial_match_count()
        for engine, _retirement in self._draining:
            total += engine.partial_match_count()
        return total

    def total_counters(self) -> EngineCounters:
        """Counters aggregated over the active, draining and retired engines."""
        total = self._retired_counters
        total = total.merge(self._active.counters)
        for engine, _retirement in self._draining:
            total = total.merge(engine.counters)
        return total

    # ------------------------------------------------------------------
    # Plan switching
    # ------------------------------------------------------------------
    def _delta_keyed_state(self):
        """Change-tracked collections of the active + draining engines.

        Names are positional (``active`` / ``drainingN``): after a plan
        switch the same position refers to a different engine, which the
        delta diff detects and degrades to a self-contained reset for that
        slot — correct, merely bigger for the one post-switch delta.
        """
        slots = [
            (f"active.{name}", holder, attr)
            for name, holder, attr in self._active._delta_keyed_state()
        ]
        for index, (engine, _retirement) in enumerate(self._draining):
            slots.extend(
                (f"draining{index}.{name}", holder, attr)
                for name, holder, attr in engine._delta_keyed_state()
            )
        return slots

    def _delta_frozen_state(self):
        """Immutable roots of the active + draining engines (delta hook)."""
        roots = list(self._active._delta_frozen_state())
        for engine, _retirement in self._draining:
            roots.extend(engine._delta_frozen_state())
        return roots

    def switch_to(self, new_engine: EvaluationEngine, switch_time: float) -> None:
        """Install a new engine; the previous one drains for one window.

        The new engine inherits the negated-item events the previous one
        holds: one that arrived before the switch can still forbid an
        all-new match.
        """
        previous = self._active
        previous.suppress_all_new_after = switch_time
        for variable, events in previous._negated_buffers.items():
            new_engine._negated_buffers[variable] = list(events)
        self._draining.append((previous, switch_time + self._window))
        self._active = new_engine
        self.switches_performed += 1

    def _retire_expired(self, now: float) -> None:
        still_draining = []
        for engine, retirement in self._draining:
            if now >= retirement:
                self._retired_counters = self._retired_counters.merge(engine.counters)
            else:
                still_draining.append((engine, retirement))
        self._draining = still_draining

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    def process(self, event: Event) -> List[Match]:
        """Feed one event to the active engine and to any draining engines."""
        if not self._draining:
            return self._active.process(event)
        self._retire_expired(event.timestamp)
        matches = self._active.process(event)
        for engine, _retirement in self._draining:
            matches.extend(engine.process(event))
        return matches

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PlanMigrationManager(active={type(self._active).__name__}, "
            f"draining={len(self._draining)}, switches={self.switches_performed})"
        )
