"""Runtime evaluation engines.

Two engines execute evaluation plans over event streams:

* :class:`LazyNFAEngine` — executes order-based plans following the lazy
  evaluation principle (the rarest event type initiates partial matches and
  the remaining steps are satisfied from buffered history or later
  arrivals).
* :class:`TreeEvaluationEngine` — executes tree-based (ZStream) plans by
  buffering events at leaves and joining sub-matches bottom-up.

:class:`PlanMigrationManager` implements the on-the-fly plan replacement
strategy of Section 2.2 (old and new plan coexist for one time window), and
:class:`AdaptiveCEPEngine` ties everything together into the full
detection–adaptation loop of Algorithm 1.
"""

from repro.engine.match import PartialMatch, Match
from repro.engine.base import EvaluationEngine, EngineCounters
from repro.engine.nfa import LazyNFAEngine
from repro.engine.tree import TreeEvaluationEngine
from repro.engine.migration import PlanMigrationManager
from repro.engine.cep_engine import AdaptiveCEPEngine, RunResult, engine_for_plan
from repro.engine.multi_pattern import MultiPatternEngine
from repro.engine.protocol import CEPEngine
from repro.engine.state import restore_engine, snapshot_engine

__all__ = [
    "CEPEngine",
    "PartialMatch",
    "Match",
    "EvaluationEngine",
    "EngineCounters",
    "LazyNFAEngine",
    "TreeEvaluationEngine",
    "PlanMigrationManager",
    "AdaptiveCEPEngine",
    "MultiPatternEngine",
    "RunResult",
    "engine_for_plan",
    "snapshot_engine",
    "restore_engine",
]
