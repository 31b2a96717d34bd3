"""Tree (ZStream-style) engine for tree-based plans.

Events are buffered at the leaves of the plan tree; every internal node
stores the sub-matches covering its leaves.  When a new event arrives it is
turned into a leaf sub-match and propagated upwards: at each internal node
the new sub-match is joined against the sub-matches stored at the sibling
subtree, and the joins that satisfy the temporal, window and predicate
constraints are stored and propagated further.  Sub-matches reaching the
root are complete and are emitted (after negation filtering and Kleene
expansion, shared with the NFA engine).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compile import EventBatchColumns
from repro.engine.base import EvaluationEngine
from repro.engine.match import Match, PartialMatch
from repro.engine.semantics import (
    evaluate_join_conditions,
    groups_order_respected,
    local_conditions_hold,
)
from repro.errors import EngineError
from repro.events import Event
from repro.plans import TreeBasedPlan, TreeInternalNode, TreeLeaf, TreePlanNode
from repro.statistics import StatisticsCollector


class _NodeStore:
    """Runtime state attached to one plan-tree node."""

    __slots__ = ("node", "parent", "sibling", "matches")

    def __init__(
        self,
        node: TreePlanNode,
        parent: Optional[TreeInternalNode],
        sibling: Optional[TreePlanNode],
    ):
        self.node = node
        self.parent = parent
        self.sibling = sibling
        self.matches: List[PartialMatch] = []


class TreeEvaluationEngine(EvaluationEngine):
    """Executes a :class:`TreeBasedPlan` over an event stream."""

    def __init__(
        self,
        plan: TreeBasedPlan,
        collector: Optional[StatisticsCollector] = None,
        expiry_interval_fraction: float = 0.25,
        profiler=None,
        compile_mode: str = "interpreted",
    ):
        if not isinstance(plan, TreeBasedPlan):
            raise EngineError("TreeEvaluationEngine requires a TreeBasedPlan")
        super().__init__(plan.pattern, collector, profiler, compile_mode)
        self.plan = plan
        self._stores: Dict[int, _NodeStore] = {}
        self._leaf_by_type: Dict[str, List[TreeLeaf]] = {}
        self._build_stores(plan.root, parent=None, sibling=None)
        for leaf in plan.leaves():
            self._leaf_by_type.setdefault(leaf.type_name, []).append(leaf)
        window = plan.pattern.window
        self._expiry_interval = (
            window * expiry_interval_fraction if window != float("inf") else float("inf")
        )
        self._last_expiry = float("-inf")
        self._compile_plan()

    def _build_stores(
        self,
        node: TreePlanNode,
        parent: Optional[TreeInternalNode],
        sibling: Optional[TreePlanNode],
    ) -> None:
        self._stores[id(node)] = _NodeStore(node, parent, sibling)
        if isinstance(node, TreeInternalNode):
            self._build_stores(node.left, parent=node, sibling=node.right)
            self._build_stores(node.right, parent=node, sibling=node.left)

    # ------------------------------------------------------------------
    # EvaluationEngine interface
    # ------------------------------------------------------------------
    def partial_match_count(self) -> int:
        return sum(len(store.matches) for store in self._stores.values())

    def state_occupancy(self) -> Dict[str, int]:
        return {
            ",".join(variables): count
            for variables, count in self.stored_match_counts().items()
            if count
        }

    def expire(self, now: float) -> None:
        window = self.pattern.window
        if window == float("inf"):
            return
        cutoff = now - window
        for store in self._stores.values():
            store.matches = [
                pm
                for pm in store.matches
                if pm.min_timestamp is None or pm.min_timestamp >= cutoff
            ]
        self._expire_special_buffers(now)
        self._last_expiry = now

    def process(self, event: Event) -> List[Match]:
        return self._process_event(event, None, 0)

    def process_batch(self, events: List[Event]) -> List[Match]:
        """Batch entry point: columnar leaf-admission sweep in compiled modes."""
        if self._compiled is None or not events:
            return super().process_batch(events)
        columns = EventBatchColumns(events)
        verdicts = self._compiled.local_verdicts(columns, self.collector)
        matches: List[Match] = []
        for row, event in enumerate(columns.events):
            matches.extend(self._process_event(event, verdicts, row))
        return matches

    def _process_event(self, event: Event, verdicts, row: int) -> List[Match]:
        now = event.timestamp
        self.counters.events_processed += 1
        if now - self._last_expiry >= self._expiry_interval:
            self.expire(now)
        self._buffer_special_items(event)

        compiled = self._compiled
        matches: List[Match] = []
        for leaf in self._leaf_by_type.get(event.type_name, ()):
            if verdicts is not None:
                held = verdicts[leaf.variable][row]
            elif compiled is not None:
                held = compiled.evaluate_local(leaf.variable, event, self.collector)
            else:
                held = local_conditions_hold(
                    self.pattern, leaf.variable, event, self.collector,
                    conditions=self._conditions,
                )
            if self.profiler is not None:
                self.profiler.record_edge(f"leaf[{leaf.variable}]", held)
            if not held:
                continue
            leaf_match = PartialMatch.of(leaf.variable, event)
            self.counters.partial_matches_created += 1
            matches.extend(self._store_and_propagate(leaf, leaf_match, now))
        if self.profiler is not None:
            self.profiler.observe_population(self.partial_match_count())
        return matches

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _store_and_propagate(
        self, node: TreePlanNode, partial: PartialMatch, now: float
    ) -> List[Match]:
        """Store a new sub-match at ``node`` and join it up the tree."""
        store = self._stores[id(node)]
        emitted: List[Match] = []

        if store.parent is None:
            # The node is the root: the sub-match covers all positive items.
            match = self._finalize(partial, now)
            if match is not None:
                emitted.append(match)
            return emitted

        store.matches.append(partial)
        sibling_store = self._stores[id(store.sibling)]
        parent_node = store.parent
        profiler = self.profiler
        node_id = id(node)
        for sibling_match in sibling_store.matches:
            joined = self._try_join(partial, sibling_match, now, node_id)
            if profiler is not None:
                profiler.record_edge(
                    "join[" + ",".join(parent_node.variables()) + "]",
                    joined is not None,
                )
            if joined is not None:
                emitted.extend(self._store_and_propagate(parent_node, joined, now))
        return emitted

    def _try_join(
        self, left: PartialMatch, right: PartialMatch, now: float, node_id: int
    ) -> Optional[PartialMatch]:
        """Join two sibling sub-matches if all constraints hold.

        ``left`` is the sub-match that just arrived at the node identified
        by ``node_id``; in compiled mode that id selects the pre-lowered
        join kernels oriented with ``left``'s variables on the left side.
        """
        self.counters.extension_attempts += 1
        span_min = min(
            value
            for value in (left.min_timestamp, right.min_timestamp)
            if value is not None
        )
        span_max = max(
            value
            for value in (left.max_timestamp, right.max_timestamp)
            if value is not None
        )
        if self.pattern.window != float("inf") and span_max - span_min > self.pattern.window:
            return None
        if not groups_order_respected(self.pattern, left.bindings, right.bindings):
            return None
        compiled = self._compiled
        if compiled is not None:
            if not compiled.evaluate_join(
                node_id, left.bindings, right.bindings, self.collector, now
            ):
                return None
        elif not evaluate_join_conditions(
            self.pattern, left.bindings, right.bindings, self.collector, now,
            conditions=self._conditions,
        ):
            return None
        self.counters.partial_matches_created += 1
        return left.merged(right)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests)
    # ------------------------------------------------------------------
    def stored_match_counts(self) -> Dict[Tuple[str, ...], int]:
        """Number of stored sub-matches per tree node (keyed by its variables)."""
        return {
            store.node.variables(): len(store.matches)
            for store in self._stores.values()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TreeEvaluationEngine(plan={self.plan.describe()}, "
            f"partial_matches={self.partial_match_count()})"
        )
