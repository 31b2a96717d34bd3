"""Tree (ZStream-style) engine for tree-based plans.

Events are buffered at the leaves of the plan tree; every internal node
stores the sub-matches covering its leaves.  A per-type arrival table,
derived from the plan when it is compiled (like the NFA's), names the
leaves a type serves with their local tests and whether the type feeds a
negated or Kleene side buffer; a type the pattern never names only clocks
expiry.  When a new event arrives it is turned into a leaf sub-match and
propagated upwards: at each internal node the new sub-match is joined
against the sub-matches stored at the sibling subtree, and the joins that
satisfy the temporal, window and predicate constraints are stored and
propagated further.  Sub-matches reaching the root are complete and are
emitted (after negation filtering and Kleene expansion, shared with the
NFA engine).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.engine.base import EvaluationEngine
from repro.engine.match import Match, PartialMatch
from repro.engine.semantics import evaluate_join_conditions, groups_order_respected
from repro.errors import EngineError
from repro.events import Event
from repro.plans import TreeBasedPlan, TreeInternalNode, TreeLeaf, TreePlanNode
from repro.statistics import StatisticsCollector


class _NodeStore:
    """Runtime state attached to one plan-tree node.

    Stores link to their parent's and sibling's stores directly, and the
    compiled join kernels are looked up by the node's variables, so a
    pickled (checkpointed) engine restores with its tree intact: nothing
    is keyed by object identity.
    """

    __slots__ = ("node", "variables", "parent", "sibling", "matches")

    def __init__(self, node: TreePlanNode, parent: Optional["_NodeStore"]):
        self.node = node
        self.variables = frozenset(node.variables())
        self.parent = parent
        self.sibling: Optional[_NodeStore] = None
        self.matches: List[PartialMatch] = []


class TreeEvaluationEngine(EvaluationEngine):
    """Executes a :class:`TreeBasedPlan` over an event stream."""

    def __init__(
        self,
        plan: TreeBasedPlan,
        collector: Optional[StatisticsCollector] = None,
        expiry_interval_fraction: float = 0.25,
        compile_mode: str = "interpreted",
    ):
        if not isinstance(plan, TreeBasedPlan):
            raise EngineError("TreeEvaluationEngine requires a TreeBasedPlan")
        super().__init__(plan.pattern, collector, compile_mode)
        self.plan = plan
        self._stores: List[_NodeStore] = []
        self._leaf_stores_by_type: Dict[str, List[_NodeStore]] = {}
        self._build_stores(plan.root, parent=None)
        window = plan.pattern.window
        self._expiry_interval = (
            window * expiry_interval_fraction if window != float("inf") else float("inf")
        )
        self._last_expiry = float("-inf")
        self._compile_plan()

    def _compile_plan(self) -> None:
        super()._compile_plan()
        self._bind_leaves()

    def _bind_leaves(self) -> None:
        """Derive the per-type arrival table over the leaf stores.

        Each type maps to the leaves it serves with their local acceptance
        tests, and says whether the type feeds a negated or Kleene side
        buffer.  Derived state like the window read off the pattern: never
        pickled, rebuilt here at construction and on restore.
        """
        self._window = self.pattern.window
        self._arrivals = self._arrival_table(
            {
                type_name: [(store, store.node.variable) for store in stores]
                for type_name, stores in self._leaf_stores_by_type.items()
            }
        )

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_leaves()

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_window"]
        del state["_arrivals"]
        return state

    def _build_stores(self, node: TreePlanNode, parent: Optional[_NodeStore]) -> _NodeStore:
        store = _NodeStore(node, parent)
        self._stores.append(store)
        if isinstance(node, TreeInternalNode):
            left = self._build_stores(node.left, parent=store)
            right = self._build_stores(node.right, parent=store)
            left.sibling, right.sibling = right, left
        elif isinstance(node, TreeLeaf):
            self._leaf_stores_by_type.setdefault(node.type_name, []).append(store)
        return store

    # ------------------------------------------------------------------
    # EvaluationEngine interface
    # ------------------------------------------------------------------
    def partial_match_count(self) -> int:
        return sum(len(store.matches) for store in self._stores)

    def state_occupancy(self) -> Dict[str, int]:
        return {
            ",".join(variables): count
            for variables, count in self.stored_match_counts().items()
            if count
        }

    def expire(self, now: float) -> None:
        window = self._window
        if window == float("inf"):
            return
        cutoff = now - window
        for store in self._stores:
            stored = store.matches
            if not stored:
                continue
            kept = [
                pm
                for pm in stored
                if pm.min_timestamp is None or pm.min_timestamp >= cutoff
            ]
            if len(kept) != len(stored):
                store.matches = kept
        self._expire_special_buffers(now)
        self._last_expiry = now

    def process(self, event: Event) -> List[Match]:
        now = event.timestamp
        self.counters.events_processed += 1
        if now - self._last_expiry >= self._expiry_interval:
            self.expire(now)
        arrival = self._arrivals.get(event.type_name)
        if arrival is None:
            return []
        leaves, special = arrival
        if special:
            self._buffer_special_items(event)

        matches: List[Match] = []
        for store, accept in leaves:
            if accept is not None and not accept(event):
                continue
            leaf_match = PartialMatch.of(store.node.variable, event)
            self.counters.partial_matches_created += 1
            matches.extend(self._store_and_propagate(store, leaf_match, now))
        return matches

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _store_and_propagate(
        self, store: _NodeStore, partial: PartialMatch, now: float
    ) -> List[Match]:
        """Store a new sub-match at ``store``'s node and join it up the tree."""
        emitted: List[Match] = []
        parent = store.parent
        if parent is None:
            # The node is the root: the sub-match covers all positive items.
            match = self._finalize(partial, now)
            if match is not None:
                emitted.append(match)
            return emitted

        store.matches.append(partial)
        side = store.variables
        for sibling_match in store.sibling.matches:
            joined = self._try_join(partial, sibling_match, now, side)
            if joined is not None:
                emitted.extend(self._store_and_propagate(parent, joined, now))
        return emitted

    def _try_join(
        self, left: PartialMatch, right: PartialMatch, now: float, side: FrozenSet[str]
    ) -> Optional[PartialMatch]:
        """Join two sibling sub-matches if all constraints hold.

        ``left`` is the sub-match that just arrived at the node covering
        the variables ``side``; in compiled mode they select the
        pre-lowered join kernels oriented with ``left``'s variables on the
        left side.
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
        if span_max - span_min > self._window:
            return None
        if not groups_order_respected(self.pattern, left.bindings, right.bindings):
            return None
        compiled = self._compiled
        if compiled is not None:
            if not compiled.evaluate_join(
                side, left.bindings, right.bindings, self.collector, now
            ):
                return None
        elif not evaluate_join_conditions(
            self.pattern, left.bindings, right.bindings, self.collector, now
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
            for store in self._stores
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TreeEvaluationEngine(plan={self.plan.describe()}, "
            f"partial_matches={self.partial_match_count()})"
        )
