"""Tree-based evaluation plans (the ZStream model).

A tree plan is a binary tree whose leaves are the pattern's positive items
and whose internal nodes define the order in which sub-matches are joined
and their mutual predicates evaluated.  Matches reaching the root are
reported.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.patterns import Pattern
from repro.plans.base import EvaluationPlan
from repro.statistics import StatisticsSnapshot


class TreePlanNode:
    """Base class for tree plan nodes."""

    def variables(self) -> Tuple[str, ...]:
        """Pattern variables covered by the subtree, in leaf order."""
        raise NotImplementedError

    def leaves(self) -> Tuple["TreeLeaf", ...]:
        raise NotImplementedError

    def internal_nodes_bottom_up(self) -> List["TreeInternalNode"]:
        """Internal nodes of the subtree in bottom-up (post-order) order."""
        raise NotImplementedError

    def height(self) -> int:
        raise NotImplementedError

    def structure_key(self) -> tuple:
        """Hashable structural identity (used for plan equality)."""
        raise NotImplementedError


class TreeLeaf(TreePlanNode):
    """A leaf node accepting events bound to one pattern variable."""

    __slots__ = ("variable", "type_name")

    def __init__(self, variable: str, type_name: str):
        self.variable = variable
        self.type_name = type_name

    def variables(self) -> Tuple[str, ...]:
        return (self.variable,)

    def leaves(self) -> Tuple["TreeLeaf", ...]:
        return (self,)

    def internal_nodes_bottom_up(self) -> List["TreeInternalNode"]:
        return []

    def height(self) -> int:
        return 0

    def structure_key(self) -> tuple:
        return ("leaf", self.variable)

    def __repr__(self) -> str:
        return f"{self.type_name}({self.variable})"


class TreeInternalNode(TreePlanNode):
    """An internal join node combining two subtrees."""

    __slots__ = ("left", "right")

    def __init__(self, left: TreePlanNode, right: TreePlanNode):
        overlap = set(left.variables()) & set(right.variables())
        if overlap:
            raise PlanError(f"tree node children overlap on variables {sorted(overlap)}")
        self.left = left
        self.right = right

    def variables(self) -> Tuple[str, ...]:
        return self.left.variables() + self.right.variables()

    def leaves(self) -> Tuple[TreeLeaf, ...]:
        return self.left.leaves() + self.right.leaves()

    def internal_nodes_bottom_up(self) -> List["TreeInternalNode"]:
        nodes = self.left.internal_nodes_bottom_up()
        nodes.extend(self.right.internal_nodes_bottom_up())
        nodes.append(self)
        return nodes

    def height(self) -> int:
        return 1 + max(self.left.height(), self.right.height())

    def structure_key(self) -> tuple:
        return ("node", self.left.structure_key(), self.right.structure_key())

    def __repr__(self) -> str:
        return f"({self.left!r}, {self.right!r})"


class TreeBasedPlan(EvaluationPlan):
    """A binary evaluation tree over the pattern's positive items."""

    def __init__(self, pattern: Pattern, root: TreePlanNode):
        super().__init__(pattern)
        expected = {item.variable for item in pattern.positive_items}
        covered = set(root.variables())
        if covered != expected:
            raise PlanError(
                f"tree plan covers {sorted(covered)} but pattern's positive "
                f"variables are {sorted(expected)}"
            )
        self._root = root

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def left_deep(cls, pattern: Pattern, order: Optional[Sequence[str]] = None) -> "TreeBasedPlan":
        """A left-deep tree following ``order`` (default: pattern order)."""
        variables = list(order) if order else [i.variable for i in pattern.positive_items]
        if len(variables) == 0:
            raise PlanError("cannot build a tree plan for an empty pattern")
        nodes: List[TreePlanNode] = [
            TreeLeaf(v, pattern.item_by_variable(v).event_type.name) for v in variables
        ]
        root = nodes[0]
        for node in nodes[1:]:
            root = TreeInternalNode(root, node)
        return cls(pattern, root)

    @classmethod
    def right_deep(cls, pattern: Pattern, order: Optional[Sequence[str]] = None) -> "TreeBasedPlan":
        """A right-deep tree following ``order`` (default: pattern order)."""
        variables = list(order) if order else [i.variable for i in pattern.positive_items]
        nodes: List[TreePlanNode] = [
            TreeLeaf(v, pattern.item_by_variable(v).event_type.name) for v in variables
        ]
        root = nodes[-1]
        for node in reversed(nodes[:-1]):
            root = TreeInternalNode(node, root)
        return cls(pattern, root)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> TreePlanNode:
        return self._root

    def leaves(self) -> Tuple[TreeLeaf, ...]:
        return self._root.leaves()

    def internal_nodes_bottom_up(self) -> List[TreeInternalNode]:
        return self._root.internal_nodes_bottom_up()

    def iter_nodes(self) -> Iterator[TreePlanNode]:
        """All nodes (leaves and internal), bottom-up."""
        yield from self.leaves()
        yield from self.internal_nodes_bottom_up()

    # ------------------------------------------------------------------
    # EvaluationPlan interface
    # ------------------------------------------------------------------
    def cost(self, snapshot: StatisticsSnapshot) -> float:
        from repro.optimizer.cost import tree_plan_cost

        return tree_plan_cost(snapshot, self.pattern, self._root)

    def block_labels(self) -> Sequence[str]:
        labels = []
        for node in self.internal_nodes_bottom_up():
            left = ",".join(node.left.variables())
            right = ",".join(node.right.variables())
            labels.append(f"join [{left}] with [{right}]")
        return labels

    def variables_in_plan_order(self) -> Tuple[str, ...]:
        return self._root.variables()

    def describe(self) -> str:
        return f"TreeBasedPlan[{self._root!r}]"

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeBasedPlan):
            return NotImplemented
        return (
            self._root.structure_key() == other._root.structure_key()
            and self.pattern.name == other.pattern.name
        )

    def __hash__(self) -> int:
        return hash((self.pattern.name, self._root.structure_key()))

    def __repr__(self) -> str:
        return self.describe()
