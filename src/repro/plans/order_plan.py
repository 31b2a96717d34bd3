"""Order-based evaluation plans.

An order-based plan is a permutation of the pattern's positive items: the
first item in the order *initiates* partial matches (the lazy-NFA principle
— make the rarest event the initiator), and each subsequent item extends
them, either from buffered history or from future arrivals.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import PlanError
from repro.patterns import Pattern, PatternItem
from repro.plans.base import EvaluationPlan
from repro.statistics import StatisticsSnapshot


class PlanStep:
    """What the pattern alone fixes about binding one plan position.

    When a partial match holding ``bound`` (the plan-order prefix) is
    extended by an event for ``variable``, a SEQ pattern requires that
    event to be strictly later than the events of the ``earlier`` bound
    variables and strictly earlier than those of the ``later`` ones (both
    empty for conjunctions, which impose no order).  These relations are
    the single source of the temporal order constraint for every engine
    execution mode.

    ``closed_to_arrivals`` tells whether no *future* event can ever take
    this step: events arrive in timestamp order, so an event that must
    precede an already-bound one has to be in the buffered history
    already.  ``shares_type`` tells whether some bound variable accepts
    the same event type, i.e. whether a candidate event could already be
    bound in the partial match it is offered to.
    """

    __slots__ = (
        "variable",
        "bound",
        "earlier",
        "later",
        "closed_to_arrivals",
        "shares_type",
    )

    def __init__(
        self,
        variable: str,
        bound: Tuple[str, ...],
        earlier: Tuple[str, ...],
        later: Tuple[str, ...],
        shares_type: bool,
    ):
        self.variable = variable
        self.bound = bound
        self.earlier = earlier
        self.later = later
        self.closed_to_arrivals = bool(later)
        self.shares_type = shares_type

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PlanStep({self.variable}: after {list(self.earlier)}, "
            f"before {list(self.later)})"
        )


class OrderBasedPlan(EvaluationPlan):
    """A processing order over the positive items of a pattern.

    Parameters
    ----------
    pattern:
        The pattern the plan evaluates.
    order:
        Variables of the pattern's positive items, in processing order.
        Must be a permutation of ``pattern.positive_items`` variables.
    """

    def __init__(self, pattern: Pattern, order: Sequence[str]):
        super().__init__(pattern)
        order = tuple(order)
        expected = {item.variable for item in pattern.positive_items}
        if set(order) != expected or len(order) != len(expected):
            raise PlanError(
                f"plan order {order!r} is not a permutation of the pattern's "
                f"positive variables {sorted(expected)!r}"
            )
        self._order = order

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def in_pattern_order(cls, pattern: Pattern) -> "OrderBasedPlan":
        """The trivial plan following the pattern's declared order."""
        return cls(pattern, [item.variable for item in pattern.positive_items])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def order(self) -> Tuple[str, ...]:
        """Variables in processing order."""
        return self._order

    @property
    def initiator(self) -> str:
        """The variable whose events open new partial matches."""
        return self._order[0]

    def items_in_order(self) -> List[PatternItem]:
        """Pattern items in processing order."""
        return [self.pattern.item_by_variable(variable) for variable in self._order]

    def steps(self) -> Tuple[PlanStep, ...]:
        """Per-position extension metadata, in processing order."""
        pattern = self.pattern
        is_sequence = pattern.is_sequence()
        type_of = {
            item.variable: item.event_type.name for item in pattern.positive_items
        }
        steps = []
        for position, variable in enumerate(self._order):
            bound = self._order[:position]
            earlier: Tuple[str, ...] = ()
            later: Tuple[str, ...] = ()
            if is_sequence:
                here = pattern.positive_index(variable)
                earlier = tuple(u for u in bound if pattern.positive_index(u) < here)
                later = tuple(u for u in bound if pattern.positive_index(u) > here)
            shares_type = any(type_of[u] == type_of[variable] for u in bound)
            steps.append(PlanStep(variable, bound, earlier, later, shares_type))
        return tuple(steps)

    def position(self, variable: str) -> int:
        """Position of a variable in the processing order."""
        try:
            return self._order.index(variable)
        except ValueError:
            raise PlanError(f"variable {variable!r} is not part of the plan") from None

    # ------------------------------------------------------------------
    # EvaluationPlan interface
    # ------------------------------------------------------------------
    def cost(self, snapshot: StatisticsSnapshot) -> float:
        from repro.optimizer.cost import order_plan_cost

        return order_plan_cost(snapshot, self.pattern, self._order)

    def block_labels(self) -> Sequence[str]:
        labels = []
        for index, variable in enumerate(self._order):
            item = self.pattern.item_by_variable(variable)
            labels.append(f"step {index + 1}: {item.event_type.name} ({variable})")
        return labels

    def variables_in_plan_order(self) -> Tuple[str, ...]:
        return self._order

    def describe(self) -> str:
        types = " -> ".join(
            self.pattern.item_by_variable(v).event_type.name for v in self._order
        )
        return f"OrderBasedPlan[{types}]"

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderBasedPlan):
            return NotImplemented
        return self._order == other._order and self.pattern.name == other.pattern.name

    def __hash__(self) -> int:
        return hash((self.pattern.name, self._order))

    def __repr__(self) -> str:
        return self.describe()
