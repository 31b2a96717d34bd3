"""Atomic conditions: comparisons over event attributes.

These are the leaves of the condition tree.  Each atomic condition knows
which pattern variables it constrains, so the planner can attribute a
selectivity to the (unordered) pair of event positions it couples.

Kleene-closure variables bind to a *list* of events.  Atomic conditions
applied to such a variable are interpreted per-element: the condition must
hold for every event in the list (the usual "all matched events satisfy the
predicate" semantics of SASE-style Kleene operators).
"""

from __future__ import annotations

import operator
from typing import Callable, FrozenSet, Mapping, Optional, Sequence

from repro.conditions.base import _OPAQUE_TOKENS, Condition
from repro.errors import PatternError

_OPERATORS: dict = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _as_events(bound_value: object) -> Sequence[object]:
    """Normalise a binding value to a sequence of events.

    Kleene variables bind to lists; plain variables bind to single events.
    """
    if isinstance(bound_value, (list, tuple)):
        return bound_value
    return (bound_value,)


class _SingleVariableCondition(Condition):
    """Base class for conditions referencing exactly one variable."""

    def __init__(self, variable: str):
        if not variable:
            raise PatternError("condition variable name must be non-empty")
        self._variable = variable

    @property
    def variable(self) -> str:
        return self._variable

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset({self._variable})


class AttributeThresholdCondition(_SingleVariableCondition):
    """Compare an attribute of one event against a constant.

    Example: ``AttributeThresholdCondition("a", "speed", "<", 60.0)``
    corresponds to the SASE predicate ``a.speed < 60``.
    """

    def __init__(self, variable: str, attribute: str, op: str, value: float):
        super().__init__(variable)
        if op not in _OPERATORS:
            raise PatternError(f"unsupported comparison operator {op!r}")
        self._attribute = attribute
        self._op_symbol = op
        self._op = _OPERATORS[op]
        self._value = value

    @property
    def attribute(self) -> str:
        return self._attribute

    @property
    def op_symbol(self) -> str:
        return self._op_symbol

    @property
    def value(self) -> float:
        return self._value

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        if self._variable not in binding:
            return True
        for event in _as_events(binding[self._variable]):
            attr = event.get(self._attribute)
            if attr is None or not self._op(attr, self._value):
                return False
        return True

    def cache_key(self) -> str:
        return (
            f"thr:{self._variable}.{self._attribute}"
            f"{self._op_symbol}{self._value!r}"
        )

    def __repr__(self) -> str:
        return f"{self._variable}.{self._attribute} {self._op_symbol} {self._value!r}"


class AttributeComparisonCondition(Condition):
    """Compare attributes of two different pattern variables.

    Example: ``AttributeComparisonCondition("a", "person_id", "==", "b",
    "person_id")`` corresponds to ``a.person_id = b.person_id`` from the
    paper's Example 1.
    """

    def __init__(
        self,
        left_variable: str,
        left_attribute: str,
        op: str,
        right_variable: str,
        right_attribute: str,
    ):
        if op not in _OPERATORS:
            raise PatternError(f"unsupported comparison operator {op!r}")
        if left_variable == right_variable:
            raise PatternError(
                "AttributeComparisonCondition requires two distinct variables; "
                "use AttributeThresholdCondition or PredicateCondition instead"
            )
        self._left_variable = left_variable
        self._left_attribute = left_attribute
        self._right_variable = right_variable
        self._right_attribute = right_attribute
        self._op_symbol = op
        self._op = _OPERATORS[op]

    @property
    def left_variable(self) -> str:
        return self._left_variable

    @property
    def right_variable(self) -> str:
        return self._right_variable

    @property
    def left_attribute(self) -> str:
        return self._left_attribute

    @property
    def right_attribute(self) -> str:
        return self._right_attribute

    @property
    def op_symbol(self) -> str:
        return self._op_symbol

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset({self._left_variable, self._right_variable})

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        if (
            self._left_variable not in binding
            or self._right_variable not in binding
        ):
            return True
        left_events = _as_events(binding[self._left_variable])
        right_events = _as_events(binding[self._right_variable])
        for left in left_events:
            left_value = left.get(self._left_attribute)
            if left_value is None:
                return False
            for right in right_events:
                right_value = right.get(self._right_attribute)
                if right_value is None or not self._op(left_value, right_value):
                    return False
        return True

    def cache_key(self) -> str:
        return (
            f"cmp:{self._left_variable}.{self._left_attribute}"
            f"{self._op_symbol}{self._right_variable}.{self._right_attribute}"
        )

    def __repr__(self) -> str:
        return (
            f"{self._left_variable}.{self._left_attribute} {self._op_symbol} "
            f"{self._right_variable}.{self._right_attribute}"
        )


class EqualityCondition(AttributeComparisonCondition):
    """Equality join between the same attribute of two variables.

    A convenience shorthand for the very common equi-join predicate, e.g.
    ``EqualityCondition("a", "b", "person_id")``.
    """

    def __init__(self, left_variable: str, right_variable: str, attribute: str):
        super().__init__(left_variable, attribute, "==", right_variable, attribute)


class PredicateCondition(Condition):
    """Arbitrary user-supplied predicate over one or more variables.

    The predicate receives the bound events positionally in the order the
    variables were declared.  For Kleene variables the bound value is the
    list of events.

    Parameters
    ----------
    variables:
        The variable names the predicate constrains, in call order.
    predicate:
        Callable returning a truthy value when the condition is satisfied.
    name:
        Optional label used in ``repr`` and planner diagnostics.
    """

    def __init__(
        self,
        variables: Sequence[str],
        predicate: Callable[..., bool],
        name: Optional[str] = None,
    ):
        if not variables:
            raise PatternError("PredicateCondition requires at least one variable")
        if len(set(variables)) != len(variables):
            raise PatternError("PredicateCondition variables must be distinct")
        self._ordered_variables = tuple(variables)
        self._predicate = predicate
        self._name = name or getattr(predicate, "__name__", "predicate")
        # Assigned eagerly (not lazily like the base class) so the token is
        # minted before any copy of this condition is pickled to a process
        # worker — every replica then profiles under the same key, while
        # two *different* lambdas with identical reprs keep distinct keys.
        self.cache_key()

    @property
    def ordered_variables(self) -> Sequence[str]:
        return self._ordered_variables

    @property
    def predicate(self) -> Callable[..., bool]:
        """The user callable, invoked with the bound values positionally."""
        return self._predicate

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset(self._ordered_variables)

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        if not self.is_fully_bound(binding):
            return True
        arguments = [binding[variable] for variable in self._ordered_variables]
        return bool(self._predicate(*arguments))

    def cache_key(self) -> str:
        token = getattr(self, "_cache_token", None)
        if token is None:
            token = self._cache_token = next(_OPAQUE_TOKENS)
        return (
            f"pred:{self._name}({','.join(self._ordered_variables)})#{token}"
        )

    def __repr__(self) -> str:
        return f"{self._name}({', '.join(self._ordered_variables)})"
