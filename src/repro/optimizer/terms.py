"""Symbolic expressions over monitored statistics.

A deciding condition is an inequality ``f1(stat1) < f2(stat2)`` where the
two sides are functions of the monitored statistics.  To re-verify such a
condition against *future* statistics snapshots, the planners build each
side as a small :class:`StatExpression` tree whose leaves reference the
monitored quantities by name (arrival rate of a type, selectivity of a
variable pair).  :class:`ConstantTerm` freezes a value that does not react
to statistic changes.

Evaluation of an expression is a dictionary lookup per referenced
statistic and a multiplication or addition per node: linear in the size of
the formula the planner compared.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.statistics import StatisticsSnapshot


class StatExpression:
    """A real-valued function of a statistics snapshot."""

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering used in invariant reports."""
        raise NotImplementedError

    def __mul__(self, other: "StatExpression") -> "StatExpression":
        return ProductExpression((self, other))

    def __add__(self, other: "StatExpression") -> "StatExpression":
        return SumExpression((self, other))

    def __repr__(self) -> str:
        return self.describe()


class ConstantTerm(StatExpression):
    """A frozen constant (does not react to statistic changes)."""

    __slots__ = ("value", "label")

    def __init__(self, value: float, label: str = ""):
        self.value = float(value)
        self.label = label

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        return self.value

    def describe(self) -> str:
        if self.label:
            return f"{self.label}={self.value:.4g}"
        return f"{self.value:.4g}"


class RateTerm(StatExpression):
    """The arrival rate of an event type."""

    __slots__ = ("type_name",)

    def __init__(self, type_name: str):
        self.type_name = type_name

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        return snapshot.rate_or_default(self.type_name, 0.0)

    def describe(self) -> str:
        return f"rate({self.type_name})"


class SelectivityTerm(StatExpression):
    """The selectivity of the predicate between two pattern variables."""

    __slots__ = ("variable_a", "variable_b")

    def __init__(self, variable_a: str, variable_b: str):
        self.variable_a = variable_a
        self.variable_b = variable_b

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        return snapshot.selectivity(self.variable_a, self.variable_b)

    def describe(self) -> str:
        return f"sel({self.variable_a},{self.variable_b})"


class LocalSelectivityTerm(StatExpression):
    """The combined selectivity of conditions local to one variable."""

    __slots__ = ("variable",)

    def __init__(self, variable: str):
        self.variable = variable

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        return snapshot.local_selectivity(self.variable)

    def describe(self) -> str:
        return f"sel({self.variable})"


class ProductExpression(StatExpression):
    """Product of sub-expressions."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[StatExpression]):
        flattened = []
        for factor in factors:
            if isinstance(factor, ProductExpression):
                flattened.extend(factor.factors)
            else:
                flattened.append(factor)
        self.factors: Tuple[StatExpression, ...] = tuple(flattened)

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        value = 1.0
        for factor in self.factors:
            value *= factor.evaluate(snapshot)
        return value

    def describe(self) -> str:
        return " * ".join(factor.describe() for factor in self.factors)


class SumExpression(StatExpression):
    """Sum of sub-expressions."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[StatExpression]):
        flattened = []
        for term in terms:
            if isinstance(term, SumExpression):
                flattened.extend(term.terms)
            else:
                flattened.append(term)
        self.terms: Tuple[StatExpression, ...] = tuple(flattened)

    def evaluate(self, snapshot: StatisticsSnapshot) -> float:
        return sum(term.evaluate(snapshot) for term in self.terms)

    def describe(self) -> str:
        return " + ".join(term.describe() for term in self.terms)
