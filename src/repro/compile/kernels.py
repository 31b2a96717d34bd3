"""Condition lowering: specialized closures for the evaluation hot path.

The interpreted hot path pays, per candidate pairing, a virtual
``Condition.evaluate(binding)`` dispatch, a trial-``dict`` copy of the
partial match's bindings, a ``variables`` frozenset recomputation and a
``sorted()`` per statistics report.  This module lowers each atomic
conjunct — *once, at plan-build time* — into a specialized closure with
pre-resolved attribute names, comparison operator and variable roles, so
the per-pairing cost is a couple of attribute lookups and one operator
call.

Three kernel shapes match the three places conditions fire:

* **local** — ``fn(event) -> bool`` for single-variable acceptance
  predicates (NFA buffer admission, tree leaves), called once per event.
* **step** — ``fn(bindings, event) -> bool`` for the conditions that
  become fully bound when an NFA partial match is extended by one event.
* **join** — ``fn(left_bindings, right_bindings) -> bool`` for the
  conditions linking two sibling sub-matches at a tree node.

Two-variable comparisons are lowered from the
:class:`~repro.conditions.ComparisonShape` a condition declares
(``Condition.comparison_shape``): left variable and attribute, operator,
right variable and attribute, an additive margin on the left and what a
missing attribute reads as.  Attribute comparisons and the stocks
dataset's price-jump condition both declare one, so both run as one
comparison closure.

Every shape has a *safe fallback*: conditions that declare no shape
(user lambdas, disjunctions, negations, unknown subclasses) are wrapped
in a closure that reproduces the interpreted call exactly — build the
trial binding, call ``evaluate`` — so compiled mode never changes what
is detected, only how fast.

Kernels are **not** picklable (they close over bound methods and
operator functions); the :class:`~repro.compile.plan_kernels.CompiledPlanKernels`
holder drops them on pickling and recompiles from the plan on restore.
"""

from __future__ import annotations

import operator
from typing import Callable, FrozenSet, Iterable, Tuple

from repro.conditions import (
    AttributeThresholdCondition,
    ComparisonShape,
    Condition,
    PredicateCondition,
)

__all__ = [
    "CompiledKernel",
    "compile_local_kernel",
    "compile_step_kernel",
    "compile_join_kernel",
    "report_pairs_for",
]

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def report_pairs_for(variables: Iterable[str]) -> Tuple[Tuple[str, str], ...]:
    """The (sorted) variable pairs a condition outcome is reported under.

    Precomputed at compile time so the hot path never calls ``sorted``;
    mirrors :func:`repro.engine.semantics._report_condition`.
    """
    names = sorted(variables)
    if len(names) == 1:
        return ((names[0], names[0]),)
    return tuple(
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    )


class CompiledKernel:
    """One lowered conjunct: the closure plus its reporting metadata.

    ``specialized`` distinguishes structurally compiled kernels from
    interpreted-fallback wrappers (surfaced in benchmarks and tests).
    """

    __slots__ = ("condition", "fn", "report_pairs", "specialized")

    def __init__(
        self,
        condition: Condition,
        fn: Callable,
        report_pairs: Tuple[Tuple[str, str], ...],
        specialized: bool,
    ):
        self.condition = condition
        self.fn = fn
        self.report_pairs = report_pairs
        self.specialized = specialized

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "specialized" if self.specialized else "fallback"
        return f"CompiledKernel({self.condition!r}, {kind})"


# ----------------------------------------------------------------------
# Local kernels: fn(event) -> bool
# ----------------------------------------------------------------------
def compile_local_kernel(condition: Condition, variable: str) -> CompiledKernel:
    """Lower a single-variable condition for buffer/leaf admission."""
    specialized = (
        isinstance(condition, AttributeThresholdCondition)
        and condition.variable == variable
    )
    if specialized:
        op = _OPS[condition.op_symbol]
        attribute = condition.attribute
        value = condition.value

        def fn(event, _op=op, _attr=attribute, _value=value):
            attr = event.get(_attr)
            return attr is not None and _op(attr, _value)

    else:

        def fn(event, _condition=condition, _variable=variable):
            return bool(_condition.evaluate({_variable: event}))

    return CompiledKernel(condition, fn, ((variable, variable),), specialized)


# ----------------------------------------------------------------------
# Comparison lowering: one closure per declared ComparisonShape
# ----------------------------------------------------------------------
def _comparison(shape: ComparisonShape) -> Callable:
    """``compare(left_event, right_event) -> bool`` for a declared shape."""
    op = _OPS[shape.op]
    left_attribute = shape.left_attribute
    right_attribute = shape.right_attribute
    margin = shape.margin
    missing = shape.missing
    if missing is None:
        if margin:

            def compare(left, right):
                left_value = left.payload.get(left_attribute)
                if left_value is None:
                    return False
                right_value = right.payload.get(right_attribute)
                return right_value is not None and op(left_value + margin, right_value)

        else:

            def compare(left, right):
                left_value = left.payload.get(left_attribute)
                if left_value is None:
                    return False
                right_value = right.payload.get(right_attribute)
                return right_value is not None and op(left_value, right_value)

    elif margin:

        def compare(left, right):
            return op(
                left.payload.get(left_attribute, missing) + margin,
                right.payload.get(right_attribute, missing),
            )

    else:

        def compare(left, right):
            return op(
                left.payload.get(left_attribute, missing),
                right.payload.get(right_attribute, missing),
            )

    return compare


def _interpreted_step(condition: Condition, new_variable: str) -> Callable:
    """``fn(bindings, event)``: build the trial binding, call ``evaluate``."""

    def fn(bindings, event):
        trial = dict(bindings)
        trial[new_variable] = event
        return bool(condition.evaluate(trial))

    return fn


def _interpreted_join(condition: Condition) -> Callable:
    """``fn(left_bindings, right_bindings)``: merge them, call ``evaluate``."""

    def fn(left_bindings, right_bindings):
        combined = dict(left_bindings)
        combined.update(right_bindings)
        return bool(condition.evaluate(combined))

    return fn


# ----------------------------------------------------------------------
# Step kernels: fn(bindings, event) -> bool  (NFA extension edges)
# ----------------------------------------------------------------------
def compile_step_kernel(condition: Condition, new_variable: str) -> CompiledKernel:
    """Lower a condition that becomes fully bound at one NFA plan step.

    ``bindings`` holds single events during matching (Kleene bindings
    become lists only at finalize time, which stays interpreted); a cheap
    list guard falls back to the interpreted path if that invariant is
    ever broadened.
    """
    pairs = report_pairs_for(condition.variables)
    shape = condition.comparison_shape()
    if (
        isinstance(condition, AttributeThresholdCondition)
        and condition.variable == new_variable
    ):
        op = _OPS[condition.op_symbol]
        attribute = condition.attribute
        value = condition.value

        def fn(bindings, event, _op=op, _attr=attribute, _value=value):
            attr = event.get(_attr)
            return attr is not None and _op(attr, _value)

        return CompiledKernel(condition, fn, pairs, True)

    if (
        shape is not None
        and shape.left_variable != shape.right_variable
        and new_variable in (shape.left_variable, shape.right_variable)
    ):
        compare = _comparison(shape)
        interpreted = _interpreted_step(condition, new_variable)
        if shape.left_variable == new_variable:
            other_variable = shape.right_variable

            def fn(bindings, event):
                other = bindings[other_variable]
                if isinstance(other, list):
                    return interpreted(bindings, event)
                return compare(event, other)

        else:
            other_variable = shape.left_variable

            def fn(bindings, event):
                other = bindings[other_variable]
                if isinstance(other, list):
                    return interpreted(bindings, event)
                return compare(other, event)

        return CompiledKernel(condition, fn, pairs, True)

    if type(condition) is PredicateCondition and new_variable in condition.variables:
        # An opaque predicate stays a fallback (``specialized`` is about
        # structural lowering), but its call needs no trial binding: at
        # this step every variable but the new one is already bound, so
        # the positional arguments are read straight off the bindings —
        # Kleene lists included, exactly as ``evaluate`` would pass them.
        fn = _positional_predicate(condition, new_variable)
    else:
        fn = _interpreted_step(condition, new_variable)
    return CompiledKernel(condition, fn, pairs, False)


def _positional_predicate(condition: PredicateCondition, new_variable: str) -> Callable:
    """``fn(bindings, event)`` calling the user predicate positionally."""
    predicate = condition.predicate
    ordered = tuple(condition.ordered_variables)
    if len(ordered) == 2:
        first, second = ordered
        if second == new_variable:

            def fn(bindings, event, _predicate=predicate, _other=first):
                return bool(_predicate(bindings[_other], event))

        else:

            def fn(bindings, event, _predicate=predicate, _other=second):
                return bool(_predicate(event, bindings[_other]))

        return fn

    def fn(bindings, event, _predicate=predicate, _ordered=ordered, _new=new_variable):
        return bool(
            _predicate(*[event if v == _new else bindings[v] for v in _ordered])
        )

    return fn


# ----------------------------------------------------------------------
# Join kernels: fn(left_bindings, right_bindings) -> bool  (tree nodes)
# ----------------------------------------------------------------------
def compile_join_kernel(
    condition: Condition,
    left_variables: FrozenSet[str],
    right_variables: FrozenSet[str],
) -> CompiledKernel:
    """Lower a condition linking two sibling sub-matches of a tree node."""
    pairs = report_pairs_for(condition.variables)
    interpreted = _interpreted_join(condition)
    shape = condition.comparison_shape()
    if shape is not None:
        lhs_variable = shape.left_variable
        rhs_variable = shape.right_variable
        compare = _comparison(shape)
        if lhs_variable in left_variables and rhs_variable in right_variables:

            def fn(left_bindings, right_bindings):
                lhs = left_bindings[lhs_variable]
                rhs = right_bindings[rhs_variable]
                if isinstance(lhs, list) or isinstance(rhs, list):
                    return interpreted(left_bindings, right_bindings)
                return compare(lhs, rhs)

            return CompiledKernel(condition, fn, pairs, True)
        if lhs_variable in right_variables and rhs_variable in left_variables:

            def fn(left_bindings, right_bindings):
                lhs = right_bindings[lhs_variable]
                rhs = left_bindings[rhs_variable]
                if isinstance(lhs, list) or isinstance(rhs, list):
                    return interpreted(left_bindings, right_bindings)
                return compare(lhs, rhs)

            return CompiledKernel(condition, fn, pairs, True)
    return CompiledKernel(condition, interpreted, pairs, False)


def specialization_counts(kernels: Iterable[CompiledKernel]) -> Tuple[int, int]:
    """``(specialized, fallback)`` totals for a kernel collection."""
    compiled = 0
    fallback = 0
    for kernel in kernels:
        if kernel.specialized:
            compiled += 1
        else:
            fallback += 1
    return compiled, fallback

