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
  predicates (NFA buffer admission, tree leaves).  Local kernels also
  carry a ``rows_fn(columns, rows) -> List[bool]`` columnar variant that
  sweeps a struct-of-arrays :class:`~repro.compile.columnar.EventBatchColumns`
  view and returns an accept bitmask for a whole batch.
* **step** — ``fn(bindings, event) -> bool`` for the conditions that
  become fully bound when an NFA partial match is extended by one event.
* **join** — ``fn(left_bindings, right_bindings) -> bool`` for the
  conditions linking two sibling sub-matches at a tree node.

Every shape has a *safe fallback*: conditions the compiler does not
understand structurally (user lambdas, disjunctions, negations, unknown
subclasses) are wrapped in a closure that reproduces the interpreted
call exactly — build the trial binding, call ``evaluate`` — so compiled
mode never changes what is detected, only how fast.

Kernels are **not** picklable (they close over bound methods and
operator functions); the :class:`~repro.compile.plan_kernels.CompiledPlanKernels`
holder drops them on pickling and recompiles from the plan on restore.

When a profile is attached (engine built with ``introspect=True``) the
kernel itself is timed — the profile rows aggregate compiled-kernel time
under the same ``cache_key`` the interpreted ``ProfiledCondition``
wrappers use, so hotspot reports stay comparable across modes.
"""

from __future__ import annotations

import operator
import time
from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from repro.conditions import (
    AttributeComparisonCondition,
    AttributeThresholdCondition,
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

    __slots__ = ("condition", "fn", "rows_fn", "report_pairs", "specialized")

    def __init__(
        self,
        condition: Condition,
        fn: Callable,
        report_pairs: Tuple[Tuple[str, str], ...],
        specialized: bool,
        rows_fn: Optional[Callable] = None,
    ):
        self.condition = condition
        self.fn = fn
        self.rows_fn = rows_fn
        self.report_pairs = report_pairs
        self.specialized = specialized

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "specialized" if self.specialized else "fallback"
        return f"CompiledKernel({self.condition!r}, {kind})"


# ----------------------------------------------------------------------
# Profiling wrappers (applied only when a profile object is attached)
# ----------------------------------------------------------------------
def _timed1(fn: Callable, profile) -> Callable:
    def timed(a, _fn=fn, _profile=profile, _clock=time.perf_counter):
        started = _clock()
        outcome = _fn(a)
        _profile.seconds += _clock() - started
        _profile.calls += 1
        if outcome:
            _profile.passes += 1
        return outcome

    return timed


def _timed2(fn: Callable, profile) -> Callable:
    def timed(a, b, _fn=fn, _profile=profile, _clock=time.perf_counter):
        started = _clock()
        outcome = _fn(a, b)
        _profile.seconds += _clock() - started
        _profile.calls += 1
        if outcome:
            _profile.passes += 1
        return outcome

    return timed


def _timed_rows(rows_fn: Callable, profile) -> Callable:
    def timed(columns, rows, _fn=rows_fn, _profile=profile, _clock=time.perf_counter):
        started = _clock()
        outcomes = _fn(columns, rows)
        _profile.seconds += _clock() - started
        _profile.calls += len(outcomes)
        _profile.passes += sum(outcomes)
        return outcomes

    return timed


# ----------------------------------------------------------------------
# Local kernels: fn(event) -> bool  (+ columnar rows_fn)
# ----------------------------------------------------------------------
def compile_local_kernel(
    condition: Condition, variable: str, profile=None
) -> CompiledKernel:
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

        def rows_fn(columns, rows, _op=op, _attr=attribute, _value=value):
            column = columns.column(_attr)
            return [
                (attr := column[i]) is not None and _op(attr, _value)
                for i in rows
            ]

    else:

        def fn(event, _condition=condition, _variable=variable):
            return bool(_condition.evaluate({_variable: event}))

        def rows_fn(columns, rows, _condition=condition, _variable=variable):
            events = columns.events
            return [
                bool(_condition.evaluate({_variable: events[i]})) for i in rows
            ]

    if profile is not None:
        fn = _timed1(fn, profile)
        rows_fn = _timed_rows(rows_fn, profile)
    return CompiledKernel(
        condition, fn, ((variable, variable),), specialized, rows_fn
    )


# ----------------------------------------------------------------------
# Step kernels: fn(bindings, event) -> bool  (NFA extension edges)
# ----------------------------------------------------------------------
def compile_step_kernel(
    condition: Condition, new_variable: str, profile=None
) -> CompiledKernel:
    """Lower a condition that becomes fully bound at one NFA plan step.

    ``bindings`` holds single events during matching (Kleene bindings
    become lists only at finalize time, which stays interpreted); a cheap
    list guard falls back to the interpreted path if that invariant is
    ever broadened.
    """
    pairs = report_pairs_for(condition.variables)
    fn = None
    specialized = False
    if (
        isinstance(condition, AttributeThresholdCondition)
        and condition.variable == new_variable
    ):
        op = _OPS[condition.op_symbol]
        attribute = condition.attribute
        value = condition.value
        specialized = True

        def fn(bindings, event, _op=op, _attr=attribute, _value=value):
            attr = event.get(_attr)
            return attr is not None and _op(attr, _value)

    elif isinstance(condition, AttributeComparisonCondition):
        op = _OPS[condition.op_symbol]
        left_variable = condition.left_variable
        left_attribute = condition.left_attribute
        right_variable = condition.right_variable
        right_attribute = condition.right_attribute
        if left_variable == new_variable:
            specialized = True

            def fn(
                bindings,
                event,
                _condition=condition,
                _new=new_variable,
                _op=op,
                _la=left_attribute,
                _rv=right_variable,
                _ra=right_attribute,
            ):
                other = bindings[_rv]
                if isinstance(other, list):
                    trial = dict(bindings)
                    trial[_new] = event
                    return bool(_condition.evaluate(trial))
                left_value = event.get(_la)
                if left_value is None:
                    return False
                right_value = other.get(_ra)
                return right_value is not None and _op(left_value, right_value)

        elif right_variable == new_variable:
            specialized = True

            def fn(
                bindings,
                event,
                _condition=condition,
                _new=new_variable,
                _op=op,
                _lv=left_variable,
                _la=left_attribute,
                _ra=right_attribute,
            ):
                other = bindings[_lv]
                if isinstance(other, list):
                    trial = dict(bindings)
                    trial[_new] = event
                    return bool(_condition.evaluate(trial))
                left_value = other.get(_la)
                if left_value is None:
                    return False
                right_value = event.get(_ra)
                return right_value is not None and _op(left_value, right_value)

    elif type(condition) is PredicateCondition and new_variable in condition.variables:
        # An opaque predicate stays a fallback (``specialized`` is about
        # structural lowering), but its call needs no trial binding: at
        # this step every variable but the new one is already bound, so
        # the positional arguments are read straight off the bindings —
        # Kleene lists included, exactly as ``evaluate`` would pass them.
        fn = _positional_predicate(condition, new_variable)

    if fn is None:

        def fn(bindings, event, _condition=condition, _new=new_variable):
            trial = dict(bindings)
            trial[_new] = event
            return bool(_condition.evaluate(trial))

    if profile is not None:
        fn = _timed2(fn, profile)
    return CompiledKernel(condition, fn, pairs, specialized)


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
    profile=None,
) -> CompiledKernel:
    """Lower a condition linking two sibling sub-matches of a tree node."""
    pairs = report_pairs_for(condition.variables)
    fn = None
    specialized = False
    if isinstance(condition, AttributeComparisonCondition):
        op = _OPS[condition.op_symbol]
        left_variable = condition.left_variable
        left_attribute = condition.left_attribute
        right_variable = condition.right_variable
        right_attribute = condition.right_attribute
        if left_variable in left_variables and right_variable in right_variables:
            lhs_side, rhs_side = 0, 1
        elif left_variable in right_variables and right_variable in left_variables:
            lhs_side, rhs_side = 1, 0
        else:  # pragma: no cover - conditions_between guarantees coverage
            lhs_side = rhs_side = None
        if lhs_side is not None:
            specialized = True

            def fn(
                left_bindings,
                right_bindings,
                _condition=condition,
                _op=op,
                _lv=left_variable,
                _la=left_attribute,
                _rv=right_variable,
                _ra=right_attribute,
                _lhs=lhs_side,
                _rhs=rhs_side,
            ):
                sides = (left_bindings, right_bindings)
                lhs = sides[_lhs][_lv]
                rhs = sides[_rhs][_rv]
                if isinstance(lhs, list) or isinstance(rhs, list):
                    combined = dict(left_bindings)
                    combined.update(right_bindings)
                    return bool(_condition.evaluate(combined))
                left_value = lhs.get(_la)
                if left_value is None:
                    return False
                right_value = rhs.get(_ra)
                return right_value is not None and _op(left_value, right_value)

    if fn is None:

        def fn(left_bindings, right_bindings, _condition=condition):
            combined = dict(left_bindings)
            combined.update(right_bindings)
            return bool(_condition.evaluate(combined))

    if profile is not None:
        fn = _timed2(fn, profile)
    return CompiledKernel(condition, fn, pairs, specialized)


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


def kernel_list(kernels: Iterable[CompiledKernel]) -> List[CompiledKernel]:
    """Materialize a kernel iterable (helper for plan builders)."""
    return list(kernels)
