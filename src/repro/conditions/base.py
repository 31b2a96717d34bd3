"""Base condition classes and Boolean combinators.

A condition is defined over pattern *variables* (the names bound to each
primitive event position of a pattern, e.g. ``a``, ``b``, ``c`` in
``SEQ(A a, B b, C c)``).  At runtime the engine supplies a *binding*: a
mapping from variable name to the concrete :class:`~repro.events.Event`
bound to it (or to a list of events for Kleene-closure variables).

Conditions expose:

* ``variables`` — the set of variable names they reference;
* ``evaluate(binding)`` — Boolean evaluation against a (possibly partial)
  binding; a condition evaluates to ``True`` when some referenced variable
  is still unbound, so engines can call conditions eagerly as the partial
  match grows without rejecting matches prematurely.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import PatternError

#: Process-wide counter backing the identity tokens of opaque conditions.
#: Deterministic (construction order) so two identical runs assign the same
#: keys, which keeps kernel-cache and shared-prefix keys stable across runs.
_OPAQUE_TOKENS = itertools.count()


class ComparisonShape(NamedTuple):
    """The declared form ``left.attribute + margin <op> right.attribute``
    of a two-variable comparison.

    The compiled tiers lower a condition that declares a shape to a
    specialised comparison kernel (:mod:`repro.compile.kernels`).
    ``missing`` is what an absent attribute reads as; ``None`` means the
    comparison fails when either attribute is absent (or ``None``).  A
    zero ``margin`` adds nothing, so non-numeric attributes compare as
    they are.
    """

    left_variable: str
    left_attribute: str
    op: str
    right_variable: str
    right_attribute: str
    margin: float = 0.0
    missing: Optional[float] = None


class Condition:
    """Abstract Boolean condition over pattern variables."""

    @property
    def variables(self) -> FrozenSet[str]:
        """Names of the pattern variables referenced by this condition."""
        raise NotImplementedError

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        """Evaluate against a binding; unbound variables make it vacuously true."""
        raise NotImplementedError

    def cache_key(self) -> str:
        """Stable identity key for the kernel-compilation cache, duplicate
        conjunct elimination and shared-prefix signatures.

        Unlike ``repr``, two *distinct* conditions never share a key unless
        they are structurally equal comparisons: atomic attribute
        comparisons return a structural key (so equal predicates share
        compiled kernels), while opaque conditions — user lambdas and
        unknown subclasses — get a unique per-instance token, so two
        different lambdas with identical reprs never share a kernel or a
        prefix.  The token is a plain instance attribute and therefore
        survives pickling: every copy of a condition shipped to a process
        worker keeps the same key.
        """
        token = getattr(self, "_cache_token", None)
        if token is None:
            token = self._cache_token = next(_OPAQUE_TOKENS)
        return f"opaque:{type(self).__name__}:{token}"

    def comparison_shape(self) -> Optional[ComparisonShape]:
        """The comparison this condition is, if it declares one.

        A condition returning a shape promises that, on single-event
        bindings of both variables, ``evaluate`` is exactly that
        comparison.  Kleene list bindings still go through ``evaluate``.
        """
        return None

    def is_fully_bound(self, binding: Mapping[str, object]) -> bool:
        """Whether every referenced variable is present in ``binding``."""
        return all(variable in binding for variable in self.variables)

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def __and__(self, other: "Condition") -> "Condition":
        return AndCondition([self, other])

    def __or__(self, other: "Condition") -> "Condition":
        return OrCondition([self, other])

    def __invert__(self) -> "Condition":
        return NotCondition(self)

    def flatten(self) -> Sequence["Condition"]:
        """Return the atomic conjuncts of this condition.

        Only top-level conjunctions are flattened; disjunctions and
        negations are treated as opaque atoms.  The planner uses this to
        attribute per-pair selectivities.
        """
        return (self,)


class TrueCondition(Condition):
    """The trivially true condition (used when a pattern has no predicates)."""

    @property
    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        return True

    def cache_key(self) -> str:
        return "true"

    def flatten(self) -> Sequence[Condition]:
        return ()

    def __repr__(self) -> str:
        return "TrueCondition()"


class _CompositeCondition(Condition):
    """Shared implementation for n-ary Boolean combinators."""

    def __init__(self, operands: Iterable[Condition]):
        self._operands: Tuple[Condition, ...] = tuple(operands)
        if not self._operands:
            raise PatternError(f"{type(self).__name__} requires at least one operand")
        for operand in self._operands:
            if not isinstance(operand, Condition):
                raise PatternError(
                    f"composite condition operands must be Conditions, "
                    f"got {type(operand).__name__}"
                )

    @property
    def operands(self) -> Tuple[Condition, ...]:
        return self._operands

    @property
    def variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for operand in self._operands:
            names |= operand.variables
        return names


class AndCondition(_CompositeCondition):
    """Conjunction of conditions."""

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        return all(operand.evaluate(binding) for operand in self._operands)

    def cache_key(self) -> str:
        return "and(" + "&".join(op.cache_key() for op in self._operands) + ")"

    def flatten(self) -> Sequence[Condition]:
        flattened = []
        for operand in self._operands:
            flattened.extend(operand.flatten())
        return tuple(flattened)

    def __repr__(self) -> str:
        return " & ".join(repr(op) for op in self._operands)


class OrCondition(_CompositeCondition):
    """Disjunction of conditions.

    A disjunction is vacuously true while *any* referenced variable is
    unbound, because a future binding may still satisfy one of the branches.
    """

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        if not self.is_fully_bound(binding):
            return True
        return any(operand.evaluate(binding) for operand in self._operands)

    def cache_key(self) -> str:
        return "or(" + "|".join(op.cache_key() for op in self._operands) + ")"

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(op) for op in self._operands) + ")"


class NotCondition(Condition):
    """Negation of a condition.

    Like :class:`OrCondition`, a negation is only enforced once all the
    referenced variables are bound.
    """

    def __init__(self, operand: Condition):
        if not isinstance(operand, Condition):
            raise PatternError("NotCondition operand must be a Condition")
        self._operand = operand

    @property
    def operand(self) -> Condition:
        return self._operand

    @property
    def variables(self) -> FrozenSet[str]:
        return self._operand.variables

    def evaluate(self, binding: Mapping[str, object]) -> bool:
        if not self.is_fully_bound(binding):
            return True
        return not self._operand.evaluate(binding)

    def cache_key(self) -> str:
        return f"not({self._operand.cache_key()})"

    def __repr__(self) -> str:
        return f"~({self._operand!r})"
