"""Plan-level kernel compilation: one compiled artifact per evaluation plan.

:class:`CompiledPlanKernels` is built once when an engine adopts a plan
(initial construction, adaptation replan, or checkpoint restore) and
pre-resolves everything the interpreted hot path recomputes per event:

* **steps** — for an order-based (NFA) plan, the conditions that become
  fully bound at each extension step ``order[k]``, already lowered to
  :mod:`~repro.compile.kernels` closures, the plan's own
  :class:`~repro.plans.PlanStep` relations and (in ``indexed`` mode) the
  equality predicate the step's candidate stores are bucketed on;
  :meth:`CompiledPlanKernels.step_extender` fuses a step's kernels, its
  statistics reports and the construction of the extended match into
  one closure per step;
* **joins** — for a tree plan, the lowered kernels linking each child
  node to its sibling, in both join orientations;
* **locals** — per-variable acceptance kernels with columnar ``rows_fn``
  variants for whole-batch sweeps.

The statistics contract matches the interpreted path exactly: when a
collector is attached, *every* kernel of a step/join is evaluated even
after the first failure and each outcome is reported under the same
sorted variable pairs :func:`repro.engine.semantics._report_condition`
uses, so selectivity estimates — and therefore planner decisions — are
mode-independent.  Without a collector, evaluation short-circuits.

Pickling drops the (unpicklable) closures and keeps only the plan, the
profiler and the mode; ``__setstate__`` recompiles.  The module-level
:func:`plans_compiled_total` counter exists so tests can prove a restored
engine really did recompile rather than deserialize stale kernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compile.columnar import EventBatchColumns
from repro.compile.index import IndexSpec, find_equality_index_spec
from repro.compile.kernels import (
    CompiledKernel,
    compile_join_kernel,
    compile_local_kernel,
    compile_step_kernel,
)
from repro.errors import EngineError
from repro.plans import OrderBasedPlan, PlanStep, TreeBasedPlan

__all__ = [
    "COMPILE_MODES",
    "CompiledPlanKernels",
    "StepKernels",
    "kernels_reused_total",
    "plans_compiled_total",
    "validate_compile_mode",
]

#: Recognised values for the engine ``compile_mode`` knob.
COMPILE_MODES = ("interpreted", "compiled", "indexed")

#: Process-wide count of plan compilations (inspected by checkpoint tests
#: to prove restored engines recompile their kernels).
_PLANS_COMPILED = 0


def plans_compiled_total() -> int:
    """How many plan compilations have run in this process."""
    return _PLANS_COMPILED


#: Process-wide cache of lowered condition kernels, keyed by
#: ``(shape, variable, condition.cache_key())``.  Kernels are pure
#: closures over immutable conditions, so identical conditions — common
#: in multi-pattern serving, where many registered patterns repeat the
#: same predicates — compile once and are shared across plans and
#: engines.  Opaque conditions carry per-instance cache keys, so only
#: provably identical predicates ever share.  Profiled kernels are never
#: cached (the profile wrapper is per-condition-instance).
_KERNEL_CACHE: Dict[Tuple, CompiledKernel] = {}
_KERNEL_CACHE_CAP = 4096
_KERNELS_REUSED = 0


def kernels_reused_total() -> int:
    """How many kernel compilations were avoided by the shared cache."""
    return _KERNELS_REUSED


def _cached_kernel(shape: str, condition, variable: str, profile, build):
    global _KERNELS_REUSED
    if profile is not None:
        return build()
    try:
        key = (shape, variable, repr(condition.cache_key()))
    except Exception:
        return build()
    kernel = _KERNEL_CACHE.get(key)
    if kernel is not None:
        _KERNELS_REUSED += 1
        return kernel
    kernel = build()
    if len(_KERNEL_CACHE) < _KERNEL_CACHE_CAP:
        _KERNEL_CACHE[key] = kernel
    return kernel


def validate_compile_mode(mode: str) -> str:
    """Validate and normalise a ``compile_mode`` value."""
    if mode not in COMPILE_MODES:
        raise EngineError(
            f"unknown compile mode {mode!r}; expected one of {COMPILE_MODES}"
        )
    return mode


class StepKernels:
    """Everything precomputed for extending a partial match of size ``k``.

    ``relations`` is the plan's :class:`~repro.plans.PlanStep` for this
    position (the SEQ order relations live there, shared with the
    interpreted mode); ``index_spec`` is the equality predicate candidate
    stores for this step are bucketed on, or ``None`` when un-indexed.
    """

    __slots__ = ("variable", "kernels", "relations", "index_spec")

    def __init__(
        self,
        relations: PlanStep,
        kernels: Tuple[CompiledKernel, ...],
        index_spec: Optional[IndexSpec],
    ):
        self.variable = relations.variable
        self.kernels = kernels
        self.relations = relations
        self.index_spec = index_spec

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        indexed = f", indexed on {self.index_spec}" if self.index_spec else ""
        return f"StepKernels({self.variable}, {len(self.kernels)} kernels{indexed})"


class CompiledPlanKernels:
    """Compiled kernels for one evaluation plan (NFA order or tree)."""

    def __init__(self, plan, profiler=None, indexed: bool = False):
        self.plan = plan
        self.profiler = profiler
        self.indexed = indexed
        self._build()

    # ------------------------------------------------------------------
    # Pickling: closures cannot cross process/checkpoint boundaries, so
    # only the recipe travels and the kernels are rebuilt on arrival.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"plan": self.plan, "profiler": self.profiler, "indexed": self.indexed}

    def __setstate__(self, state):
        self.plan = state["plan"]
        self.profiler = state["profiler"]
        self.indexed = state["indexed"]
        self._build()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _profile_for(self, condition):
        if self.profiler is None:
            return None
        return self.profiler.profile_for(condition)

    def _build(self) -> None:
        global _PLANS_COMPILED
        _PLANS_COMPILED += 1
        plan = self.plan
        pattern = plan.pattern
        conditions = pattern.conditions

        self.variable_types: Dict[str, str] = {}
        self.local_kernels: Dict[str, Tuple[CompiledKernel, ...]] = {}
        for item in pattern.positive_items:
            variable = item.variable
            self.variable_types[variable] = item.event_type.name
            local_kernels = []
            for c in conditions.single_variable_conditions(variable):
                profile = self._profile_for(c)
                local_kernels.append(
                    _cached_kernel(
                        "local",
                        c,
                        variable,
                        profile,
                        lambda c=c, v=variable, p=profile: compile_local_kernel(
                            c, v, p
                        ),
                    )
                )
            self.local_kernels[variable] = tuple(local_kernels)

        self.steps: Optional[List[StepKernels]] = None
        self.join_kernels: Optional[Dict[int, Tuple[CompiledKernel, ...]]] = None
        if isinstance(plan, OrderBasedPlan):
            self._build_steps(plan)
        elif isinstance(plan, TreeBasedPlan):
            self._build_joins(plan)
        else:
            raise EngineError(
                f"cannot compile kernels for plan type {type(plan).__name__}"
            )

    def _build_steps(self, plan: OrderBasedPlan) -> None:
        conditions = plan.pattern.conditions
        steps: List[StepKernels] = []
        for position, relations in enumerate(plan.steps()):
            variable = relations.variable
            bound = relations.bound
            newly = conditions.newly_applicable(bound, variable)
            step_kernels = []
            for c in newly:
                profile = self._profile_for(c)
                step_kernels.append(
                    _cached_kernel(
                        "step",
                        c,
                        variable,
                        profile,
                        lambda c=c, v=variable, p=profile: compile_step_kernel(
                            c, v, p
                        ),
                    )
                )
            index_spec = None
            if self.indexed and position > 0:
                index_spec = find_equality_index_spec(newly, variable, bound)
            steps.append(StepKernels(relations, tuple(step_kernels), index_spec))
        self.steps = steps

    def _build_joins(self, plan: TreeBasedPlan) -> None:
        conditions = plan.pattern.conditions
        joins: Dict[int, Tuple[CompiledKernel, ...]] = {}
        for node in plan.internal_nodes_bottom_up():
            left_vars = frozenset(node.left.variables())
            right_vars = frozenset(node.right.variables())
            linking = conditions.conditions_between(left_vars, right_vars)
            # Both orientations: the tree engine keys the kernel lookup by
            # the node the *new* sub-match arrived at, with that side's
            # bindings passed as the left argument.
            joins[id(node.left)] = tuple(
                compile_join_kernel(c, left_vars, right_vars, self._profile_for(c))
                for c in linking
            )
            joins[id(node.right)] = tuple(
                compile_join_kernel(c, right_vars, left_vars, self._profile_for(c))
                for c in linking
            )
        self.join_kernels = joins

    # ------------------------------------------------------------------
    # Evaluation entry points (the compiled hot path)
    # ------------------------------------------------------------------
    def evaluate_local(self, variable: str, event, collector) -> bool:
        """Single-variable acceptance kernels for one event."""
        kernels = self.local_kernels.get(variable, ())
        if collector is None:
            for kernel in kernels:
                if not kernel.fn(event):
                    return False
            return True
        satisfied = True
        timestamp = event.timestamp
        for kernel in kernels:
            outcome = kernel.fn(event)
            collector.observe_condition(variable, variable, timestamp, outcome)
            if not outcome:
                satisfied = False
        return satisfied

    def step_extender(self, position: int, collector):
        """The fused hot-path closure of one NFA plan step.

        ``extend(partial, event, now)`` runs the conditions newly bound
        when ``event`` joins a partial match of size ``position``, reports
        each outcome to ``collector`` (every kernel runs even after a
        failure, so estimates stay mode-independent; without a collector
        evaluation short-circuits) and returns the extended match, or
        ``None``.  Temporal admissibility is the caller's job: the engine
        only offers candidates inside the step's time interval.
        """
        step = self.steps[position]
        variable = step.variable
        if collector is None:
            kernel_fns = tuple(kernel.fn for kernel in step.kernels)

            def extend(partial, event, now):
                bindings = partial.bindings
                for fn in kernel_fns:
                    if not fn(bindings, event):
                        return None
                return partial.extended(variable, event)

            return extend

        observe = collector.observe_condition
        reporting = tuple((kernel.fn, kernel.report_pairs) for kernel in step.kernels)

        def extend(partial, event, now):
            bindings = partial.bindings
            satisfied = True
            for fn, pairs in reporting:
                outcome = fn(bindings, event)
                for a, b in pairs:
                    observe(a, b, now, outcome)
                if not outcome:
                    satisfied = False
            if satisfied:
                return partial.extended(variable, event)
            return None

        return extend

    def evaluate_join(self, node_id: int, left_bindings, right_bindings, collector, now) -> bool:
        """The conditions linking a node's sub-match to its sibling's."""
        kernels = self.join_kernels.get(node_id, ())
        if collector is None:
            for kernel in kernels:
                if not kernel.fn(left_bindings, right_bindings):
                    return False
            return True
        satisfied = True
        for kernel in kernels:
            outcome = kernel.fn(left_bindings, right_bindings)
            for a, b in kernel.report_pairs:
                collector.observe_condition(a, b, now, outcome)
            if not outcome:
                satisfied = False
        return satisfied

    def local_verdicts(self, columns: EventBatchColumns, collector) -> Dict[str, List[bool]]:
        """Whole-batch acceptance verdicts per variable (columnar sweep).

        Returns, per positive variable, a batch-length bitmask: ``True``
        at row ``i`` iff event ``i`` has the variable's event type and
        passes all its local kernels.  Condition outcomes are reported in
        bulk, stamped at the batch's final timestamp (boundedly late,
        well inside the statistics window).
        """
        verdicts: Dict[str, List[bool]] = {}
        rows_by_type = columns.rows_by_type()
        length = len(columns)
        for variable, type_name in self.variable_types.items():
            mask = [False] * length
            rows = rows_by_type.get(type_name)
            if rows:
                combined = None
                for kernel in self.local_kernels.get(variable, ()):
                    outcomes = kernel.rows_fn(columns, rows)
                    if collector is not None:
                        collector.observe_condition_bulk(
                            variable,
                            variable,
                            columns.last_timestamp,
                            len(outcomes),
                            sum(outcomes),
                        )
                    if combined is None:
                        combined = outcomes
                    else:
                        combined = [a and b for a, b in zip(combined, outcomes)]
                if combined is None:
                    for row in rows:
                        mask[row] = True
                else:
                    for row, accepted in zip(rows, combined):
                        mask[row] = accepted
            verdicts[variable] = mask
        return verdicts

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        shape = (
            f"{len(self.steps)} steps"
            if self.steps is not None
            else f"{len(self.join_kernels)} join sides"
        )
        mode = "indexed" if self.indexed else "compiled"
        return f"CompiledPlanKernels({self.plan!r}, {shape}, {mode})"
