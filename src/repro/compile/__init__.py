"""Plan-build-time condition compilation (the hot-path executor).

Public surface of the ``repro.compile`` subsystem:

* :mod:`~repro.compile.kernels` — lowering of individual conditions to
  specialized closures (local / step / join shapes, safe fallbacks);
* :mod:`~repro.compile.index` — equality-predicate hash indexes used to
  prune join-side candidates before any kernel runs;
* :mod:`~repro.compile.plan_kernels` — the per-plan compiled artifact
  the engines dispatch through, rebuilt transparently on unpickle.

This package sits below :mod:`repro.engine` in the import graph: it may
import conditions/plans/events but never the engines.
"""

from repro.compile.index import EqualityIndex, IndexSpec, find_equality_index_spec
from repro.compile.kernels import (
    CompiledKernel,
    compile_join_kernel,
    compile_local_kernel,
    compile_step_kernel,
    report_pairs_for,
    specialization_counts,
)
from repro.compile.plan_kernels import (
    COMPILE_MODES,
    CompiledPlanKernels,
    StepKernels,
    kernels_reused_total,
    plans_compiled_total,
    validate_compile_mode,
)

__all__ = [
    "COMPILE_MODES",
    "CompiledKernel",
    "CompiledPlanKernels",
    "EqualityIndex",
    "IndexSpec",
    "StepKernels",
    "compile_join_kernel",
    "compile_local_kernel",
    "compile_step_kernel",
    "find_equality_index_spec",
    "kernels_reused_total",
    "plans_compiled_total",
    "report_pairs_for",
    "specialization_counts",
    "validate_compile_mode",
]
