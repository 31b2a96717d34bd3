"""Experiment drivers regenerating the paper's tables and figures.

Each module corresponds to one experiment of Section 5 / Appendix A:

* :mod:`repro.experiments.runner` — shared single-run machinery
  (build engine, run stream, collect :class:`~repro.metrics.RunMetrics`);
  :func:`~repro.experiments.runner.build_streaming_engine` is the one place
  an engine is built from an :class:`ExperimentConfig`.
* :mod:`repro.experiments.distance_sweep` — Figure 5 (throughput vs the
  invariant distance ``d`` and the pattern size).
* :mod:`repro.experiments.distance_estimation` — Table 1 (quality of the
  average-relative-difference estimate ``davg`` vs the scanned optimum
  ``dopt``).
* :mod:`repro.experiments.method_comparison` — Figures 6–9 and the
  appendix Figures 10–29 (throughput, relative gain, reoptimization counts
  and computational overhead of the four adaptation methods).
* :mod:`repro.experiments.ablations` — K-invariant and invariant-selection
  strategy ablations (Sections 3.3 and 3.5).
* :mod:`repro.experiments.cli` — the command line over all of the above,
  plus ``serve`` (the engine as a long-running streaming service).

These drivers regenerate the paper's *shapes* (which method wins, how often
it re-plans).  How fast the system is — throughput, latency, memory and the
per-layer counters — is measured by one scale only: ``bench/run.py`` over
the workloads of ``BENCHMARK.json`` (see ``bench/README.md``).
"""

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import (
    run_single,
    build_policy,
    build_planner,
    build_partitioner,
    make_stream,
)
from repro.experiments.method_comparison import (
    MethodComparisonResult,
    compare_methods,
    DEFAULT_METHODS,
)
from repro.experiments.distance_sweep import distance_sweep, find_optimal_distance
from repro.experiments.distance_estimation import distance_estimation_table
from repro.experiments.ablations import k_invariant_ablation, selection_strategy_ablation
from repro.experiments.reporting import format_table, rows_to_csv

__all__ = [
    "ExperimentConfig",
    "PolicySpec",
    "run_single",
    "build_policy",
    "build_planner",
    "build_partitioner",
    "make_stream",
    "MethodComparisonResult",
    "compare_methods",
    "DEFAULT_METHODS",
    "distance_sweep",
    "find_optimal_distance",
    "distance_estimation_table",
    "k_invariant_ablation",
    "selection_strategy_ablation",
    "format_table",
    "rows_to_csv",
]
