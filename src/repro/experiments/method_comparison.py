"""Comparison of the adaptation methods (Figures 6–9 and Appendix A).

For one dataset–algorithm combination the driver runs every adaptation
method on every pattern size (optionally averaged over several pattern
families, like the paper's main figures) and reports, per cell:

* throughput (events per second),
* relative throughput gain over the static (non-adaptive) method,
* the number of plan reoptimizations, and
* the computational-overhead fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import (
    build_dataset,
    build_workload,
    make_stream,
    run_single,
)
from repro.metrics import RunMetrics, aggregate_metrics

#: Default recommended distances / thresholds per dataset–algorithm pair,
#: found by parameter scanning on the synthetic datasets (the paper's
#: dopt / topt procedure applied to this reproduction).
RECOMMENDED_DISTANCE = {
    ("traffic", "greedy"): 0.1,
    ("traffic", "zstream"): 0.1,
    ("stocks", "greedy"): 0.2,
    ("stocks", "zstream"): 0.2,
}
RECOMMENDED_THRESHOLD = {
    ("traffic", "greedy"): 0.5,
    ("traffic", "zstream"): 0.5,
    ("stocks", "greedy"): 0.4,
    ("stocks", "zstream"): 0.4,
}
#: Following Section 4.2's recommendation, the ZStream planner uses the
#: K-invariant method (several conditions per block) to avoid false
#: negatives caused by the large number of candidate trees per span.
RECOMMENDED_K = {"greedy": 1, "zstream": 3}


def DEFAULT_METHODS(dataset: str, algorithm: str) -> Sequence[PolicySpec]:
    """The four methods of Figures 6–9 with dataset-appropriate parameters."""
    distance = RECOMMENDED_DISTANCE.get((dataset, algorithm), 0.1)
    threshold = RECOMMENDED_THRESHOLD.get((dataset, algorithm), 0.5)
    k = RECOMMENDED_K.get(algorithm, 1)
    return (
        PolicySpec("invariant", distance=distance, k=k, label="invariant"),
        PolicySpec("threshold", threshold=threshold, label="threshold"),
        PolicySpec("unconditional", label="unconditional"),
        PolicySpec("static", label="static"),
    )


@dataclass
class MethodComparisonResult:
    """All rows of one dataset–algorithm comparison."""

    dataset: str
    algorithm: str
    rows: List[Dict[str, float]] = field(default_factory=list)

    def rows_for_method(self, method: str) -> List[Dict[str, float]]:
        return [row for row in self.rows if row["method"] == method]

    def throughput(self, method: str, size: int) -> float:
        for row in self.rows:
            if row["method"] == method and row["size"] == size:
                return row["throughput"]
        raise KeyError(f"no row for method={method!r} size={size}")

    def mean_throughput(self, method: str) -> float:
        rows = self.rows_for_method(method)
        if not rows:
            return 0.0
        return sum(row["throughput"] for row in rows) / len(rows)

    def mean_value(self, method: str, column: str) -> float:
        rows = self.rows_for_method(method)
        if not rows:
            return 0.0
        return sum(row[column] for row in rows) / len(rows)


def compare_methods(
    config: ExperimentConfig,
    specs: Optional[Sequence[PolicySpec]] = None,
) -> MethodComparisonResult:
    """Run the method comparison for one dataset–algorithm combination.

    When ``config.pattern_families`` lists several families, each cell is
    the aggregate over one pattern per family (the paper averages its main
    figures over all five pattern sets).
    """
    specs = list(specs or DEFAULT_METHODS(config.dataset, config.algorithm))
    dataset = build_dataset(config)
    workload = build_workload(config, dataset)
    stream = make_stream(dataset, config)

    result = MethodComparisonResult(dataset=config.dataset, algorithm=config.algorithm)
    for size in config.sizes:
        patterns = [
            workload.pattern(family, size, variant)
            for family in config.pattern_families
            for variant in range(max(1, config.variants_per_cell))
        ]
        static_metrics: Optional[RunMetrics] = None
        per_method: Dict[str, RunMetrics] = {}
        for spec in specs:
            runs = [run_single(pattern, stream, config, spec) for pattern in patterns]
            metrics = aggregate_metrics(runs)
            per_method[spec.name] = metrics
            if spec.kind == "static":
                static_metrics = metrics

        for spec in specs:
            metrics = per_method[spec.name]
            relative_gain = (
                metrics.relative_gain_over(static_metrics)
                if static_metrics is not None
                else 1.0
            )
            result.rows.append(
                {
                    "dataset": config.dataset,
                    "algorithm": config.algorithm,
                    "size": size,
                    "method": spec.name,
                    "throughput": metrics.throughput,
                    "relative_gain": relative_gain,
                    "reoptimizations": float(metrics.reoptimizations),
                    "overhead": metrics.overhead_fraction,
                    "matches": float(metrics.matches_emitted),
                    "partial_matches": float(metrics.partial_matches_created),
                }
            )
    return result
