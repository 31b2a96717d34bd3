"""Ablations over the invariant method's design choices.

Two ablations complement the paper's experiments:

* **K-invariant** (Section 3.3): precision vs overhead as ``K`` grows from
  1 (the basic method) towards "all deciding conditions" (the iff guarantee
  of Theorem 2).
* **Selection strategy** (Section 3.5): the tightest-condition heuristic vs
  a violation-probability-based selection and a random selection baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.adaptive import InvariantBasedPolicy
from repro.adaptive.invariants import (
    RandomSelectionStrategy,
    SelectionStrategy,
    TightestConditionStrategy,
    ViolationProbabilityStrategy,
)
from repro.engine import AdaptiveCEPEngine
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_dataset,
    build_planner,
    build_workload,
    make_stream,
)


def k_invariant_ablation(
    config: ExperimentConfig,
    k_values: Sequence[int] = (1, 2, 4, 0),
    distance: float = 0.1,
    family: str = "sequence",
    size: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Throughput / reoptimizations / overhead as a function of ``K``.

    ``K = 0`` means "all deciding conditions" (the Theorem 2 variant).
    """
    dataset = build_dataset(config)
    workload = build_workload(config, dataset)
    stream = make_stream(dataset, config)
    pattern_size = size or max(config.sizes)
    pattern = workload.pattern(family, pattern_size)

    rows: List[Dict[str, float]] = []
    for k in k_values:
        policy = InvariantBasedPolicy(k=k, distance=distance)
        engine = AdaptiveCEPEngine(
            pattern,
            build_planner(config.algorithm),
            policy,
            initial_snapshot=dataset.initial_snapshot(pattern),
            monitoring_interval=config.monitoring_interval,
            compile_mode=config.compile_mode,
        )
        result = engine.run(stream)
        invariant_count = len(policy.invariants) if policy.invariants else 0
        rows.append(
            {
                "dataset": config.dataset,
                "algorithm": config.algorithm,
                "size": pattern_size,
                "k": float(k),
                "num_invariants": float(invariant_count),
                "throughput": result.metrics.throughput,
                "reoptimizations": float(result.metrics.reoptimizations),
                "overhead": result.metrics.overhead_fraction,
            }
        )
    return rows


_STRATEGIES: Dict[str, SelectionStrategy] = {
    "tightest": TightestConditionStrategy(),
    "violation-probability": ViolationProbabilityStrategy(),
    "random": RandomSelectionStrategy(seed=3),
}


def selection_strategy_ablation(
    config: ExperimentConfig,
    distance: float = 0.1,
    family: str = "sequence",
    size: Optional[int] = None,
    strategies: Optional[Dict[str, SelectionStrategy]] = None,
) -> List[Dict[str, float]]:
    """Compare invariant-selection strategies on one pattern."""
    dataset = build_dataset(config)
    workload = build_workload(config, dataset)
    stream = make_stream(dataset, config)
    pattern_size = size or max(config.sizes)
    pattern = workload.pattern(family, pattern_size)

    rows: List[Dict[str, float]] = []
    for label, strategy in (strategies or _STRATEGIES).items():
        policy = InvariantBasedPolicy(k=1, distance=distance, strategy=strategy)
        engine = AdaptiveCEPEngine(
            pattern,
            build_planner(config.algorithm),
            policy,
            initial_snapshot=dataset.initial_snapshot(pattern),
            monitoring_interval=config.monitoring_interval,
            compile_mode=config.compile_mode,
        )
        result = engine.run(stream)
        rows.append(
            {
                "dataset": config.dataset,
                "algorithm": config.algorithm,
                "size": pattern_size,
                "strategy": label,
                "throughput": result.metrics.throughput,
                "reoptimizations": float(result.metrics.reoptimizations),
                "overhead": result.metrics.overhead_fraction,
            }
        )
    return rows
