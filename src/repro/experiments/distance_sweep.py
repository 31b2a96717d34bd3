"""Distance sweep (Figure 5): throughput of the invariant method vs ``d``.

For one dataset–algorithm combination the driver runs the invariant-based
method on sequence patterns of every requested size, once per candidate
distance value (``d = 0`` is the basic method).  The paper's Figure 5 plots
one curve per distance against the pattern size; the reproduction reports
the same rows and additionally extracts ``dopt`` per size (the parameter
scanning procedure of Section 3.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.runner import (
    build_dataset,
    build_workload,
    make_stream,
    run_single,
)

#: Distance grid used when the caller does not supply one (a superset of the
#: dopt values the paper reports: 0.1 for traffic/greedy, 0.4 for ZStream...).
DEFAULT_DISTANCES = (0.0, 0.05, 0.1, 0.2, 0.4, 0.5)


def distance_sweep(
    config: ExperimentConfig,
    distances: Sequence[float] = DEFAULT_DISTANCES,
    family: str = "sequence",
) -> List[Dict[str, float]]:
    """Throughput of the invariant method for each (size, distance) pair."""
    dataset = build_dataset(config)
    workload = build_workload(config, dataset)
    stream = make_stream(dataset, config)

    rows: List[Dict[str, float]] = []
    for size in config.sizes:
        pattern = workload.pattern(family, size)
        for distance in distances:
            spec = PolicySpec("invariant", distance=distance, label=f"d={distance:g}")
            metrics = run_single(pattern, stream, config, spec)
            rows.append(
                {
                    "dataset": config.dataset,
                    "algorithm": config.algorithm,
                    "size": size,
                    "distance": distance,
                    "throughput": metrics.throughput,
                    "reoptimizations": float(metrics.reoptimizations),
                    "overhead": metrics.overhead_fraction,
                }
            )
    return rows


def find_optimal_distance(
    rows: List[Dict[str, float]], size: Optional[int] = None
) -> Tuple[float, float]:
    """Extract ``dopt`` (and its throughput) from sweep rows.

    When ``size`` is None, the distance maximising the mean throughput over
    all sizes is returned — the per-combination dopt the paper uses in its
    later experiments.
    """
    candidates: Dict[float, List[float]] = {}
    for row in rows:
        if size is not None and row["size"] != size:
            continue
        candidates.setdefault(row["distance"], []).append(row["throughput"])
    if not candidates:
        raise ValueError("no sweep rows match the requested size")
    best_distance, best_throughput = max(
        (
            (distance, sum(values) / len(values))
            for distance, values in candidates.items()
        ),
        key=lambda pair: pair[1],
    )
    return best_distance, best_throughput
