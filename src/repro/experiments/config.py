"""Experiment configuration objects."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.compile import COMPILE_MODES
from repro.errors import ExperimentError


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of an adaptation method.

    ``kind`` is one of ``"invariant"``, ``"threshold"``, ``"unconditional"``
    and ``"static"``.  The remaining fields parametrise the invariant and
    threshold methods.
    """

    kind: str
    distance: float = 0.0
    k: int = 1
    threshold: float = 0.5
    use_davg_distance: bool = False
    label: Optional[str] = None

    VALID_KINDS = ("invariant", "threshold", "unconditional", "static")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ExperimentError(
                f"unknown policy kind {self.kind!r}; expected one of {self.VALID_KINDS}"
            )

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "invariant":
            suffix = "davg" if self.use_davg_distance else f"d={self.distance:g}"
            if self.k != 1:
                suffix += f",K={self.k}"
            return f"invariant({suffix})"
        if self.kind == "threshold":
            return f"threshold(t={self.threshold:g})"
        return self.kind


@dataclass
class ExperimentConfig:
    """Scale parameters shared by the experiment drivers.

    The defaults are sized for the benchmark suite (minutes, not hours); the
    paper-scale runs simply use larger ``duration`` / ``max_events``.
    """

    dataset: str = "traffic"
    algorithm: str = "greedy"
    duration: float = 240.0
    max_events: Optional[int] = 30000
    monitoring_interval: float = 1.0
    stream_seed: int = 1
    workload_seed: int = 0
    sizes: Tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    pattern_families: Tuple[str, ...] = ("sequence",)
    variants_per_cell: int = 1
    base_rate: Optional[float] = None
    num_types: Optional[int] = None
    window: Optional[float] = None
    shards: int = 1
    partition_by: Optional[str] = None
    backend: str = "inline"
    workers: int = 0
    introspect: bool = False
    compile_mode: str = "interpreted"

    def __post_init__(self) -> None:
        if self.algorithm not in ("greedy", "zstream"):
            raise ExperimentError(
                f"unknown algorithm {self.algorithm!r}; expected 'greedy' or 'zstream'"
            )
        if self.duration <= 0:
            raise ExperimentError("duration must be positive")
        if self.monitoring_interval <= 0:
            raise ExperimentError("monitoring_interval must be positive")
        if self.shards < 1:
            raise ExperimentError("shards must be a positive integer")
        if self.backend not in ("inline", "thread", "process"):
            raise ExperimentError(
                f"unknown backend {self.backend!r}; expected 'inline', "
                "'thread' or 'process'"
            )
        if self.workers < 0:
            raise ExperimentError("workers must be non-negative (0 = use shards)")
        if self.compile_mode not in COMPILE_MODES:
            raise ExperimentError(
                f"unknown compile_mode {self.compile_mode!r}; expected one of "
                f"{COMPILE_MODES}"
            )

    @property
    def effective_workers(self) -> int:
        """Shard-worker count for streaming backends (``workers`` or ``shards``)."""
        return self.workers if self.workers > 0 else self.shards

    @property
    def engine_replicas(self) -> int:
        """Engine replicas the streaming engine will actually run.

        Worker backends host ``effective_workers`` replicas; the inline
        backend shards in-process by ``shards`` alone.
        """
        return self.effective_workers if self.backend != "inline" else self.shards

    def dataset_kwargs(self) -> dict:
        kwargs: dict = {"duration_hint": self.duration}
        if self.base_rate is not None:
            kwargs["base_rate"] = self.base_rate
        if self.num_types is not None:
            kwargs["num_types"] = self.num_types
        return kwargs


#: The four adaptation methods compared in Figures 6–9 of the paper.
def default_method_specs(
    invariant_distance: float = 0.1, threshold: float = 0.5
) -> Sequence[PolicySpec]:
    return (
        PolicySpec("invariant", distance=invariant_distance, label="invariant"),
        PolicySpec("threshold", threshold=threshold, label="threshold"),
        PolicySpec("unconditional", label="unconditional"),
        PolicySpec("static", label="static"),
    )
