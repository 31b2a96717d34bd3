"""Exception hierarchy for the adaptive CEP library.

All library-specific exceptions derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """An event payload or schema definition is invalid."""


class PatternError(ReproError):
    """A pattern specification is malformed or unsupported."""


class PlanError(ReproError):
    """An evaluation plan is malformed or inconsistent with its pattern."""


class StatisticsError(ReproError):
    """Statistics estimation was asked for an unknown quantity."""


class OptimizerError(ReproError):
    """A plan-generation algorithm failed or was misconfigured."""


class AdaptationError(ReproError):
    """The adaptive controller or a decision policy was misused."""


class EngineError(ReproError):
    """Runtime evaluation engine failure."""


class PartitionError(ReproError):
    """A partitioning strategy cannot guarantee correct sharded detection."""


class ParallelExecutionError(ReproError):
    """A sharded engine was misconfigured or handed the wrong snapshot."""


class DatasetError(ReproError):
    """A dataset simulator or workload generator was misconfigured."""


class StreamingError(ReproError):
    """A streaming source, sink or pipeline was misused or failed."""


class CheckpointError(ReproError):
    """A pipeline checkpoint could not be written, read or applied."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""
