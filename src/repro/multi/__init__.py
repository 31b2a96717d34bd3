"""Shared one-pass multi-pattern serving.

This package holds the building blocks of the multi-pattern evaluator:

* :class:`PatternSet` — the deployment registry and the one
  pattern-collection type (the paper's composite patterns are pattern
  sets): stable pattern ids that survive add/remove churn and tag every
  emitted match's provenance;
* :class:`SharedStatisticsHub` / :class:`SharedStatisticsCollector` —
  one arrival counter per event type shared by all patterns;
* :class:`PrefixShareManager` / :class:`SharedPrefixGroup` /
  :class:`SuffixNFAEngine` — cost-model-scored common-prefix sharing:
  a shared prefix is materialised once and its partial matches are
  fanned out to each consuming pattern's suffix engine.

The evaluator itself, :class:`~repro.engine.MultiPatternEngine`, lives in
:mod:`repro.engine` and is re-exported here lazily (this package is
imported *by* the engine layer, so an eager re-import would cycle).
"""

from repro.multi.hub import SharedStatisticsCollector, SharedStatisticsHub
from repro.multi.registry import PatternSet
from repro.multi.sharing import (
    MIN_PREFIX_LENGTH,
    PrefixShareManager,
    SharedPrefixGroup,
    SuffixNFAEngine,
    prefix_signature,
    shareable_lengths,
    share_prefix_statistics,
)

__all__ = [
    "MIN_PREFIX_LENGTH",
    "MultiPatternEngine",
    "PatternSet",
    "PrefixShareManager",
    "SharedPrefixGroup",
    "SharedStatisticsCollector",
    "SharedStatisticsHub",
    "SuffixNFAEngine",
    "prefix_signature",
    "shareable_lengths",
    "share_prefix_statistics",
]


def __getattr__(name):
    if name == "MultiPatternEngine":
        from repro.engine.multi_pattern import MultiPatternEngine

        return MultiPatternEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
