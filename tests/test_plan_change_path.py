"""One path changes a plan: the multi-pattern counts must not move.

A pattern's plan, and the engine built for it, change only when its
decision function ``D`` fires and the new plan is installed; the
prefix-share manager decides sharing at that build.  The figures below pin
what a multi-pattern engine does over a seeded stream with one rate shift:
every plan it installs, every controller's adaptation counts, the plan
migrations, the shared-prefix groups with their members and hits, and a
digest of the matches.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import AndCondition, AttributeThresholdCondition, EqualityCondition
from repro.engine import MultiPatternEngine
from repro.events import Event, EventType
from repro.multi import PatternSet
from repro.optimizer import GreedyOrderPlanner
from repro.patterns import Pattern, PatternItem, PatternOperator
from repro.streaming.sinks import match_record

A, B, C, D, E, F, G = (EventType(name) for name in "ABCDEFG")


def shift_stream(seed: int = 41, count: int = 2400):
    """Seeded events over A–G; at the halfway mark A turns from the
    rarest type of the shared prefix into the most frequent one."""
    rng = random.Random(seed)
    types = [A, B, C, D, E, F, G]
    events, clock = [], 0.0
    for number in range(count):
        clock += rng.choice([0.0, 0.02, 0.05, 0.1])
        before = number < count // 2
        weights = [1, 3, 4, 4, 4, 2, 2] if before else [8, 3, 1, 4, 4, 2, 2]
        event_type = rng.choices(types, weights=weights)[0]
        payload = {"k": rng.randint(0, 2), "v": rng.random()}
        events.append(Event(event_type, clock, payload, sequence_number=number))
    return events


def family_patterns():
    """Three SEQ-3 patterns sharing the prefix ``a:A, b:B`` (and its
    condition), plus one pattern over types the family never names."""
    patterns = []
    for index, suffix in enumerate((C, D, E)):
        conditions = AndCondition(
            [
                EqualityCondition("a", "b", "k"),
                EqualityCondition("b", "c", "k"),
                AttributeThresholdCondition("c", "v", ">", 0.2 * index),
            ]
        )
        items = [PatternItem("a", A), PatternItem("b", B), PatternItem("c", suffix)]
        patterns.append(
            Pattern(
                PatternOperator.SEQUENCE,
                items,
                condition=conditions,
                window=1.5,
                name=f"family-{index}",
            )
        )
    patterns.append(
        Pattern(
            PatternOperator.SEQUENCE,
            [PatternItem("f", F), PatternItem("g", G)],
            condition=EqualityCondition("f", "g", "k"),
            window=1.5,
            name="disjoint",
        )
    )
    return patterns


def run_pins():
    engine = MultiPatternEngine(
        PatternSet(family_patterns()),
        GreedyOrderPlanner(),
        policy_factory=lambda: InvariantBasedPolicy(distance=0.1),
        monitoring_interval=0.5,
    )
    lines = sorted(
        json.dumps(match_record(match)) for match in engine.run(shift_stream()).matches
    )
    controllers = {}
    for adaptive in engine.sub_engines:
        stats = adaptive.controller.statistics
        controllers[adaptive.pattern.name] = [
            stats.decisions_evaluated,
            stats.reoptimizations_requested,
            stats.plans_generated,
            stats.plans_replaced,
            len(stats.replacements),
        ]
    return {
        "plan_history": engine.plan_history,
        "controllers": controllers,
        "migrations": engine.reoptimization_count(),
        "groups": [
            [row["types"], row["members"], row["prefix_hits"]]
            for row in engine.share_manager.sharing_report()
        ],
        "prefix_hits": engine.prefix_hits_total(),
        "matches": len(lines),
        "digest": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
    }


#: Controller counts are ``[decisions_evaluated, reoptimizations_requested,
#: plans_generated, plans_replaced, len(replacements)]``.
EXPECTED = {
    "plan_history": [
        "OrderBasedPlan[A -> B -> C]",
        "OrderBasedPlan[C -> B -> A]",
        "OrderBasedPlan[A -> B -> D]",
        "OrderBasedPlan[B -> A -> D]",
        "OrderBasedPlan[B -> D -> A]",
        "OrderBasedPlan[D -> B -> A]",
        "OrderBasedPlan[B -> D -> A]",
        "OrderBasedPlan[A -> B -> E]",
        "OrderBasedPlan[E -> B -> A]",
        "OrderBasedPlan[B -> E -> A]",
        "OrderBasedPlan[E -> B -> A]",
        "OrderBasedPlan[B -> E -> A]",
        "OrderBasedPlan[E -> B -> A]",
        "OrderBasedPlan[B -> E -> A]",
        "OrderBasedPlan[E -> B -> A]",
        "OrderBasedPlan[B -> E -> A]",
        "OrderBasedPlan[F -> G]",
        "OrderBasedPlan[G -> F]",
        "OrderBasedPlan[F -> G]",
        "OrderBasedPlan[G -> F]",
        "OrderBasedPlan[F -> G]",
        "OrderBasedPlan[G -> F]",
        "OrderBasedPlan[F -> G]",
        "OrderBasedPlan[G -> F]",
        "OrderBasedPlan[F -> G]",
        "OrderBasedPlan[G -> F]",
        "OrderBasedPlan[F -> G]",
        "OrderBasedPlan[G -> F]",
    ],
    "controllers": {
        "family-0": [187, 1, 2, 1, 1],
        "family-1": [187, 5, 6, 4, 4],
        "family-2": [187, 8, 9, 8, 8],
        "disjoint": [187, 11, 12, 11, 11],
    },
    "migrations": 24,
    "groups": [
        [["A", "B"], ["family-0", "family-1", "family-2"], 2021],
    ],
    "prefix_hits": 2021,
    "matches": 1390,
    "digest": "5c214463a7b338fa08956f0faf26a6b5afb2d7eb74d4b655b21207d7fd0fd8cd",
}


def test_multi_pattern_counts_are_pinned():
    assert run_pins() == EXPECTED
