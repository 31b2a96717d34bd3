"""The per-type arrival path must not move a single count.

Both evaluation engines route an arrival through a per-type table and
return early when the event can only be buffered.  That is work removal
only: every counter the engines report and every estimate the statistics
collector holds must stay exactly what the full per-call path produced.
The figures below were taken from the full path on the same seeded
streams; they include a type no pattern names (it still clocks expiry,
which the tree engine's join attempts and the indexed tier's pruned
candidates depend on) and a few timestamp regressions.

A tree-plan engine with a negated item checkpointed by the full path
(``tests/data/engine_state_pr31_tree.bin``) must also restore and
continue exactly like an uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.adaptive import InvariantBasedPolicy
from repro.conditions import AndCondition, AttributeThresholdCondition, EqualityCondition
from repro.engine import AdaptiveCEPEngine, LazyNFAEngine, TreeEvaluationEngine
from repro.engine.state import restore_engine, snapshot_engine
from repro.events import Event, EventType
from repro.optimizer import GreedyOrderPlanner, ZStreamTreePlanner
from repro.patterns import Pattern, PatternItem, PatternOperator

A, B, C, D = EventType("A"), EventType("B"), EventType("C"), EventType("D")
#: Named by no pattern below.
X = EventType("X")


def arrival_stream(seed: int, count: int = 900):
    """Seeded events over A–D plus the unnamed X.

    The A/C rates swap every 150 events (so plans are replaced and old
    engines drain), every 120th event opens a burst of X-only arrivals
    longer than an expiry interval, and ~2 % of events arrive behind the
    clock.
    """
    rng = random.Random(seed)
    events, clock, burst = [], 0.0, 0
    for number in range(count):
        clock += rng.choice([0.0, 0.01, 0.03, 0.06])
        timestamp = clock
        if number % 120 == 119:
            burst = 25
        if burst:
            burst -= 1
            event_type = X
        else:
            heavy, light = (A, C) if (number // 150) % 2 == 0 else (C, A)
            event_type = rng.choices(
                [heavy, light, B, D, X], weights=[5, 1, 3, 2, 3]
            )[0]
            if rng.random() < 0.02:
                timestamp = clock - rng.choice([0.02, 0.2])
        payload = {"k": rng.randint(0, 2), "v": rng.random()}
        events.append(Event(event_type, timestamp, payload, sequence_number=number))
    return events


def arrival_pattern(shape: str) -> Pattern:
    """SEQ, AND, SEQ+NEG or SEQ+KL over A, B, C (and D for the modifier)."""
    conditions = [
        EqualityCondition("a", "b", "k"),
        EqualityCondition("b", "c", "k"),
        AttributeThresholdCondition("a", "v", ">", 0.2),
        AttributeThresholdCondition("c", "v", "<", 0.8),
    ]
    items = [PatternItem("a", A), PatternItem("b", B), PatternItem("c", C)]
    operator = PatternOperator.SEQUENCE
    if shape == "and":
        operator = PatternOperator.CONJUNCTION
    elif shape == "neg":
        items.insert(1, PatternItem("n", D, negated=True))
        conditions.append(EqualityCondition("a", "n", "k"))
    elif shape == "kl":
        items.insert(1, PatternItem("d", D, kleene=True))
        conditions.append(AttributeThresholdCondition("d", "v", ">", 0.3))
    return Pattern(
        operator, items, condition=AndCondition(conditions), window=0.6, name=shape
    )


#: (engine family, compile mode) cells; the tree engine is built by the
#: ZStream planner, the lazy NFA by the greedy one.
ENGINES = {
    "nfa-interpreted": (GreedyOrderPlanner, "interpreted"),
    "nfa-compiled": (GreedyOrderPlanner, "compiled"),
    "nfa-indexed": (GreedyOrderPlanner, "indexed"),
    "tree-compiled": (ZStreamTreePlanner, "compiled"),
}
SHAPES = ("seq", "and", "neg", "kl")


def arrival_engine(engine: str, shape: str) -> AdaptiveCEPEngine:
    planner, compile_mode = ENGINES[engine]
    return AdaptiveCEPEngine(
        arrival_pattern(shape),
        planner(),
        InvariantBasedPolicy(distance=0.1),
        monitoring_interval=0.5,
        compile_mode=compile_mode,
    )


def counts_of(adaptive: AdaptiveCEPEngine):
    """Engine counters (without ``events_processed``, which counts calls)
    and every value of the collector's snapshot, in a fixed order."""
    counters = vars(adaptive.migration_manager.total_counters()).copy()
    del counters["events_processed"]
    snapshot = adaptive.collector.snapshot()
    return {
        "counters": counters,
        "rates": dict(sorted(snapshot.rates.items())),
        "selectivities": {
            f"{a},{b}": value for (a, b), value in sorted(snapshot.selectivities.items())
        },
        "replacements": adaptive.reoptimization_count(),
    }


def run_counts(engine: str, shape: str, seed: int = 33):
    adaptive = arrival_engine(engine, shape)
    engine_types = set()
    matches = bound = 0
    for event in arrival_stream(seed):
        emitted = adaptive.process(event)
        matches += len(emitted)
        # Kleene expansion reads the side buffers: a lost side-buffered
        # event shows here, not in the number of matches.
        bound += sum(len(match.event_ids()) for match in emitted)
        engine_types.update(type(e) for e in adaptive.evaluation_engines())
    result = counts_of(adaptive)
    result["matches"] = matches
    result["bound_events"] = bound
    return result, engine_types


#: Taken from the full per-call path (every arrival ran the whole chain).
#: The tree-compiled rows were re-taken once ZStream's split comparisons
#: read subtree costs live: the tree is now re-planned at each A/C swap
#: (5 replacements), so the collector sees other predicates evaluated, and
#: on this disordered stream the ``and`` shape's matches follow the plan.
EXPECTED = {
    ('nfa-compiled', 'seq'): {
        "counters": {'partial_matches_created': 513, 'extension_attempts': 1100, 'matches_emitted': 72, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.8, 'a,b': 0.38095238095238093, 'b,c': 0.40816326530612246, 'c,c': 0.75},
        "replacements": 8,
        "matches": 72,
        "bound_events": 216,
    },
    ('nfa-compiled', 'and'): {
        "counters": {'partial_matches_created': 1130, 'extension_attempts': 3226, 'matches_emitted': 385, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.967741935483871, 'a,b': 0.21052631578947367, 'b,c': 0.36363636363636365, 'c,c': 0.9157303370786517},
        "replacements": 9,
        "matches": 385,
        "bound_events": 1155,
    },
    ('nfa-compiled', 'neg'): {
        "counters": {'partial_matches_created': 513, 'extension_attempts': 1100, 'matches_emitted': 51, 'matches_suppressed_by_negation': 22, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.8, 'a,b': 0.38095238095238093, 'a,n': 0.5, 'b,c': 0.40816326530612246, 'c,c': 0.75},
        "replacements": 8,
        "matches": 51,
        "bound_events": 153,
    },
    ('nfa-compiled', 'kl'): {
        "counters": {'partial_matches_created': 520, 'extension_attempts': 965, 'matches_emitted': 19, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.7272727272727273, 'a,b': 0.6666666666666666, 'b,c': 0.4782608695652174, 'c,c': 0.7543859649122807, 'd,d': 0.75},
        "replacements": 11,
        "matches": 19,
        "bound_events": 91,
    },
    ('nfa-indexed', 'seq'): {
        "counters": {'partial_matches_created': 446, 'extension_attempts': 283, 'matches_emitted': 74, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 1415},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.7272727272727273, 'a,b': 0.2571428571428571, 'b,c': 0.20909090909090908, 'c,c': 0.7441860465116279},
        "replacements": 6,
        "matches": 74,
        "bound_events": 222,
    },
    ('nfa-indexed', 'and'): {
        "counters": {'partial_matches_created': 1093, 'extension_attempts': 910, 'matches_emitted': 381, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 2491},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.8695652173913043, 'a,b': 0.2, 'b,c': 0.3438914027149321, 'c,c': 0.85},
        "replacements": 9,
        "matches": 381,
        "bound_events": 1143,
    },
    ('nfa-indexed', 'neg'): {
        "counters": {'partial_matches_created': 446, 'extension_attempts': 283, 'matches_emitted': 53, 'matches_suppressed_by_negation': 21, 'candidates_pruned': 1415},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.7272727272727273, 'a,b': 0.2571428571428571, 'a,n': 0.5, 'b,c': 0.20909090909090908, 'c,c': 0.7441860465116279},
        "replacements": 6,
        "matches": 53,
        "bound_events": 159,
    },
    ('nfa-indexed', 'kl'): {
        "counters": {'partial_matches_created': 488, 'extension_attempts': 355, 'matches_emitted': 19, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 1447},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.6666666666666666, 'a,b': 0.37142857142857144, 'b,c': 0.06944444444444445, 'c,c': 0.7636363636363637, 'd,d': 0.8571428571428571},
        "replacements": 10,
        "matches": 19,
        "bound_events": 91,
    },
    ('nfa-interpreted', 'seq'): {
        "counters": {'partial_matches_created': 513, 'extension_attempts': 1100, 'matches_emitted': 72, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.8, 'a,b': 0.38095238095238093, 'b,c': 0.40816326530612246, 'c,c': 0.75},
        "replacements": 8,
        "matches": 72,
        "bound_events": 216,
    },
    ('nfa-interpreted', 'and'): {
        "counters": {'partial_matches_created': 1130, 'extension_attempts': 3226, 'matches_emitted': 385, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.967741935483871, 'a,b': 0.21052631578947367, 'b,c': 0.36363636363636365, 'c,c': 0.9157303370786517},
        "replacements": 9,
        "matches": 385,
        "bound_events": 1155,
    },
    ('nfa-interpreted', 'neg'): {
        "counters": {'partial_matches_created': 513, 'extension_attempts': 1100, 'matches_emitted': 51, 'matches_suppressed_by_negation': 22, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.8, 'a,b': 0.38095238095238093, 'a,n': 0.5, 'b,c': 0.40816326530612246, 'c,c': 0.75},
        "replacements": 8,
        "matches": 51,
        "bound_events": 153,
    },
    ('nfa-interpreted', 'kl'): {
        "counters": {'partial_matches_created': 520, 'extension_attempts': 965, 'matches_emitted': 19, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.7272727272727273, 'a,b': 0.6666666666666666, 'b,c': 0.4782608695652174, 'c,c': 0.7543859649122807, 'd,d': 0.75},
        "replacements": 11,
        "matches": 19,
        "bound_events": 91,
    },
    ('tree-compiled', 'seq'): {
        "counters": {'partial_matches_created': 739, 'extension_attempts': 2264, 'matches_emitted': 75, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.625, 'a,b': 0.5294117647058824, 'b,c': 0.3150684931506849, 'c,c': 0.7735849056603774},
        "replacements": 5,
        "matches": 75,
        "bound_events": 225,
    },
    ('tree-compiled', 'and'): {
        "counters": {'partial_matches_created': 1270, 'extension_attempts': 3168, 'matches_emitted': 385, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0},
        "selectivities": {'a,a': 0.625, 'a,b': 0.2597402597402597, 'b,c': 0.34536082474226804, 'c,c': 0.7735849056603774},
        "replacements": 5,
        "matches": 385,
        "bound_events": 1155,
    },
    ('tree-compiled', 'neg'): {
        "counters": {'partial_matches_created': 739, 'extension_attempts': 2264, 'matches_emitted': 54, 'matches_suppressed_by_negation': 22, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.625, 'a,b': 0.5294117647058824, 'a,n': 0.5, 'b,c': 0.3150684931506849, 'c,c': 0.7735849056603774},
        "replacements": 5,
        "matches": 54,
        "bound_events": 162,
    },
    ('tree-compiled', 'kl'): {
        "counters": {'partial_matches_created': 1011, 'extension_attempts': 3440, 'matches_emitted': 21, 'matches_suppressed_by_negation': 0, 'candidates_pruned': 0},
        "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
        "selectivities": {'a,a': 0.5555555555555556, 'a,b': 0.4, 'b,c': 0.2920353982300885, 'c,c': 0.7307692307692307, 'd,d': 0.8235294117647058},
        "replacements": 5,
        "matches": 21,
        "bound_events": 99,
    },
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_counts_match_the_full_per_call_path(engine, shape):
    observed, engine_types = run_counts(engine, shape)
    family = TreeEvaluationEngine if engine.startswith("tree") else LazyNFAEngine
    assert engine_types == {family}
    assert observed == EXPECTED[engine, shape]


def test_the_stream_exercises_what_the_pins_guard():
    """Regressions, an unnamed type, and plan replacements are all present."""
    events = arrival_stream(33)
    assert any(e.type_name == "X" for e in events)
    assert any(b.timestamp < a.timestamp for a, b in zip(events, events[1:]))
    replaced = [EXPECTED[key]["replacements"] for key in EXPECTED]
    assert max(replaced) > 0


# ----------------------------------------------------------------------
# A tree-engine checkpoint written before the arrival table existed
# ----------------------------------------------------------------------
BLOB = os.path.join(os.path.dirname(__file__), "data", "engine_state_pr31_tree.bin")
BLOB_CUT = 690


def tree_blob_engine() -> AdaptiveCEPEngine:
    return arrival_engine("tree-compiled", "neg")


#: What a tree engine pickled before the arrival table existed; derived
#: state must not add to it (checkpoint bytes stay the same).
TREE_STATE_KEYS = [
    "_compiled",
    "_emitted_keys",
    "_expiry_interval",
    "_kleene_buffers",
    "_last_expiry",
    "_leaf_stores_by_type",
    "_negated_buffers",
    "_stores",
    "collector",
    "compile_mode",
    "counters",
    "pattern",
    "plan",
    "suppress_all_new_after",
]


def pickled_keys(engine):
    return sorted(engine.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2])


def match_records(matches):
    return sorted(
        (
            match.pattern_name,
            match.detection_time,
            tuple(sorted(match.event_ids())),
        )
        for match in matches
    )


#: ``plan_history`` and ``counts_of`` at the end of the uninterrupted run of
#: the build that wrote the blob.  A restored engine keeps the invariants it
#: was checkpointed with, so it finishes exactly like that run; a fresh run of
#: this build re-plans on the A/C swaps before the cut as well.
BLOB_RUN_PLAN_HISTORY = [
    "TreeBasedPlan[(A(a), (B(b), C(c)))]",
    "TreeBasedPlan[((A(a), B(b)), C(c))]",
]
BLOB_RUN_COUNTS = {
    "counters": {'partial_matches_created': 658, 'extension_attempts': 1856, 'matches_emitted': 54, 'matches_suppressed_by_negation': 21, 'candidates_pruned': 0},
    "rates": {'A': 1.3333333333333333, 'B': 6.333333333333333, 'C': 13.0, 'D': 3.3333333333333335},
    "selectivities": {'a,a': 0.625, 'a,b': 0.47368421052631576, 'a,n': 0.5, 'b,c': 0.45454545454545453, 'c,c': 0.7441860465116279},
    "replacements": 1,
}


def test_tree_checkpoint_from_before_the_table_restores_and_continues():
    """``engine_state_pr31_tree.bin`` is ``snapshot_engine`` of
    ``tree_blob_engine()`` after the first ``BLOB_CUT`` events of
    ``arrival_stream(33)``, written by the full per-call path."""
    with open(BLOB, "rb") as handle:
        blob = handle.read()
    restored = restore_engine(blob)
    events = arrival_stream(33)

    active = restored.migration_manager.active_engine
    assert isinstance(active, TreeEvaluationEngine)
    assert active.pattern.negated_items
    assert restored.migration_manager.draining_count == 1

    fresh = tree_blob_engine()
    for event in events[:BLOB_CUT]:
        fresh.process(event)
    for engine in (*restored.evaluation_engines(), *fresh.evaluation_engines()):
        assert pickled_keys(engine) == TREE_STATE_KEYS
    tail = events[BLOB_CUT:]
    restored_matches = [m for e in tail for m in restored.process(e)]
    fresh_matches = [m for e in tail for m in fresh.process(e)]
    assert restored_matches
    assert match_records(restored_matches) == match_records(fresh_matches)
    assert restored.plan_history == BLOB_RUN_PLAN_HISTORY
    assert counts_of(restored) == BLOB_RUN_COUNTS
