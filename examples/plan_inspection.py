"""Plan and invariant inspection: what the optimizer actually decides.

A small, fully deterministic walkthrough of the machinery underneath the
engine — useful for understanding the paper's method without any streaming:

1. generate order-based and tree-based plans for the camera pattern under
   the paper's example statistics (rateA=100, rateB=15, rateC=10);
2. show the deciding-condition sets recorded for every building block;
3. build the invariant list (basic and K-invariant variants) and show which
   statistic changes do and do not trigger reoptimization;
4. show the davg heuristic's distance estimate for the plan;
5. run the pattern on a default engine and print what it *measured*,
   straight from ``engine.introspection()``: the installed plan, the work
   counters, the live partial matches per NFA state, and the cost-model
   drift table — the plan's predicted selectivities (from the snapshot it
   was planned from) against what the statistics collector observed.

Run with::

    python examples/plan_inspection.py
"""

from __future__ import annotations

import random

from repro import (
    EqualityCondition,
    EventType,
    GreedyOrderPlanner,
    PatternBuilder,
    StatisticsSnapshot,
    ZStreamTreePlanner,
    average_relative_difference,
    build_invariant_set,
)
from repro.adaptive import InvariantBasedPolicy
from repro.engine import AdaptiveCEPEngine
from repro.events import Event


def build_pattern():
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    return (
        PatternBuilder.sequence()
        .event(a, "a")
        .event(b, "b")
        .event(c, "c")
        .where(EqualityCondition("a", "b", "person_id"))
        .where(EqualityCondition("b", "c", "person_id"))
        .within(600)
        .named("camera-example")
        .build()
    )


def show_planner(name, result):
    print(f"--- {name} ---")
    print(f"plan: {result.plan.describe()}")
    print(f"plan cost under the creation statistics: {result.plan.cost(result.snapshot):,.1f}")
    print("deciding-condition sets per building block:")
    for condition_set in result.condition_sets:
        print(f"  block [{condition_set.block_label}]")
        if condition_set.is_empty():
            print("    (no statistics-driven choice for this block)")
        for condition in condition_set:
            print(f"    {condition.describe()}")
    print()


def make_stream(count=600, seed=7, persons=5):
    """A deterministic random stream over the camera types, biased towards A."""
    a, b, c = EventType("A"), EventType("B"), EventType("C")
    rng = random.Random(seed)
    events = []
    t = 0.0
    for _ in range(count):
        t += rng.uniform(0.05, 0.2)
        roll = rng.random()
        event_type = a if roll < 0.6 else (b if roll < 0.85 else c)
        events.append(Event(event_type, t, {"person_id": rng.randint(0, persons - 1)}))
    return events


def show_introspection(pattern, snapshot) -> None:
    engine = AdaptiveCEPEngine(
        pattern,
        GreedyOrderPlanner(),
        InvariantBasedPolicy(distance=0.1),
        initial_snapshot=snapshot,
        monitoring_interval=5.0,
    )
    result = engine.run(make_stream())
    frame = engine.introspection()
    print(f"ran {result.metrics.events_processed} events, {result.match_count} matches")
    print(f"active plan: {frame['plan']} (after {frame['reoptimizations']} re-plans)")
    print()

    print("work counters:")
    for name, value in frame["counters"].items():
        print(f"  {name:<32} {value:>8,}")
    print()

    pm = frame["partial_matches"]
    print(f"partial matches: live={pm['live']}, per_state={pm['per_state']}")
    print()

    drift = frame["drift"]
    print(
        "cost-model drift (the installed plan's predictions vs the "
        "statistics measured from the stream):"
    )
    print(
        f"  predicted plan cost: {drift['predicted_cost']:,.1f} "
        f"(planned by {drift['generator']} at t={drift['installed_at']:g})"
    )
    for row in drift["pairs"]:
        print(
            f"  sel({row['pair']}): predicted={row['predicted']:.3f}"
            f"  observed={row['observed']:.3f}"
            f"  ratio={row['ratio']:.2f}  drift={row['drift']:.2f}"
        )
    print(f"  worst drift ratio: {drift['max_drift']:.2f}")


def main() -> None:
    pattern = build_pattern()
    snapshot = StatisticsSnapshot(
        {"A": 100.0, "B": 15.0, "C": 10.0},
        {("a", "b"): 0.3, ("b", "c"): 0.2},
    )
    print("statistics used for plan generation:")
    print(f"  arrival rates: {dict(snapshot.rates)}")
    print(f"  selectivities: {dict(snapshot.selectivities)}")
    print()

    greedy_result = GreedyOrderPlanner().generate(pattern, snapshot)
    show_planner("greedy order-based planner (Algorithm 2)", greedy_result)

    zstream_result = ZStreamTreePlanner().generate(pattern, snapshot)
    show_planner("ZStream dynamic-programming tree planner (Algorithm 3)", zstream_result)

    print("--- invariants for the greedy plan ---")
    basic = build_invariant_set(greedy_result, k=1)
    print("basic (1-invariant) method:")
    print(basic.describe())
    full = build_invariant_set(greedy_result, k=0)
    print(f"K=all variant monitors {len(full)} conditions instead of {len(basic)}")
    print()

    davg = average_relative_difference(greedy_result.condition_sets, snapshot)
    print(f"average relative difference heuristic: davg = {davg:.3f}")
    print()

    print("--- what triggers reoptimization? ---")
    scenarios = {
        "rate of A doubles (least sensitive type)": snapshot.with_rate("A", 200.0),
        "rate of C rises to 12 (still below B)": snapshot.with_rate("C", 12.0),
        "rate of C rises to 30 (overtakes B)": snapshot.with_rate("C", 30.0),
        "selectivity sel(a,b) collapses to 0.01": snapshot.with_selectivity("a", "b", 0.01),
    }
    for label, current in scenarios.items():
        violated = basic.first_violated(current)
        if violated is None:
            print(f"  {label}: all invariants hold -> keep the current plan")
        else:
            print(f"  {label}: VIOLATED {violated.describe()} -> regenerate the plan")
            regenerated = GreedyOrderPlanner().generate(pattern, current)
            print(f"      new plan would be {regenerated.plan.describe()}")
    print()

    print("--- live run: measured vs predicted ---")
    show_introspection(pattern, snapshot)


if __name__ == "__main__":
    main()
