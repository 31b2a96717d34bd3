"""The ``repro.compile`` subsystem: kernels, indexes, dedup, checkpoints.

Four layers of coverage:

1. **Kernel equivalence** — every compiled kernel shape (local / step /
   join, specialized and fallback) is fuzzed against the interpreted
   ``Condition.evaluate`` it was lowered from.
2. **Equality-index semantics** — probe results partition the indexed
   items, ``None``/unhashable keys degrade safely, pruned counts add up.
3. **Condition identity** — ``cache_key`` equality tracks semantic
   equality for transparent conditions, stays per-instance for opaque
   ones, and ``ConditionSet`` drops duplicated conjuncts exactly once.
4. **Compiled checkpointing** — a compiled engine killed mid-stream and
   resumed from a full or delta checkpoint serves the byte-identical
   match set, and the module-level compile counter proves the restored
   engine re-compiled its plan (closures never travel in a snapshot).
"""

from __future__ import annotations

import json
import pickle
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.adaptive import InvariantBasedPolicy
from repro.compile import (
    COMPILE_MODES,
    CompiledPlanKernels,
    EqualityIndex,
    compile_join_kernel,
    compile_local_kernel,
    compile_step_kernel,
    find_equality_index_spec,
    plans_compiled_total,
    specialization_counts,
    validate_compile_mode,
)
from repro.conditions import (
    AndCondition,
    AttributeComparisonCondition,
    AttributeThresholdCondition,
    ConditionSet,
    EqualityCondition,
    PredicateCondition,
)
from repro.engine import AdaptiveCEPEngine, restore_engine, snapshot_engine
from repro.errors import EngineError
from repro.events import Event, EventType
from repro.optimizer import GreedyOrderPlanner
from repro.patterns import seq
from repro.streaming import (
    CheckpointStore,
    JSONLMatchWriter,
    ReplaySource,
    StreamingPipeline,
)
from repro.streaming.sinks import match_record
from tests.conftest import make_camera_stream

A, B, C = EventType("A"), EventType("B"), EventType("C")


def _event(type_=A, t=0.0, **payload):
    return Event(type_, t, payload)


def _random_events(rng, count=200):
    """Events with occasionally-missing and occasionally-weird attributes."""
    events = []
    for i in range(count):
        payload = {}
        if rng.random() < 0.9:
            payload["speed"] = rng.uniform(-10, 110)
        if rng.random() < 0.9:
            payload["person_id"] = rng.randint(0, 4)
        if rng.random() < 0.1:
            payload["person_id"] = [1, 2]  # unhashable, still comparable
        events.append(_event(t=float(i), **payload))
    return events


# ----------------------------------------------------------------------
# 1. Kernel equivalence against the interpreted evaluator
# ----------------------------------------------------------------------
def test_local_kernel_matches_interpreted_threshold():
    condition = AttributeThresholdCondition("a", "speed", "<", 60.0)
    kernel = compile_local_kernel(condition, "a")
    assert kernel.specialized
    rng = random.Random(5)
    for event in _random_events(rng):
        assert kernel.fn(event) == condition.evaluate({"a": event})


def test_local_kernel_falls_back_on_opaque_predicate():
    condition = PredicateCondition(["a"], lambda a: a.get("speed", 0) > 10)
    kernel = compile_local_kernel(condition, "a")
    assert not kernel.specialized
    event = _event(speed=25.0)
    assert kernel.fn(event) == condition.evaluate({"a": event})


def test_step_kernel_matches_interpreted_comparison():
    condition = AttributeComparisonCondition("a", "speed", "<", "b", "speed")
    kernel = compile_step_kernel(condition, "b")
    assert kernel.specialized
    rng = random.Random(7)
    events = _random_events(rng)
    for bound, new in zip(events, reversed(events)):
        bindings = {"a": bound}
        expected = condition.evaluate({"a": bound, "b": new})
        assert kernel.fn(bindings, new) == expected


def test_step_kernel_threshold_on_new_variable():
    condition = AttributeThresholdCondition("b", "speed", ">", 30.0)
    kernel = compile_step_kernel(condition, "b")
    rng = random.Random(8)
    for event in _random_events(rng):
        assert kernel.fn({}, event) == condition.evaluate({"b": event})


def test_join_kernel_matches_interpreted_both_orientations():
    condition = EqualityCondition("a", "c", "person_id")
    left_vars, right_vars = frozenset({"a", "b"}), frozenset({"c"})
    forward = compile_join_kernel(condition, left_vars, right_vars)
    backward = compile_join_kernel(condition, right_vars, left_vars)
    rng = random.Random(9)
    events = _random_events(rng)
    for ea, ec in zip(events, reversed(events)):
        expected = condition.evaluate({"a": ea, "c": ec})
        assert forward.fn({"a": ea, "b": ea}, {"c": ec}) == expected
        assert backward.fn({"c": ec}, {"a": ea, "b": ea}) == expected


# The stocks join: PriceJumpCondition declares ``a.diff + margin < b.diff``
# with a missing ``diff`` reading as 0.0 (AttributeComparisonCondition's
# missing attribute fails instead), so both compiled kernels lower it.
# Diffs and margins are multiples of 1.25, exact in binary, so the sum
# can tie the other side and the strictness of ``<`` is exercised.
_DIFFS = st.one_of(
    st.none(),  # no ``diff`` attribute
    st.sampled_from([-2.5, -1.25, -0.0, 0.0, 1.25, 2.5, 3.75]),
    st.integers(-3, 3).map(float),
)
_MARGINS = st.sampled_from([0.0, 1.25, 2.5, -1.25])


def _stock_event(diff, t=0.0):
    return Event(B, t, {} if diff is None else {"diff": diff, "price": 10.0})


def _stock_binding(diffs):
    """One event, or a Kleene list of events (which goes through evaluate)."""
    if isinstance(diffs, list):
        return [_stock_event(diff, float(i)) for i, diff in enumerate(diffs)]
    return _stock_event(diffs)


_STOCK_BINDINGS = st.one_of(_DIFFS, st.lists(_DIFFS, min_size=1, max_size=3))


@given(margin=_MARGINS, first=_STOCK_BINDINGS, second=_STOCK_BINDINGS)
def _price_jump_kernels_agree(margin, first, second):
    from repro.datasets.stocks import PriceJumpCondition

    condition = PriceJumpCondition("a", "b", margin)
    first, second = _stock_binding(first), _stock_binding(second)
    expected = condition.evaluate({"a": first, "b": second})
    if not isinstance(second, list):
        kernel = compile_step_kernel(condition, "b")
        assert kernel.specialized
        assert kernel.fn({"a": first}, second) == expected
    if not isinstance(first, list):
        kernel = compile_step_kernel(condition, "a")
        assert kernel.specialized
        assert kernel.fn({"b": second}, first) == expected
    left, right = frozenset({"a"}), frozenset({"b"})
    forward = compile_join_kernel(condition, left, right)
    backward = compile_join_kernel(condition, right, left)
    assert forward.specialized and backward.specialized
    assert forward.fn({"a": first}, {"b": second}) == expected
    assert backward.fn({"b": second}, {"a": first}) == expected


def test_price_jump_kernels_agree_with_evaluate():
    """Step (either variable new) and join (either side) kernels of the
    stocks condition equal ``PriceJumpCondition.evaluate`` on negative,
    zero, tied and missing diffs and on Kleene list bindings."""
    _price_jump_kernels_agree()


def test_price_jump_property_catches_a_non_strict_mutant(monkeypatch):
    import operator

    from repro.compile import kernels

    monkeypatch.setitem(kernels._OPS, "<", operator.le)
    mutant = settings(
        database=None, derandomize=True, report_multiple_bugs=False, max_examples=300
    )(_price_jump_kernels_agree)
    with pytest.raises(AssertionError):
        mutant()


def test_every_dataset_condition_lowers_or_is_a_predicate():
    """Each shipped dataset's inter-event condition compiles to specialised
    step and join kernels, or is a PredicateCondition (traffic's
    ``same_direction``, opaque by design and called positionally)."""
    from repro.datasets import (
        ConfigurableDatasetSimulator,
        StockDatasetSimulator,
        TrafficDatasetSimulator,
    )
    from repro.statistics import ConstantValue

    datasets = [
        StockDatasetSimulator(),
        TrafficDatasetSimulator(),
        ConfigurableDatasetSimulator([A, B], {"A": ConstantValue(1.0), "B": ConstantValue(1.0)}),
    ]
    for dataset in datasets:
        condition = dataset.condition_between("a", "b")
        if type(condition) is PredicateCondition:
            continue
        left, right = frozenset({"a"}), frozenset({"b"})
        kernels = [
            compile_step_kernel(condition, "a"),
            compile_step_kernel(condition, "b"),
            compile_join_kernel(condition, left, right),
            compile_join_kernel(condition, right, left),
        ]
        assert all(kernel.specialized for kernel in kernels), dataset.name


# ----------------------------------------------------------------------
# 2. Equality-index semantics
# ----------------------------------------------------------------------
def test_equality_index_partitions_and_counts_pruned():
    index = EqualityIndex()
    for key, item in [(1, "x"), (1, "y"), (2, "z")]:
        index.add(key, item)
    primary, fallback, pruned = index.probe(1)
    assert sorted(primary) == ["x", "y"]
    assert fallback == []
    assert pruned == 1  # "z" skipped without evaluation


def test_equality_index_none_probe_prunes_every_keyed_item():
    index = EqualityIndex()
    index.add(1, "x")
    index.add(2, "y")
    primary, fallback, pruned = index.probe(None)
    assert list(primary) == []
    assert fallback == []
    assert pruned == 2


def test_equality_index_unhashable_stored_key_lands_in_fallback():
    index = EqualityIndex()
    index.add([1, 2], "weird")  # TypeError -> fallback bucket
    index.add(1, "x")
    primary, fallback, pruned = index.probe(2)
    assert list(primary) == []
    assert fallback == ["weird"]  # always scanned, never pruned
    assert pruned == 1


def test_equality_index_unhashable_probe_key_disables_pruning():
    index = EqualityIndex()
    index.add(1, "x")
    primary, fallback, pruned = index.probe([1, 2])
    assert primary is None  # caller must fall back to a full scan
    assert pruned == 0


def test_find_equality_index_spec_orients_either_side():
    forward = EqualityCondition("a", "b", "person_id")
    backward = EqualityCondition("b", "a", "person_id")
    for condition in (forward, backward):
        spec = find_equality_index_spec([condition], "b", ("a",))
        assert spec is not None
        assert spec.bound_variable == "a"
        assert spec.bound_attribute == "person_id"
        assert spec.event_attribute == "person_id"
        assert spec.pair == ("a", "b")
    # A non-equality comparison must not be indexed.
    less = AttributeComparisonCondition("a", "speed", "<", "b", "speed")
    assert find_equality_index_spec([less], "b", ("a",)) is None


# ----------------------------------------------------------------------
# 3. cache_key identity and ConditionSet dedup
# ----------------------------------------------------------------------
def test_cache_key_tracks_semantic_equality():
    assert (
        AttributeThresholdCondition("a", "speed", "<", 60.0).cache_key()
        == AttributeThresholdCondition("a", "speed", "<", 60.0).cache_key()
    )
    assert (
        AttributeThresholdCondition("a", "speed", "<", 60.0).cache_key()
        != AttributeThresholdCondition("a", "speed", "<", 61.0).cache_key()
    )
    assert (
        EqualityCondition("a", "b", "person_id").cache_key()
        == EqualityCondition("a", "b", "person_id").cache_key()
    )


def test_cache_key_is_per_instance_for_opaque_predicates():
    def same(a):
        return True

    first = PredicateCondition(["a"], same)
    second = PredicateCondition(["a"], same)
    assert first.cache_key() != second.cache_key()
    assert first.cache_key() == first.cache_key()  # stable per instance


def test_condition_set_dedups_repeated_conjuncts():
    duplicated = AndCondition(
        [
            EqualityCondition("a", "b", "person_id"),
            AttributeThresholdCondition("a", "speed", "<", 60.0),
            EqualityCondition("a", "b", "person_id"),  # exact repeat
            AttributeThresholdCondition("a", "speed", "<", 60.0),
        ]
    )
    condition_set = ConditionSet(duplicated)
    assert len(list(condition_set.conjuncts)) == 2
    assert len(condition_set.single_variable_conditions("a")) == 1


def test_condition_set_keeps_distinct_opaque_conjuncts():
    first = PredicateCondition(["a"], lambda a: True)
    second = PredicateCondition(["a"], lambda a: True)
    condition_set = ConditionSet.from_conditions([first, first, second])
    # The repeated *instance* merges; the distinct lambda does not.
    assert len(list(condition_set.conjuncts)) == 2


def test_validate_compile_mode_rejects_unknown_modes():
    for mode in COMPILE_MODES:
        assert validate_compile_mode(mode) == mode
    with pytest.raises(EngineError):
        validate_compile_mode("jit")


# ----------------------------------------------------------------------
# 4. Compiled plans across pickling and kill/resume checkpoints
# ----------------------------------------------------------------------
def _pattern():
    condition = AndCondition(
        [
            EqualityCondition("a", "b", "person_id"),
            EqualityCondition("b", "c", "person_id"),
        ]
    )
    return seq([A, B, C], condition=condition, window=10.0)


def _engine(compile_mode):
    return AdaptiveCEPEngine(
        _pattern(),
        GreedyOrderPlanner(),
        InvariantBasedPolicy(),
        compile_mode=compile_mode,
    )


def test_compiled_plan_kernels_rebuild_on_unpickle():
    engine = _engine("compiled")
    kernels = engine.migration_manager.active_engine._compiled
    assert isinstance(kernels, CompiledPlanKernels)
    specialized, fallback = specialization_counts(
        [k for ks in kernels.local_kernels.values() for k in ks]
        + [k for step in kernels.steps for k in step.kernels]
    )
    assert specialized > 0
    before = plans_compiled_total()
    restored = pickle.loads(pickle.dumps(kernels))
    assert plans_compiled_total() == before + 1  # unpickle re-compiled
    assert restored.indexed == kernels.indexed
    assert len(restored.steps) == len(kernels.steps)


def test_restored_engine_recompiles_and_detects_identically():
    events = make_camera_stream(count=200, seed=41).to_list()
    reference = [
        json.dumps(match_record(m))
        for m in _engine("interpreted").run(events).matches
    ]
    engine = _engine("indexed")
    live = [json.dumps(match_record(m)) for m in engine.run(events).matches]
    assert sorted(live) == sorted(reference) and reference
    before = plans_compiled_total()
    restored = restore_engine(snapshot_engine(engine))
    assert plans_compiled_total() > before  # snapshot shipped no closures
    assert restored.compile_mode == "indexed"


CHECKPOINT_EVERY = 40


@pytest.mark.parametrize("checkpoint_mode", ["full", "delta"])
@pytest.mark.parametrize("compile_mode", ["compiled", "indexed"])
def test_compiled_kill_resume_serves_reference_matches(
    tmp_path, checkpoint_mode, compile_mode
):
    """Kill a compiled engine mid-stream, resume, compare byte-for-byte.

    The kill (``final_checkpoint=False``) discards all in-memory state —
    including every compiled closure — so the resume must restore the
    engine from the checkpoint and re-compile its plan before serving the
    remaining events.  The compile counter pins the re-compilation down.
    """
    pattern = _pattern()
    events = make_camera_stream(count=300, seed=13).to_list()
    reference = sorted(
        json.dumps(match_record(m))
        for m in AdaptiveCEPEngine(
            pattern, GreedyOrderPlanner(), InvariantBasedPolicy()
        )
        .run(events)
        .matches
    )
    assert reference, "the kill/resume workload must produce matches"

    sink_path = str(tmp_path / "matches.jsonl")
    store = CheckpointStore(str(tmp_path / "ckpt"))

    def build():
        engine = AdaptiveCEPEngine(
            pattern,
            GreedyOrderPlanner(),
            InvariantBasedPolicy(),
            compile_mode=compile_mode,
        )
        return StreamingPipeline(
            engine,
            ReplaySource(events),
            sinks=[JSONLMatchWriter(sink_path)],
            checkpoint_store=store,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_mode=checkpoint_mode,
        )

    kill_at = CHECKPOINT_EVERY * 2 + CHECKPOINT_EVERY // 2  # mid-interval
    first = build().run(max_events=kill_at, final_checkpoint=False)
    assert first.stop_reason == "max-events"

    before = plans_compiled_total()
    second = build().run()
    assert second.stop_reason == "source-exhausted"
    assert second.resumed_from == CHECKPOINT_EVERY * 2
    # The fresh pipeline engine compiles once; restoring the checkpointed
    # engine state must compile again (the snapshot carries no closures).
    assert plans_compiled_total() >= before + 2

    served = sorted(
        line for line in open(sink_path).read().splitlines() if line
    )
    assert served == reference, (
        f"{compile_mode}/{checkpoint_mode}: kill/resume lost or duplicated "
        f"matches ({len(served)} vs {len(reference)})"
    )


# ----------------------------------------------------------------------
# Mode agreement and pruning counters
# ----------------------------------------------------------------------
def test_modes_agree_and_indexed_prunes():
    events = make_camera_stream(count=300, seed=17).to_list()
    reference = None
    for mode in COMPILE_MODES:
        engine = _engine(mode)
        records = sorted(json.dumps(match_record(m)) for m in engine.run(events).matches)
        if reference is None:
            reference = records
            assert reference
        else:
            assert records == reference, f"{mode} diverged from interpreted"
        pruned = engine.migration_manager.total_counters().candidates_pruned
        if mode == "indexed":
            assert pruned > 0, "equality index never pruned a candidate"
        else:
            assert pruned == 0
