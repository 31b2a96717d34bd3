"""Tests of the benchmark harness itself (fast; no worker processes).

Collected by the tier-1 command.  They cover the statistics the harness
reports (percentiles, span self time), the determinism of the inputs, the
reference check, a 1 %-scale pass of every workload against the on-the-fly
reference, and the shape of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from bench import generate, inputs, layers, measure, reference, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SMOKE_EVENTS = 3000
SMOKE_REFERENCE_EVENTS = 1500


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 95) == 95
    assert tracing.percentile(values, 100) == 100
    assert tracing.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    # p95 of 199 samples leaves 9 beyond the rank; of 200 samples, 10.
    assert tracing.supported_percentile(list(range(199)), 95) is None
    assert tracing.supported_percentile(list(range(200)), 95) == 189
    # The median needs 20 samples.
    assert tracing.supported_percentile(list(range(19)), 50) is None
    assert tracing.supported_percentile(list(range(20)), 50) == 9


def test_quietest_composite_takes_each_segment_from_the_pass_that_served_it_fastest():
    def served(wall, cpu, latencies):
        return {"segments": {"wall_s": wall, "cpu_s": cpu, "latencies_s": latencies}}

    # A slow spell hit the first pass in segment 0 and the second in segment 1.
    first = served([2.0, 1.0], [1.5, 0.9], [[9.0] * 20, [1.0] * 20])
    second = served([1.0, 3.0], [0.8, 2.0], [[2.0] * 20, [8.0] * 20])
    composite = run.quietest_composite([first, second])
    assert composite["wall_s"] == pytest.approx(1.0 + 1.0)
    assert composite["cpu_s"] == pytest.approx(0.8 + 0.9)
    assert composite["latency_samples"] == 40
    assert composite["latency_p50_s"] == 1.0
    # One pass is its own composite.
    assert run.quietest_composite([first])["wall_s"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child", 6.0, 8.0, 0),
    ]
    totals = tracing.self_times(spans)
    assert totals["root"] == (1, pytest.approx(5.0))
    assert totals["child"] == (2, pytest.approx(4.0))
    assert totals["grandchild"] == (1, pytest.approx(1.0))
    assert sum(seconds for _calls, seconds in totals.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 7.0, 0),   # overlaps a: [1, 7] is covered once
        ("c", 9.0, 12.0, 0),  # runs past the parent: clipped to [9, 10]
    ]
    totals = tracing.self_times(spans)
    assert totals["root"] == (1, pytest.approx(10.0 - 6.0 - 1.0))


def test_recorder_tracks_parents_and_restores_patched_methods():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    undo = tracing.install(
        recorder, [(Layer, "outer", "layer.outer"), (Layer, "inner", "layer.inner")]
    )
    try:
        assert Layer().outer() == 2
    finally:
        undo()
    assert recorder.spans() == [("layer.outer", 0.0, 3.0, -1), ("layer.inner", 1.0, 2.0, 0)]
    assert "__wrapped__" not in vars(Layer.outer)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_repeat_for_a_seed_and_differ_between_seeds(name):
    workload = workloads.by_name(name)
    first, digest = generate.arrival_events(workload, 13, 2000)
    again, same = generate.arrival_events(workloads.by_name(name), 13, 2000)
    _other, different = generate.arrival_events(workload, 14, 2000)
    assert digest == same
    assert digest != different
    assert len(first) == 2000
    assert [e.sequence_number for e in first] == list(range(2000))
    assert [(e.type_name, e.timestamp, e.payload) for e in first] == [
        (e.type_name, e.timestamp, e.payload) for e in again
    ]
    in_order = all(a.timestamp <= b.timestamp for a, b in zip(first, first[1:]))
    assert in_order != workload.disordered


def test_hot_keys_share_a_shard():
    workload = workloads.by_name("sharded_skew_2w")
    from repro.events import Event
    from repro.parallel import KeyPartitioner

    partitioner = KeyPartitioner(workload.KEY)
    hottest = workload.entity_ids_by_rank()[:3]
    shards = {
        partitioner.route(Event(workload._types[0], 0.0, {workload.KEY: int(e)}), 2)[0]
        for e in hottest
    }
    assert len(shards) == 1
    assert sorted(workload.entity_ids_by_rank()) == list(range(workload.ENTITIES))


# ----------------------------------------------------------------------
# Reference check
# ----------------------------------------------------------------------
def _line(*keys):
    bindings = {f"v{i}": {"timestamp": t, "sequence": n} for i, (t, n) in enumerate(keys)}
    return json.dumps({"bindings": bindings})


def test_only_matches_wholly_inside_one_slice_are_compared():
    slices = [[[0.0, 0], [1.0, 9]], [[5.0, 50], [6.0, 59]]]
    inside = [_line((0.0, 0), (1.0, 9)), _line((5.5, 55), (5.2, 52))]
    outside = [
        _line((0.5, 5), (1.0, 10)),   # runs past the first slice (sequence breaks the tie)
        _line((0.9, 8), (5.1, 51)),   # straddles two slices
        _line((3.0, 30), (3.1, 31)),  # between them
    ]
    assert measure.lines_within(inside + outside, slices) == inside
    assert measure.multiset_difference(["a", "a", "b"], ["a", "c"]) == 3


def test_reference_slices_are_evenly_spaced():
    stretches = generate.reference_slices(list(range(90)), 9, 18)
    assert stretches == [[start, start + 1] for start in range(0, 90, 10)]


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", reference.PINNED_SEEDS)
def test_committed_expectations_are_for_the_input_the_seed_generates(name, seed):
    workload = workloads.by_name(name)
    columns = inputs.draw_columns(workload.spec(workload.events), seed, workload.events)
    expected = reference.load_expected(name, seed, workload.events, columns.digest())
    assert expected["matches"] >= 1000
    with pytest.raises(ValueError, match="stale"):
        reference.load_expected(name, seed, workload.events, "another input")
    with pytest.raises(ValueError, match="missing"):
        reference.load_expected(name, 15, workload.events, columns.digest())


def _pass(**changes):
    result = {
        "traced": False, "dropped": 0, "reference_difference": 0, "matches": 10,
        "digest": "d", "counts": {"requested": 0, "requested_at_warmup": 0},
    }
    result.update(changes)
    return result


def test_failures_are_counted_against_the_reference():
    meta = {"events": 0, "input_digest": ""}
    assert run.verify("multi_mixed_64", 101, meta, [_pass(), _pass()]) == ([], 0)
    problems, failed = run.verify(
        "multi_mixed_64", 101, meta,
        [_pass(), _pass(dropped=2, reference_difference=3), _pass(matches=8, digest="e")],
    )
    assert failed == 2 + 3 + 2 and len(problems) == 3
    # A pinned seed without its committed expectation is a problem, not a skip.
    problems, _failed = run.verify("multi_mixed_64", 13, meta, [_pass()])
    assert any("stale" in problem for problem in problems)
    grew = _pass(counts={"requested": 3, "requested_at_warmup": 1})
    assert run.verify("stable_conj_tree", 101, meta, [grew])[0]


# ----------------------------------------------------------------------
# Smoke passes
# ----------------------------------------------------------------------
def _smoke(name, tmp_path, traced=False):
    workload = workloads.by_name(name)
    inputs = str(tmp_path / "inputs")
    if not os.path.exists(inputs):
        generate.generate(workload, 13, SMOKE_EVENTS, SMOKE_REFERENCE_EVENTS, inputs)
    return measure.run_pass(
        name, inputs, str(tmp_path / f"work-{int(traced)}"), traced=traced, in_process=True
    )


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_pass_reproduces_the_reference(name, tmp_path):
    result = _smoke(name, tmp_path)
    assert result["events_processed"] == SMOKE_EVENTS
    assert result["dropped"] == 0
    assert result["reference_difference"] == 0
    assert result["matches"] > 0
    assert result["latency_samples"] == result["matches"]
    # The segments partition the pass: wall time and latency samples add up.
    segments = result["segments"]
    assert len(segments["wall_s"]) == len(segments["cpu_s"]) == measure.SEGMENTS
    assert sum(segments["wall_s"]) == pytest.approx(result["wall_s"])
    assert sum(len(samples) for samples in segments["latencies_s"]) == result["matches"]


def test_traced_pass_yields_every_per_layer_metric(tmp_path):
    plain = _smoke("serve_drift_seq", tmp_path)
    traced = _smoke("serve_drift_seq", tmp_path, traced=True)
    assert traced["digest"] == plain["digest"]
    values = layers.per_layer_metrics(plain, traced)
    assert list(values) == [name for name, *_ in layers.PER_LAYER]
    assert all(isinstance(value, float) for value in values.values())
    # Self times partition the traced pass: they sum to its wall time.
    total = sum(seconds for _calls, seconds in traced["self_times"].values())
    assert total == pytest.approx(traced["wall_s"], rel=0.05)
    shares = layers.layer_shares(traced["self_times"])
    for layer in ("streaming.sources", "streaming.ordering", "streaming.checkpoint"):
        assert shares[layer] > 0.0
    # The patches are gone: an untraced pass records nothing.
    from repro.streaming import StreamingPipeline

    assert "__wrapped__" not in vars(StreamingPipeline.run)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_lint():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["bench"]
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60

    names = [w["name"] for w in manifest["workloads"]]
    assert tuple(names) == workloads.NAMES
    assert 2 <= len(names) <= 8
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.by_name(entry["name"]).why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    from bench.run import END_TO_END

    end_to_end = manifest["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    assert [(m["name"], m["unit"]) for m in end_to_end] == list(END_TO_END)
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)

    per_layer = manifest["per_layer"]
    assert 1 <= len(per_layer) <= 128
    assert [(m["name"], m["unit"], m["better"]) for m in per_layer] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER
    ]
    every = [m["name"] for m in end_to_end + per_layer] + names
    assert len(set(every)) == len(every)
    for metric in end_to_end + per_layer:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for name in names:
        assert NAME.match(name)

    # Every per-layer metric predicts existing end-to-end metrics on
    # existing workloads.
    known = {m["name"] for m in end_to_end}
    for name, _unit, _better, moves, where in layers.PER_LAYER:
        assert set(moves) <= known, name
        assert set(where) <= set(names), name
        assert bool(moves) == bool(where), name
