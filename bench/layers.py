"""Per-layer metrics: what is read, from where, and what it should move.

*Counts* are read after an untraced pass from the counters the program
already keeps (``EngineCounters``, ``AdaptationStatistics``,
``PipelineMetrics``/``WorkerLaneMetrics``, the share manager's report,
``plans_compiled_total()``, ``specialization_counts()``); they repeat
exactly for a seed.  *Self times* come from the traced pass's spans.
:data:`PER_LAYER` is the one table of names, units, directions and the
predicted interaction (which end-to-end metric on which workloads); the
``per_layer`` list of ``BENCHMARK.json`` and the README table mirror it.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Tuple

#: (name, unit, better, end-to-end metrics it should move, workloads it
#: should move them on).  ``()`` workloads = none: reported for reading
#: the other numbers, predicted to move nothing.
PER_LAYER: Tuple[Tuple[str, str, str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("statistics.observe_us_per_event", "us", "lower", ("cpu_us_per_event",),
     ("multi_mixed_64", "serve_drift_seq", "stable_conj_tree", "sharded_skew_2w")),
    ("statistics.snapshot_calls", "count", "lower", ("cpu_us_per_event",), ("multi_mixed_64",)),
    ("statistics.snapshot_ms_total", "ms", "lower", ("cpu_us_per_event",), ("multi_mixed_64",)),
    ("adaptive.decisions", "count", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("adaptive.reopt_requested", "count", "lower", ("throughput_eps",),
     ("serve_drift_seq", "stable_conj_tree")),
    ("adaptive.plans_replaced", "count", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("adaptive.false_positive_share", "share", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("adaptive.stationary_replans", "count", "lower", ("throughput_eps",),
     ("serve_drift_seq", "stable_conj_tree")),
    ("adaptive.decide_us_per_decision", "us", "lower", ("cpu_us_per_event",),
     ("serve_drift_seq", "multi_mixed_64")),
    ("adaptive.overhead_share", "share", "lower", ("cpu_us_per_event",),
     ("serve_drift_seq", "multi_mixed_64")),
    ("optimizer.generate_calls", "count", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("optimizer.generate_ms_per_call", "ms", "lower", ("throughput_eps",),
     ("serve_drift_seq",)),
    ("engine.partial_matches_created_per_event", "1/event", "lower", ("throughput_eps",),
     ("serve_drift_seq", "stable_conj_tree")),
    ("engine.extension_attempts_per_event", "1/event", "lower", ("throughput_eps",),
     ("serve_drift_seq", "stable_conj_tree")),
    ("engine.partial_matches_high_water", "count", "lower", ("peak_rss_mb",),
     ("serve_drift_seq", "stable_conj_tree", "multi_mixed_64", "sharded_skew_2w")),
    ("engine.evaluate_us_per_event", "us", "lower", ("throughput_eps",),
     ("stable_conj_tree", "serve_drift_seq")),
    ("engine.migrations", "count", "lower", ("throughput_eps",),
     ("serve_drift_seq",)),
    ("engine.migration_overlap_events", "count", "lower",
     ("throughput_eps",), ("serve_drift_seq",)),
    ("engine.switch_ms_per_call", "ms", "lower", ("throughput_eps",),
     ("serve_drift_seq",)),
    ("compile.kernels_specialized_share", "share", "higher", ("throughput_eps",),
     ("stable_conj_tree",)),
    ("compile.plans_compiled", "count", "lower", ("setup_s", "throughput_eps"),
     ("multi_mixed_64", "serve_drift_seq")),
    ("compile.build_ms_per_plan", "ms", "lower", ("setup_s", "throughput_eps"),
     ("multi_mixed_64", "serve_drift_seq")),
    ("compile.index_pruned_share", "share", "higher", ("throughput_eps",), ("sharded_skew_2w",)),
    ("multi.sharing_groups", "count", "higher", ("throughput_eps", "peak_rss_mb"),
     ("multi_mixed_64",)),
    ("multi.patterns_shared_share", "share", "higher", ("throughput_eps", "peak_rss_mb"),
     ("multi_mixed_64",)),
    ("multi.prefix_hits", "count", "higher", ("throughput_eps",), ("multi_mixed_64",)),
    ("multi.kernels_reused", "count", "higher", ("setup_s", "peak_rss_mb"), ("multi_mixed_64",)),
    ("multi.dispatch_fanout_mean", "1/event", "lower", ("throughput_eps",), ("multi_mixed_64",)),
    ("multi.dispatch_us_per_event", "us", "lower", ("cpu_us_per_event",), ("multi_mixed_64",)),
    ("parallel.shard_skew", "ratio", "lower", ("throughput_eps",), ("sharded_skew_2w",)),
    ("parallel.route_us_per_event", "us", "lower", ("throughput_eps",), ("sharded_skew_2w",)),
    ("parallel.dedup_suppressed", "count", "lower", ("throughput_eps",), ("sharded_skew_2w",)),
    ("parallel.merge_us_per_match", "us", "lower", ("throughput_eps",), ("sharded_skew_2w",)),
    ("streaming.workers.straggler_busy_share", "share", "lower",
     ("throughput_eps", "detect_latency_p50_ms"), ("sharded_skew_2w",)),
    ("streaming.workers.coordinator_cpu_share", "share", "lower",
     ("throughput_eps", "cpu_us_per_event"), ("sharded_skew_2w",)),
    ("streaming.workers.queue_high_water_max", "count", "lower", ("detect_latency_p50_ms",),
     ("sharded_skew_2w",)),
    ("streaming.workers.batch_ms_mean", "ms", "lower", ("detect_latency_p50_ms",),
     ("sharded_skew_2w",)),
    ("streaming.sources.parse_us_per_event", "us", "lower", ("cpu_us_per_event",),
     ("serve_drift_seq",)),
    ("streaming.ordering.push_us_per_event", "us", "lower", ("detect_latency_p50_ms",),
     ("serve_drift_seq",)),
    ("streaming.ordering.depth_high_water", "count", "lower", ("detect_latency_p50_ms",),
     ("serve_drift_seq",)),
    ("streaming.ordering.late_events", "count", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("streaming.pipeline.loop_us_per_event", "us", "lower",
     ("throughput_eps", "detect_latency_p50_ms"),
     ("serve_drift_seq", "stable_conj_tree", "multi_mixed_64", "sharded_skew_2w")),
    ("streaming.pipeline.queue_depth_high_water", "count", "lower", ("detect_latency_p50_ms",),
     ("serve_drift_seq", "stable_conj_tree", "multi_mixed_64", "sharded_skew_2w")),
    # A user-visible number, not a layer's: it sits here, without a bound,
    # because across seeds it spread by 24 % (see bench/README.md).
    ("streaming.pipeline.detect_latency_p95_ms", "ms", "lower", (), ()),
    ("streaming.checkpoint.count", "count", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("streaming.checkpoint.bytes_mean", "B", "lower", ("throughput_eps",), ("serve_drift_seq",)),
    ("streaming.checkpoint.delta_share", "share", "higher", ("throughput_eps",),
     ("serve_drift_seq",)),
    ("streaming.checkpoint.pause_ms_mean", "ms", "lower",
     ("throughput_eps",), ("serve_drift_seq",)),
    ("streaming.checkpoint.pause_ms_max", "ms", "lower", ("throughput_eps",),
     ("serve_drift_seq",)),
    ("streaming.checkpoint.restore_ms", "ms", "lower", ("setup_s",), ("serve_drift_seq",)),
    ("streaming.sinks.emit_us_per_match", "us", "lower", ("cpu_us_per_event",),
     ("serve_drift_seq",)),
    ("streaming.sinks.bytes_written", "B", "lower", ("cpu_us_per_event",), ("serve_drift_seq",)),
    ("trace.overhead_share", "share", "lower", (), ()),
)


def adaptive_engines(engine) -> List:
    """Every per-pattern ``AdaptiveCEPEngine`` behind an engine facade."""
    subs = getattr(engine, "sub_engines", None)
    if subs is not None:
        return list(subs)
    sharded = getattr(engine, "sharded_engine", None)
    if sharded is not None:
        found: List = []
        for shard in sharded.shards:
            found.extend(adaptive_engines(shard.engine))
        return found
    return [engine]


def adaptation_totals(engine) -> Dict[str, int]:
    """``AdaptationStatistics`` summed over every controller."""
    totals = {"decisions": 0, "requested": 0, "generated": 0, "replaced": 0}
    for adaptive in adaptive_engines(engine):
        stats = adaptive.controller.statistics
        totals["decisions"] += stats.decisions_evaluated
        totals["requested"] += stats.reoptimizations_requested
        totals["generated"] += stats.plans_generated
        totals["replaced"] += stats.plans_replaced
    return totals


def _stationary_replans(engine, warmup_time: float, shifts: Iterable[float], settle: float) -> int:
    """Plan replacements after warm-up and outside every post-shift settling
    interval — replacements no change of the stream asked for."""
    shifts = list(shifts)
    count = 0
    for adaptive in adaptive_engines(engine):
        for record in adaptive.controller.statistics.replacements:
            if record.time <= warmup_time:
                continue
            if any(shift <= record.time <= shift + settle for shift in shifts):
                continue
            count += 1
    return count


def _specialized_share(engine) -> float:
    """Share of the live plans' kernels that are specialised (not fallback)."""
    from repro.compile import CompiledPlanKernels, specialization_counts

    specialized = fallback = 0
    for adaptive in adaptive_engines(engine):
        compiled = CompiledPlanKernels(
            adaptive.current_plan, indexed=adaptive.compile_mode == "indexed"
        )
        kernels = [k for group in compiled.local_kernels.values() for k in group]
        for step in compiled.steps or ():
            kernels.extend(step.kernels)
        for group in (compiled.join_kernels or {}).values():
            kernels.extend(group)
        good, bad = specialization_counts(kernels)
        specialized += good
        fallback += bad
    total = specialized + fallback
    return specialized / total if total else 0.0


def collect_counts(workload, job, result, warm: Dict[str, int], meta: Dict) -> Dict[str, float]:
    """Raw counters of one finished pass (see the module docstring)."""
    from repro.compile import kernels_reused_total, plans_compiled_total
    from repro.engine.base import EngineCounters

    engine = job.engine
    metrics = result.metrics
    totals = adaptation_totals(engine)
    counters = EngineCounters()
    migrations = 0
    engine_events = 0
    for adaptive in adaptive_engines(engine):
        merged = adaptive.migration_manager.total_counters()
        counters = counters.merge(merged)
        migrations += adaptive.migration_manager.switches_performed
        engine_events += merged.events_processed
    manager = getattr(engine, "share_manager", None)
    report = manager.sharing_report() if manager is not None else []
    if manager is not None:
        for group in manager.groups():
            counters = counters.merge(group.engine.counters)
    shared_patterns = {name for row in report for name in row["members"]}
    patterns = workload.patterns()

    window = max(pattern.window for pattern in patterns)
    statistics_window = getattr(workload, "STATISTICS_WINDOW", 5.0 * window)
    count = int(meta["events"])
    warmup_time = float(meta["warmup_time"])
    plans_compiled = plans_compiled_total()

    lanes = list(metrics.workers.values())
    lane_events = [lane.events_processed for lane in lanes]
    dedup = getattr(job.pipeline.backend, "deduplicator", None)
    return {
        "decisions": totals["decisions"],
        "requested": totals["requested"],
        "replaced": totals["replaced"],
        "generated": totals["generated"],
        "requested_at_warmup": warm.get("requested"),
        "stationary_replans": _stationary_replans(
            engine, warmup_time, workload.shift_times(count), statistics_window + window
        ),
        "partial_matches_created": counters.partial_matches_created,
        "extension_attempts": counters.extension_attempts,
        "candidates_pruned": counters.candidates_pruned,
        "partial_matches_high_water": metrics.partial_matches_high_water,
        "migrations": migrations,
        "engine_events": engine_events,
        "plans_compiled": plans_compiled,
        "kernels_specialized_share": _specialized_share(engine),
        "sharing_groups": len(report),
        "patterns_shared_share": len(shared_patterns) / len(patterns),
        "prefix_hits": manager.prefix_hits_total() if manager is not None else 0,
        "kernels_reused": kernels_reused_total(),
        "shard_skew": (
            max(lane_events) / (sum(lane_events) / len(lane_events)) if sum(lane_events) else 0.0
        ),
        "dedup_suppressed": dedup.duplicates_dropped if dedup is not None else 0,
        "queue_high_water_max": max((lane.queue_high_water for lane in lanes), default=0),
        "batch_ms_mean": (
            sum(lane.processing.total_seconds for lane in lanes)
            / max(1, sum(lane.processing.observations for lane in lanes))
            * 1e3
        ),
        "ordering_depth_high_water": metrics.reorder_depth_high_water,
        "late_events": metrics.late_events,
        "events_shed": metrics.events_shed,
        "queue_depth_high_water": metrics.queue_high_water,
        "checkpoints": metrics.checkpoints_written,
        "checkpoint_bytes_mean": metrics.checkpoint_bytes_mean,
        "checkpoint_pause_ms_mean": metrics.checkpoint.mean_seconds * 1e3,
        "checkpoint_pause_ms_max": metrics.checkpoint.max_seconds * 1e3,
        "sink_bytes_written": (
            os.path.getsize(job.match_path) if job.match_path is not None else 0
        ),
        "plan_history": len(result.plan_history),
    }


def time_restore(job) -> float:
    """Milliseconds to load the latest checkpoint chain and rebuild the engine."""
    from repro.engine.state import restore_engine

    started = time.perf_counter()
    checkpoint = job.store.latest()
    restore_engine(checkpoint.engine_blob)
    return (time.perf_counter() - started) * 1e3


def _self(self_times: Dict[str, List[float]], *names: str) -> Tuple[int, float]:
    calls = 0
    seconds = 0.0
    for name in names:
        entry = self_times.get(name)
        if entry is not None:
            calls += int(entry[0])
            seconds += float(entry[1])
    return calls, seconds


def layer_shares(self_times: Dict[str, List[float]]) -> Dict[str, float]:
    """Share of the traced pass's wall time spent in each layer itself."""
    by_layer: Dict[str, float] = {}
    for name, (_calls, seconds) in self_times.items():
        layer = name.rsplit(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    total = sum(by_layer.values())
    return {layer: seconds / total for layer, seconds in sorted(by_layer.items())} if total else {}


def per_layer_metrics(plain: Dict, traced: Dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from an untraced and a traced pass."""
    counts = plain["counts"]
    spans = traced["self_times"]
    events = plain["events"]
    traced_events = traced["events"]
    matches = max(1, traced["matches"])

    def per(seconds: float, denominator: float, scale: float) -> float:
        return seconds / denominator * scale if denominator else 0.0

    _, observe_s = _self(spans, "statistics.observe")
    snapshot_calls, snapshot_s = _self(spans, "statistics.snapshot")
    decide_calls, decide_s = _self(spans, "adaptive.decide")
    _, update_s = _self(spans, "adaptive.update")
    generate_calls, generate_s = _self(spans, "optimizer.generate")
    _, evaluate_s = _self(spans, "engine.evaluate", "engine.evaluate_shared")
    process_calls, process_s = _self(spans, "engine.process")
    shared_calls, _ = _self(spans, "engine.evaluate_shared")
    switch_calls, switch_s = _self(spans, "engine.switch")
    # With a share manager every build enters through it (and may fall
    # through to ``engine_for_plan``, nested): count those builds once.
    direct_builds, direct_build_s = _self(spans, "compile.build")
    shared_builds, shared_build_s = _self(spans, "multi.build")
    build_calls = shared_builds or direct_builds
    build_s = direct_build_s + shared_build_s
    _, dispatch_s = _self(spans, "multi.dispatch")
    _, route_s = _self(spans, "parallel.route")
    _, merge_s = _self(spans, "parallel.merge")
    _, pull_s = _self(spans, "streaming.sources.pull")
    _, push_s = _self(spans, "streaming.ordering.push", "streaming.ordering.flush")
    _, loop_s = _self(spans, "streaming.pipeline.run")
    _, emit_s = _self(spans, "streaming.sinks.emit")
    full_saves, _ = _self(spans, "streaming.checkpoint.save_full")
    delta_saves, _ = _self(spans, "streaming.checkpoint.save_delta")
    engine_busy = sum(
        seconds
        for name, (_calls, seconds) in spans.items()
        if name.split(".", 1)[0]
        in ("engine", "statistics", "adaptive", "optimizer", "compile", "multi", "parallel")
    )
    requested = counts["requested"]
    pruned = counts["candidates_pruned"]
    attempts = counts["extension_attempts"]
    worker_cpu = plain.get("worker_cpu_s") or []
    cpu_total = plain["cpu_self_s"] + sum(worker_cpu)
    plain_cpu = (plain["cpu_self_s"] + plain["cpu_children_s"]) / events
    traced_cpu = (traced["cpu_self_s"] + traced["cpu_children_s"]) / traced_events
    is_multi = dispatch_s > 0.0
    values = {
        "statistics.observe_us_per_event": per(observe_s, traced_events, 1e6),
        "statistics.snapshot_calls": snapshot_calls,
        "statistics.snapshot_ms_total": snapshot_s * 1e3,
        "adaptive.decisions": counts["decisions"],
        "adaptive.reopt_requested": requested,
        "adaptive.plans_replaced": counts["replaced"],
        "adaptive.false_positive_share": (
            (requested - counts["replaced"]) / requested if requested else 0.0
        ),
        "adaptive.stationary_replans": counts["stationary_replans"],
        "adaptive.decide_us_per_decision": per(decide_s, decide_calls, 1e6),
        "adaptive.overhead_share": per(decide_s + update_s + generate_s, engine_busy, 1.0),
        "optimizer.generate_calls": counts["generated"],
        "optimizer.generate_ms_per_call": per(generate_s, generate_calls, 1e3),
        "engine.partial_matches_created_per_event": counts["partial_matches_created"] / events,
        "engine.extension_attempts_per_event": attempts / events,
        "engine.partial_matches_high_water": max(
            counts["partial_matches_high_water"], traced.get("population_high_water", 0)
        ),
        "engine.evaluate_us_per_event": per(evaluate_s, traced_events, 1e6),
        "engine.migrations": counts["migrations"],
        "engine.migration_overlap_events": (
            traced["counts"]["engine_events"] - process_calls if process_calls else 0
        ),
        "engine.switch_ms_per_call": per(switch_s, switch_calls, 1e3),
        "compile.kernels_specialized_share": counts["kernels_specialized_share"],
        "compile.plans_compiled": counts["plans_compiled"],
        "compile.build_ms_per_plan": per(build_s, build_calls, 1e3),
        "compile.index_pruned_share": pruned / (pruned + attempts) if pruned + attempts else 0.0,
        "multi.sharing_groups": counts["sharing_groups"],
        "multi.patterns_shared_share": counts["patterns_shared_share"],
        "multi.prefix_hits": counts["prefix_hits"],
        "multi.kernels_reused": counts["kernels_reused"],
        "multi.dispatch_fanout_mean": (
            (process_calls + shared_calls) / traced_events if is_multi else 0.0
        ),
        "multi.dispatch_us_per_event": per(dispatch_s, traced_events, 1e6),
        "parallel.shard_skew": counts["shard_skew"],
        "parallel.route_us_per_event": per(route_s, traced_events, 1e6),
        "parallel.dedup_suppressed": counts["dedup_suppressed"],
        "parallel.merge_us_per_match": per(merge_s, matches, 1e6) if merge_s else 0.0,
        "streaming.workers.straggler_busy_share": (
            max(worker_cpu) / sum(worker_cpu) if sum(worker_cpu) else 0.0
        ),
        "streaming.workers.coordinator_cpu_share": (
            plain["cpu_self_s"] / cpu_total if worker_cpu and cpu_total else 0.0
        ),
        "streaming.workers.queue_high_water_max": counts["queue_high_water_max"],
        "streaming.workers.batch_ms_mean": counts["batch_ms_mean"],
        "streaming.sources.parse_us_per_event": per(pull_s, traced_events, 1e6),
        "streaming.ordering.push_us_per_event": per(push_s, traced_events, 1e6),
        "streaming.ordering.depth_high_water": counts["ordering_depth_high_water"],
        "streaming.ordering.late_events": counts["late_events"],
        "streaming.pipeline.loop_us_per_event": per(loop_s, traced_events, 1e6),
        "streaming.pipeline.queue_depth_high_water": counts["queue_depth_high_water"],
        "streaming.pipeline.detect_latency_p95_ms": (plain["latency_p95_s"] or 0.0) * 1e3,
        "streaming.checkpoint.count": counts["checkpoints"],
        "streaming.checkpoint.bytes_mean": counts["checkpoint_bytes_mean"],
        "streaming.checkpoint.delta_share": (
            delta_saves / (delta_saves + full_saves) if delta_saves + full_saves else 0.0
        ),
        "streaming.checkpoint.pause_ms_mean": counts["checkpoint_pause_ms_mean"],
        "streaming.checkpoint.pause_ms_max": counts["checkpoint_pause_ms_max"],
        "streaming.checkpoint.restore_ms": counts.get("restore_ms", 0.0),
        "streaming.sinks.emit_us_per_match": per(emit_s, matches, 1e6),
        "streaming.sinks.bytes_written": counts["sink_bytes_written"],
        "trace.overhead_share": traced_cpu / plain_cpu - 1.0 if plain_cpu else 0.0,
    }
    missing = [name for name, *_ in PER_LAYER if name not in values]
    if missing or len(values) != len(PER_LAYER):
        raise KeyError(f"per-layer metrics out of step with PER_LAYER: {missing}")
    return {name: float(values[name]) for name, *_ in PER_LAYER}
