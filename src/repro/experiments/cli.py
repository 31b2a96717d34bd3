"""Command-line entry point for the experiment drivers.

Lets a user regenerate any of the paper's experiments without writing
Python::

    python -m repro.experiments.cli compare --dataset traffic --algorithm greedy
    python -m repro.experiments.cli sweep   --dataset stocks  --algorithm zstream
    python -m repro.experiments.cli table1
    python -m repro.experiments.cli ablation-k --dataset traffic

and run the engine as a continuously-ingesting service::

    python -m repro.experiments.cli serve --dataset stocks --rate 5000 \
        --sink matches.jsonl --checkpoint-dir ckpt --checkpoint-every 10000
    python -m repro.experiments.cli serve --backend process --shards 4 \
        --partition-by entity_id --dataset stocks
    python -m repro.experiments.cli serve --control-port 8080 \
        --decision-log decisions.jsonl --checkpoint-dir ckpt
    python -m repro.experiments.cli serve --listen-port 9000 \
        --webhook-url http://127.0.0.1:9100 --checkpoint-dir ckpt
    python -m repro.experiments.cli serve --compile-mode indexed --rate 5000 \
        --shuffle-slack 2 --max-lateness 2 --late-policy drop

The experiment sub-commands print the same plain-text tables the
``benchmarks/`` suite reports and optionally write them as CSV.  None of
them is a performance benchmark: throughput, latency, memory and the
per-layer numbers are measured by ``bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from repro.compile import COMPILE_MODES
from repro.errors import StreamingError
from repro.experiments.ablations import k_invariant_ablation, selection_strategy_ablation
from repro.experiments.config import ExperimentConfig, PolicySpec
from repro.experiments.distance_estimation import distance_estimation_table
from repro.experiments.distance_sweep import DEFAULT_DISTANCES, distance_sweep, find_optimal_distance
from repro.experiments.method_comparison import DEFAULT_METHODS, RECOMMENDED_DISTANCE, compare_methods
from repro.experiments.reporting import format_table, pivot, rows_to_csv
from repro.experiments.runner import (
    build_dataset,
    build_streaming_engine,
    build_workload,
)
from repro.metrics import NetworkMetrics
from repro.obs import ControlPlane, DecisionLog, MetricsRegistry
from repro.streaming import (
    CheckpointStore,
    CSVFileSource,
    HTTPEventIngress,
    JSONLFileSource,
    JSONLMatchWriter,
    MetricsSink,
    NetworkEventSource,
    ReorderBuffer,
    ReplaySource,
    StreamingPipeline,
    WebhookMatchSink,
    bounded_shuffle,
)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("traffic", "stocks"), default="traffic")
    parser.add_argument("--algorithm", choices=("greedy", "zstream"), default="greedy")
    parser.add_argument("--duration", type=float, default=200.0, help="stream duration")
    parser.add_argument("--max-events", type=int, default=12000, help="stream length cap")
    parser.add_argument(
        "--sizes", type=str, default="3,4,5,6", help="comma-separated pattern sizes"
    )
    parser.add_argument(
        "--monitoring-interval", type=float, default=1.0, help="time between decisions"
    )
    parser.add_argument("--csv", type=str, default=None, help="also write rows to a CSV file")
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of parallel engine replicas (1 = plain sequential engine; "
        "with serve --backend process, one worker process per replica)",
    )
    parser.add_argument(
        "--partition-by",
        type=str,
        default=None,
        help="event attribute for key partitioning (default: broadcast to all shards)",
    )
    parser.add_argument(
        "--compile-mode",
        choices=COMPILE_MODES,
        default="interpreted",
        help="condition evaluation strategy: interpret the condition tree, "
        "compile it into specialized kernels at plan-build time, or "
        "additionally index equality joins to prune candidates before "
        "evaluation (matches are identical in all three modes)",
    )


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    sizes = tuple(int(part) for part in args.sizes.split(",") if part)
    return ExperimentConfig(
        dataset=args.dataset,
        algorithm=args.algorithm,
        duration=args.duration,
        max_events=args.max_events,
        sizes=sizes,
        monitoring_interval=args.monitoring_interval,
        shards=args.shards,
        partition_by=args.partition_by,
        backend=getattr(args, "backend", "inline"),
        compile_mode=getattr(args, "compile_mode", "interpreted"),
    )


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    """Streaming execution-backend options (serve)."""
    parser.add_argument(
        "--backend",
        choices=("inline", "process"),
        default="inline",
        help="where detection runs: in the pipeline thread (inline), or in "
        "one worker process per --shards replica fed by bounded queues",
    )


def _add_checkpoint_mode_options(parser: argparse.ArgumentParser) -> None:
    """Checkpoint-strategy options (serve)."""
    parser.add_argument(
        "--checkpoint-mode",
        choices=("full", "delta"),
        default="full",
        help="'full' pickles the whole engine state at every checkpoint; "
        "'delta' writes a full base every few checkpoints and append-only "
        "incremental deltas (changed state only) in between",
    )


def _add_ordering_options(parser: argparse.ArgumentParser) -> None:
    """Event-time ordering options (serve)."""
    parser.add_argument(
        "--max-lateness",
        type=float,
        default=None,
        help="tolerate out-of-order events up to this many stream-time units: "
        "arrivals are reordered by event time before detection (default: "
        "require a timestamp-ordered source)",
    )
    parser.add_argument(
        "--late-policy",
        choices=("drop", "raise"),
        default="drop",
        help="what to do with events behind the watermark (beyond "
        "--max-lateness): count-and-drop them, or fail the run "
        "(the side-output policy is available through the API)",
    )
    parser.add_argument(
        "--shuffle-slack",
        type=float,
        default=0.0,
        help="inject seeded bounded disorder (each event displaced by up to "
        "this many stream-time units) into the synthetic replay — the "
        "out-of-order smoke mode; pair with --max-lateness >= the slack",
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    """Observability options (serve)."""
    parser.add_argument(
        "--control-port",
        type=int,
        default=None,
        help="start the HTTP control plane on this port: /health, /ready, "
        "/metrics (Prometheus; ?format=json), /decisions, /engine (plan, "
        "populations, cost-model drift) and POST /checkpoint (0 = an "
        "ephemeral port, printed at startup)",
    )
    parser.add_argument(
        "--control-host",
        type=str,
        default="127.0.0.1",
        help="bind address for --control-port",
    )
    parser.add_argument(
        "--decision-log",
        type=str,
        default=None,
        help="append a JSONL audit trail of runtime decisions (late events, "
        "checkpoint cuts, re-plans, delivery retries) to this "
        "file; an existing file is continued, not truncated",
    )


def _add_network_options(parser: argparse.ArgumentParser) -> None:
    """Network data-plane options (serve)."""
    parser.add_argument(
        "--listen-port",
        type=int,
        default=None,
        help="ingest events over HTTP: POST /events (JSON records; 429 "
        "signals backpressure), POST /end, GET /stats on this port "
        "(0 = ephemeral, printed at startup); overrides --source",
    )
    parser.add_argument(
        "--listen-host",
        type=str,
        default="127.0.0.1",
        help="bind address for --listen-port",
    )
    parser.add_argument(
        "--listen-idle-timeout",
        type=float,
        default=None,
        help="stop the network source after this many seconds with no "
        "arrivals (default: wait for POST /end or Ctrl-C)",
    )
    parser.add_argument(
        "--webhook-url",
        type=str,
        default=None,
        help="deliver each match by HTTP POST to this URL, acked against "
        "the checkpoint barrier (Idempotency-Key header; retries with "
        "capped backoff)",
    )
    parser.add_argument(
        "--dead-letter",
        type=str,
        default=None,
        help="spill matches that exhaust their delivery retries to this "
        "JSONL file instead of stopping the pipeline",
    )


def _validate_ordering_args(args: argparse.Namespace) -> None:
    """Refuse disorder injection without an ordering stage to absorb it.

    ``--shuffle-slack`` deliberately disorders the replay; without
    ``--max-lateness`` the pipeline has no reorder buffer and the engines'
    sorted-input contract is silently violated (corrupted dedup eviction,
    statistics clamping or a mid-run StatisticsError).  Slack *larger*
    than the lateness bound is allowed — that is the late-policy stress
    mode.
    """
    if args.shuffle_slack > 0 and args.max_lateness is None:
        raise StreamingError(
            "--shuffle-slack injects out-of-order events and requires "
            "--max-lateness (>= the slack for lossless reordering; smaller "
            "values exercise the late policy)"
        )


def _maybe_write_csv(rows, path: Optional[str]) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {path}")


def _run_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = compare_methods(config, DEFAULT_METHODS(config.dataset, config.algorithm))
    for description, column in (
        ("throughput [events/s]", "throughput"),
        ("relative gain over static", "relative_gain"),
        ("plan reoptimizations", "reoptimizations"),
        ("adaptation overhead fraction", "overhead"),
    ):
        print(
            format_table(
                pivot(result.rows, index="size", column="method", value=column),
                title=f"{config.dataset}/{config.algorithm}: {description}",
            )
        )
    _maybe_write_csv(result.rows, args.csv)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    distances = tuple(float(part) for part in args.distances.split(",") if part)
    rows = distance_sweep(config, distances)
    print(
        format_table(
            pivot(rows, index="size", column="distance", value="throughput"),
            title=f"{config.dataset}/{config.algorithm}: throughput per invariant distance d",
        )
    )
    dopt, throughput = find_optimal_distance(rows)
    print(f"scanned dopt = {dopt:g} (mean throughput {throughput:,.0f} events/s)")
    _maybe_write_csv(rows, args.csv)
    return 0


def _run_table1(args: argparse.Namespace) -> int:
    rows = []
    for dataset in ("traffic", "stocks"):
        for algorithm in ("greedy", "zstream"):
            config = ExperimentConfig(
                dataset=dataset,
                algorithm=algorithm,
                duration=args.duration,
                max_events=args.max_events,
                sizes=(4, 5, 6, 7, 8),
            )
            dopt = RECOMMENDED_DISTANCE[(dataset, algorithm)]
            rows.extend(distance_estimation_table(config, dopt=dopt))
    print(
        format_table(
            rows,
            ["dataset", "algorithm", "size", "davg", "dopt", "accuracy"],
            title="Table 1 — quality of distance estimates",
        )
    )
    _maybe_write_csv(rows, args.csv)
    return 0


def _serve_pattern(args: argparse.Namespace, config: ExperimentConfig, workload):
    """The pattern (or shared PatternSet, with --patterns > 1) the service detects."""
    size = int(args.size)
    if config.shards > 1 and args.partition_by:
        return workload.keyed_sequence_pattern(size, key=args.partition_by)
    patterns = int(getattr(args, "patterns", 1) or 1)
    if patterns > 1:
        from repro.multi import PatternSet

        return PatternSet(workload.similar_sequence_patterns(patterns, size=size))
    return workload.sequence_pattern(size)


def _serve_source(args: argparse.Namespace, config: ExperimentConfig, dataset, workload):
    """Source factory: ``synthetic`` replay or a JSONL/CSV file (tailable).

    The synthetic stream is only generated (and materialised) when it is
    actually served; file sources read the file lazily.
    """
    rate = args.rate if args.rate > 0 else None
    if args.source == "synthetic":
        if config.shards > 1 and args.partition_by:
            stream = workload.keyed_stream(
                args.duration,
                entities=args.entities,
                key=args.partition_by,
                max_events=args.max_events,
            )
        else:
            stream = dataset.generate(args.duration, max_events=args.max_events)
        if args.shuffle_slack > 0:
            return ReplaySource(
                bounded_shuffle(
                    stream.to_list(), args.shuffle_slack, seed=config.stream_seed
                ),
                rate=rate,
            )
        return ReplaySource(stream, rate=rate)
    types = {t.name: t for t in dataset.event_types}
    source_cls = CSVFileSource if args.source.endswith(".csv") else JSONLFileSource
    return source_cls(
        args.source,
        types,
        follow=args.follow,
        idle_timeout=args.idle_timeout,
        rate=rate,
    )


def _run_serve(args: argparse.Namespace) -> int:
    _validate_ordering_args(args)
    config = _config_from_args(args)
    dataset = build_dataset(config)
    workload = build_workload(config, dataset)
    pattern = _serve_pattern(args, config, workload)
    spec = PolicySpec("invariant", distance=0.1, label="invariant")
    engine = build_streaming_engine(config, pattern, spec)

    # Network data plane: a push-buffer source behind the HTTP ingress
    # (replacing --source) and/or the acked webhook sink, sharing one
    # NetworkMetrics object (registered with the control plane below).
    use_network_source = args.listen_port is not None
    net_metrics = NetworkMetrics() if use_network_source or args.webhook_url else None
    if use_network_source:
        types = {t.name: t for t in dataset.event_types}
        source = NetworkEventSource(
            types, idle_timeout=args.listen_idle_timeout, metrics=net_metrics
        )
    else:
        source = _serve_source(args, config, dataset, workload)

    metrics_sink = MetricsSink()
    sinks = [metrics_sink]
    if args.sink:
        sinks.append(JSONLMatchWriter(args.sink))
    if args.webhook_url:
        sinks.append(
            WebhookMatchSink(
                args.webhook_url,
                dead_letter_path=args.dead_letter,
                metrics=net_metrics,
            )
        )
    store = CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None

    # Observability: a decision log when asked for (file-backed via
    # --decision-log, in-memory-only when just the control plane wants to
    # answer /decisions) and the HTTP control plane behind --control-port.
    decision_log = None
    if args.decision_log or args.control_port is not None:
        decision_log = DecisionLog(args.decision_log)

    pipeline = StreamingPipeline(
        engine,
        source,
        sinks=sinks,
        checkpoint_store=store,
        checkpoint_every=args.checkpoint_every if store else 0,
        checkpoint_mode=args.checkpoint_mode,
        ordering=(
            None
            if args.max_lateness is None
            else ReorderBuffer(args.max_lateness, late_policy=args.late_policy)
        ),
        decision_log=decision_log,
    )

    control = None
    if args.control_port is not None:
        registry = MetricsRegistry()
        registry.register_pipeline(pipeline.metrics)
        registry.register_engine_introspection(pipeline.engine_introspection)
        if net_metrics is not None:
            registry.register_network(net_metrics)
        control = ControlPlane(
            pipeline=pipeline,
            registry=registry,
            decision_log=decision_log,
            network=net_metrics,
            host=args.control_host,
            port=args.control_port,
        )
        control.start()
        print(f"control plane listening on {control.url}")

    # The ingress accepts pushes the moment it is up; events that land
    # before the pipeline finishes a checkpoint restore are handled by the
    # source's sequence-number dedup, so starting early is safe.
    ingress = None
    if use_network_source:
        ingress = HTTPEventIngress(
            source, host=args.listen_host, port=args.listen_port
        ).start()
        print(f"HTTP event ingress listening on {ingress.url}/events")

    # Graceful shutdown on Ctrl-C: finish the in-flight event, write a final
    # checkpoint, flush the sinks.  A second Ctrl-C falls through to the
    # default handler (hard exit).
    def _handle_interrupt(signum, frame):
        print("\nshutting down gracefully (Ctrl-C again to force)...")
        pipeline.stop()
        signal.signal(signal.SIGINT, previous_handler)

    previous_handler = signal.signal(signal.SIGINT, _handle_interrupt)
    try:
        result = pipeline.run(max_events=args.serve_events)
    finally:
        signal.signal(signal.SIGINT, previous_handler)
        if ingress is not None:
            ingress.stop()
        if control is not None:
            control.stop()

    print(
        f"pipeline stopped ({result.stop_reason}): "
        f"{result.events_processed} events, {result.matches_emitted} matches, "
        f"{result.throughput:,.0f} ev/s [{config.backend} backend]"
        + (f", resumed from event {result.resumed_from}" if result.resumed_from else "")
    )
    print(format_table([result.metrics.as_row()], title="pipeline metrics"))
    if net_metrics is not None:
        print(
            format_table([net_metrics.snapshot()], title="network data plane")
        )
    if result.metrics.workers:
        print(
            format_table(
                [
                    {
                        "worker": lane.shard_id,
                        "events": lane.events_processed,
                        "batches": lane.batches_consumed,
                        "queue_hw": lane.queue_high_water,
                        "batch_ms_mean": lane.processing.mean_seconds * 1e3,
                    }
                    for _, lane in sorted(result.metrics.workers.items())
                ],
                ["worker", "events", "batches", "queue_hw", "batch_ms_mean"],
                title="worker lanes",
            )
        )
    if metrics_sink.per_pattern:
        print(
            format_table(
                [
                    {"pattern": name, "matches": count}
                    for name, count in sorted(metrics_sink.per_pattern.items())
                ],
                ["pattern", "matches"],
                title="matches per pattern",
            )
        )
    if args.sink:
        print(f"matches written to {args.sink}")
    if store is not None:
        stats = store.stats()
        reasons = stats.get("reasons", {})
        reason_note = (
            " [" + ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items())) + "]"
            if reasons
            else ""
        )
        print(
            f"checkpoints in {store.directory} "
            f"({stats['checkpoints']} full + {stats['deltas']} delta kept)"
            + reason_note
        )
    if decision_log is not None:
        counts = decision_log.counts_by_type()
        summary = (
            ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
            if counts
            else "none"
        )
        destination = args.decision_log if args.decision_log else "in-memory"
        print(f"decisions recorded ({destination}): {summary}")
        decision_log.close()
    return 0


def _run_ablation_k(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = k_invariant_ablation(config, k_values=(1, 2, 4, 0))
    print(
        format_table(
            rows,
            ["k", "num_invariants", "throughput", "reoptimizations", "overhead"],
            title=f"K-invariant ablation — {config.dataset}/{config.algorithm}",
        )
    )
    _maybe_write_csv(rows, args.csv)
    return 0


def _run_ablation_strategy(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = selection_strategy_ablation(config)
    print(
        format_table(
            rows,
            ["strategy", "throughput", "reoptimizations", "overhead"],
            title=f"Selection-strategy ablation — {config.dataset}/{config.algorithm}",
        )
    )
    _maybe_write_csv(rows, args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's experiments from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", help="Figures 6-9 style method comparison")
    _add_common_options(compare)
    compare.set_defaults(handler=_run_compare)

    sweep = subparsers.add_parser("sweep", help="Figure 5 style distance sweep")
    _add_common_options(sweep)
    sweep.add_argument(
        "--distances",
        type=str,
        default=",".join(str(d) for d in DEFAULT_DISTANCES),
        help="comma-separated candidate distances",
    )
    sweep.set_defaults(handler=_run_sweep)

    table1 = subparsers.add_parser("table1", help="Table 1 distance-estimate quality")
    table1.add_argument("--duration", type=float, default=200.0)
    table1.add_argument("--max-events", type=int, default=12000)
    table1.add_argument("--csv", type=str, default=None)
    table1.set_defaults(handler=_run_table1)

    serve = subparsers.add_parser(
        "serve", help="run the engine as a continuously-ingesting service"
    )
    _add_common_options(serve)
    _add_backend_options(serve)
    _add_ordering_options(serve)
    _add_checkpoint_mode_options(serve)
    serve.add_argument(
        "--size", type=int, default=3, help="pattern size for the served pattern"
    )
    serve.add_argument(
        "--patterns",
        type=int,
        default=1,
        help="serve this many similar patterns as one shared PatternSet "
        "through the one-pass multi-pattern engine (1 = single pattern)",
    )
    serve.add_argument(
        "--source",
        type=str,
        default="synthetic",
        help="'synthetic' (rate-controlled replay of a generated stream) or "
        "a path to a .jsonl/.csv event file",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="offered arrival rate in events/second (0 = unthrottled)",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        help="tail a file source for newly appended events (like tail -f)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=2.0,
        help="stop a --follow tail after this many idle seconds",
    )
    serve.add_argument(
        "--sink", type=str, default=None, help="write matches to this JSONL file"
    )
    serve.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="enable fault tolerance: checkpoint directory (resumes if non-empty)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=10000,
        help="events between checkpoints (with --checkpoint-dir)",
    )
    serve.add_argument(
        "--entities",
        type=int,
        default=8,
        help="distinct partition-key values in the keyed synthetic stream",
    )
    serve.add_argument(
        "--serve-events",
        type=int,
        default=None,
        help="stop after processing this many events (default: run the source dry)",
    )
    _add_network_options(serve)
    _add_observability_options(serve)
    serve.set_defaults(handler=_run_serve)

    ablation_k = subparsers.add_parser("ablation-k", help="K-invariant ablation")
    _add_common_options(ablation_k)
    ablation_k.set_defaults(handler=_run_ablation_k)

    ablation_strategy = subparsers.add_parser(
        "ablation-strategy", help="invariant selection strategy ablation"
    )
    _add_common_options(ablation_strategy)
    ablation_strategy.set_defaults(handler=_run_ablation_strategy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
