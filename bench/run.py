"""The repository benchmark: one workload, one seed, one invocation.

    python3 bench/run.py --workload serve_drift_seq --seed 13 --seconds 28 --trace 0

generates the workload's input from the seed (a separate process, never
timed), then runs measured passes — each a fresh ``bench/measure.py``
process over the same fixed-size input — back to back until the ``--seconds``
budget is used (at least three), verifies every pass against the reference,
and prints every end-to-end metric by name with its unit: throughput, CPU and
latency from the passes' quietest composite (of each segment of the stream,
the pass that served it fastest), memory and set-up as the median over the
passes.
``--trace 1`` instead runs one plain and one traced pass and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when the
run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Scratch root for generated inputs, checkpoints, sinks and traces; each
#: invocation works in a temp dir of its own below it and removes it.
WORK_ROOT = os.path.join(HERE, ".work")

#: The whole invocation must end well inside the driver's 180 s: a child
#: (generator or pass) still running this long after the start is killed.
DEADLINE_S = 165.0

DEFAULT_SEED = 13

#: A median needs at least this many passes, whatever ``--seconds`` says.
MIN_PASSES = 3

END_TO_END = (
    ("throughput_eps", "events/s"),
    ("cpu_us_per_event", "us"),
    ("detect_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def run_child(script: str, arguments: List[str], deadline: float) -> None:
    """Run one benchmark script to completion in a process group of its own."""
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *arguments],
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The pass may have spawned worker processes: whatever is left of
        # its group goes with it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RuntimeError(f"{script} {' '.join(arguments)} ended with code {code}")


def run_pass(workload: str, workdir: str, index: int, deadline: float,
             trace_out: Optional[str] = None, traced: bool = False) -> Dict:
    """One ``bench/measure.py`` process over ``workdir/inputs``; its raw numbers."""
    out = os.path.join(workdir, f"pass-{index}.json")
    scratch = os.path.join(workdir, f"pass-{index}")
    arguments = [
        "--workload", workload, "--inputs", os.path.join(workdir, "inputs"),
        "--workdir", scratch, "--out", out, "--trace", "1" if traced else "0",
    ]
    if traced and trace_out:
        arguments += ["--trace-out", trace_out]
    run_child("measure.py", arguments, deadline)
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    shutil.rmtree(scratch, ignore_errors=True)
    return result


def milliseconds(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


def quietest_composite(passes: List[Dict]) -> Dict:
    """One pass's worth of numbers put together from the passes' segments:
    of each segment of the stream, the pass that served it fastest.

    Every pass serves the same input, so segment *k* is the same work in
    each.  The machine's slow spells (a neighbour on the host: a few tenths
    of a second at 1.3-1.9x, several in every pass) fall on other segments
    in each pass, and they only ever add time; the fastest serving of a
    segment is the one that met the fewest.  Wall time, CPU time and latency
    samples of a segment all come from that one pass.
    """
    from bench.tracing import supported_percentile

    wall = cpu = 0.0
    latencies: List[float] = []
    for segment in range(len(passes[0]["segments"]["wall_s"])):
        quietest = min(passes, key=lambda result: result["segments"]["wall_s"][segment])
        wall += quietest["segments"]["wall_s"][segment]
        cpu += quietest["segments"]["cpu_s"][segment]
        latencies.extend(quietest["segments"]["latencies_s"][segment])
    latencies.sort()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "latency_samples": len(latencies),
        "latency_p50_s": supported_percentile(latencies, 50),
    }


def end_to_end_of(passes: List[Dict]) -> Dict[str, Optional[float]]:
    """The end-to-end metrics of an invocation: throughput, CPU and latency
    from the quietest composite of its passes; memory and set-up, which no
    slow spell stretches segment by segment, as the median over the passes."""
    events = passes[0]["events"]
    composite = quietest_composite(passes)
    return {
        "throughput_eps": events / composite["wall_s"],
        "cpu_us_per_event": composite["cpu_s"] / events * 1e6,
        "detect_latency_p50_ms": milliseconds(composite["latency_p50_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in passes) / 1024.0,
        "setup_s": statistics.median(r["setup_s"] for r in passes),
    }


#: Entries of a pass's ``counts`` that are gauges of timing or scheduling,
#: not event-determined counts, and may differ between passes of one seed.
TIMED_COUNTS = frozenset({
    "batch_ms_mean", "checkpoint_pause_ms_mean", "checkpoint_pause_ms_max",
    "queue_high_water_max", "queue_depth_high_water", "checkpoint_bytes_mean",
    "partial_matches_high_water", "restore_ms",
})


def exact_counts(result: Dict) -> Dict:
    """The event-determined counts of a pass: equal on every pass of a seed."""
    return {k: v for k, v in result["counts"].items() if k not in TIMED_COUNTS}


def verify(workload: str, seed: int, meta: Dict, passes: List[Dict]) -> Tuple[List[str], int]:
    """Everything wrong with the passes' outputs (empty when correct), and
    the failed operations: events shed, late-dropped or refused, plus the
    matches by which a pass differs from the reference."""
    from bench.reference import PINNED_SEEDS, load_expected

    problems: List[str] = []
    failed = 0
    expected = None
    if seed in PINNED_SEEDS:
        try:
            expected = load_expected(workload, seed, meta["events"], meta["input_digest"])
        except ValueError as error:
            problems.append(str(error))
    first = passes[0]
    for index, result in enumerate(passes):
        tag = f"pass {index}{' (traced)' if result['traced'] else ''}"
        failed += result["dropped"] + result["reference_difference"]
        if result["dropped"]:
            problems.append(f"{tag}: {result['dropped']} events shed, late or refused")
        if result["reference_difference"]:
            problems.append(
                f"{tag}: {result['reference_difference']} matches differ from the "
                "reference inside its slices"
            )
        # Whole stream: against the committed digest on a pinned seed, else
        # against the other passes (the traced sharded pass runs inline:
        # another job shape, same matches).
        whole = expected or {"matches": first["matches"], "sha256": first["digest"]}
        if result["digest"] != whole["sha256"] or result["matches"] != whole["matches"]:
            failed += abs(result["matches"] - whole["matches"]) or 1
            problems.append(
                f"{tag}: {result['matches']} matches / {result['digest'][:12]}, expected "
                f"{whole['matches']} / {whole['sha256'][:12]} "
                f"({'bench/expected' if expected else 'pass 0'})"
            )
        if not result["traced"] and not first["traced"]:
            drift = sorted(
                key for key, value in exact_counts(first).items()
                if exact_counts(result)[key] != value
            )
            if drift:
                problems.append(f"{tag}: per-layer counts differ from pass 0: {drift}")
        counts = result["counts"]
        if (
            workload == "stable_conj_tree"
            and counts["requested_at_warmup"] is not None
            and counts["requested"] > counts["requested_at_warmup"]
        ):
            problems.append(
                f"{tag}: reopt_requested grew from {counts['requested_at_warmup']} to "
                f"{counts['requested']} after warm-up on a stationary stream"
            )
    return problems, failed


def environment(seed: int) -> Dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting passes while they fit in this budget (at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="with --trace 1: write the traced pass's spans here (JSON)")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (fail here, before any work, when the program is absent)
    from bench import layers, workloads

    workload = workloads.by_name(args.workload)
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        inputs = os.path.join(workdir, "inputs")
        run_child("generate.py", [
            "--workload", workload.name, "--seed", str(args.seed),
            "--out", inputs,
        ], deadline)
        with open(os.path.join(inputs, "meta.json"), "r", encoding="utf-8") as handle:
            meta = json.load(handle)

        passes: List[Dict] = []
        started = time.monotonic()
        if args.trace:
            passes.append(run_pass(workload.name, workdir, 0, deadline))
            passes.append(
                run_pass(workload.name, workdir, 1, deadline, args.trace_out, traced=True)
            )
        else:
            while True:
                passes.append(run_pass(workload.name, workdir, len(passes), deadline))
                elapsed = time.monotonic() - started
                if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
                    break
        measured_s = time.monotonic() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems, failed = verify(workload.name, args.seed, meta, passes)
    correct = not problems and failed == 0

    if args.trace:
        plain, traced = passes
        values = layers.per_layer_metrics(plain, traced)
        units = {name: unit for name, unit, *_ in layers.PER_LAYER}
        layer_shares = layers.layer_shares(traced["self_times"])
        span_total = sum(seconds for _calls, seconds in traced["self_times"].values())
    else:
        values = end_to_end_of(passes)
        if values["detect_latency_p50_ms"] is None:
            problems.append("detect_latency_p50_ms: too few latency samples for the percentile")
            correct = False
            values["detect_latency_p50_ms"] = 0.0
        units = dict(END_TO_END)

    report = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(args.seed),
        "inputs": {
            "events": meta["events"],
            "input_digest": meta["input_digest"],
            "inputs_s": meta["inputs_s"],
            "reference": meta["reference"],
        },
        "load": "closed loop, one client (the pipeline pulls the feeder as fast as it drains)",
        "measured_s": measured_s,
        "passes": [
            {
                "traced": result["traced"],
                "wall_s": result["wall_s"],
                "matches": result["matches"],
                "detect_latency_samples": result["latency_samples"],
                "digest": result["digest"],
                "load_before": result["load_before"],
                "load_after": result["load_after"],
                # Other work was on the machine when the pass began: a noisy
                # result can then be told from a slow one.
                "unquiet": result["load_before"] > (os.cpu_count() or 1) / 2,
                "workers_pinned": result["workers_pinned"],
                "end_to_end": end_to_end_of([result]),
                "detect_latency_p95_ms": milliseconds(result["latency_p95_s"]),
            }
            for result in passes
        ],
        "problems": problems,
    }
    if args.trace:
        report["layer_self_time_shares"] = layer_shares
        report["span_self_time_total_s"] = span_total
        report["traced_wall_s"] = traced["wall_s"]
    report["claim"] = None

    for name, value in values.items():
        print(f"{name:48s} {value:16.6f} {units[name]}")
    print(json.dumps(report, indent=1))
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(sum(result["events"] for result in passes)),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
