"""One measured pass of one workload, in a process of its own.

``python3 bench/measure.py --workload W --inputs DIR --out FILE [--trace 1]``
builds the workload's serving job, replays the pre-generated input through
``StreamingPipeline.run()`` once, checks the matches and writes every raw
number of the pass to ``FILE`` as JSON.  The orchestrator (``bench/run.py``)
starts a fresh interpreter per pass, because heap and GC state carried over
from an earlier pass moved same-process repeats by more than 10 %.

Timeline of a pass::

    t0 ── import repro ── build job ── spawn workers ──┤ setup_s
    load inputs, gc.freeze()                            (not timed)
    pipeline.run()                                      ┤ wall, cpu, latency,
                                                          each per segment
    digest, reference check, counters                   (not timed)
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import multiprocessing
import os
import resource
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: How often (in events) the traced pass samples the partial-match population.
POPULATION_SAMPLE_EVERY = 256

#: A pass is cut into this many equal segments of the stream (each at least
#: one 256-event pipeline batch long on every workload); wall time, CPU time
#: and latency samples are kept per segment, so that passes over the same
#: input can be compared segment by segment (``bench/run.py``).
SEGMENTS = 100


class Feeder:
    """Hands events to the pipeline and stamps each hand-off time.

    The pipeline pulls the feeder as fast as it drains — one closed-loop
    client.  ``handoff[sequence_number]`` is the time the event left the
    feeder; detection latency is measured from it.  ``on_segment(index)``
    runs before the first event of each of the :data:`SEGMENTS` segments
    but the first (between two pulls, not per event).
    """

    def __init__(self, count: int):
        self.handoff = array("d", bytes(8 * count))
        self.source = None
        self._per_segment = -(-count // SEGMENTS)
        self.on_segment: Callable[[int], None] = lambda index: None
        self.recorder = None
        self.sample_population: Optional[Callable[[], None]] = None

    def __iter__(self):
        inner = iter(self.source)
        stamp = self._traced if self.recorder is not None else self._plain
        for segment in range(SEGMENTS):
            if segment:
                self.on_segment(segment)
            yield from stamp(itertools.islice(inner, self._per_segment))

    def _plain(self, events):
        handoff, clock = self.handoff, time.perf_counter
        for event in events:
            handoff[event.sequence_number] = clock()
            yield event

    def _traced(self, events):
        handoff, clock = self.handoff, time.perf_counter
        recorder = self.recorder
        pull = recorder.intern("streaming.sources.pull")
        pulled = 0
        while True:
            index = recorder.begin(pull)
            try:
                event = next(events, None)
            finally:
                recorder.finish(index)
            if event is None:
                return
            pulled += 1
            if pulled % POPULATION_SAMPLE_EVERY == 0:
                recorder.current_batch += 1
                if self.sample_population is not None:
                    self.sample_population()
            handoff[event.sequence_number] = clock()
            yield event


def make_stamp_sink(handoff):
    """A sink recording each match and its detection latency.

    Latency = emit time − hand-off time of the match's latest contributing
    event by ``(timestamp, sequence_number)``: it includes reorder-buffer,
    staging-buffer, worker-queue and merger wait and excludes the window.
    """
    from repro.streaming import MatchSink

    class StampSink(MatchSink):
        name = "stamp"

        def __init__(self) -> None:
            self.matches = []
            self.emitted = array("d")
            self.latencies = array("d")

        def emit(self, match) -> None:
            now = time.perf_counter()
            latest = None
            for event in match.events():
                if latest is None or event > latest:
                    latest = event
            self.emitted.append(now)
            self.latencies.append(now - handoff[latest.sequence_number])
            self.matches.append(match)

    return StampSink()


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _proc_cpu_and_peak(pid: int):
    """``(cpu seconds, peak RSS KiB)`` of a live process.

    The CPU time is read from the process's CPU-time clock (the id
    ``clock_getcpuclockid(pid)`` returns on Linux), which counts nanoseconds
    where ``/proc/<pid>/stat`` counts 10 ms ticks — longer than a segment.
    """
    cpu = time.clock_gettime((~pid << 3) | 2)
    peak = 0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                peak = int(line.split()[1])
    return cpu, peak


def _pin_workers(pids: List[int]) -> bool:
    """Pin each worker to a core of its own; the feeder floats."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < len(pids):
        return False
    for pid, core in zip(pids, cores):
        os.sched_setaffinity(pid, {core})
    return True


def match_lines(job, stamp) -> List[str]:
    """Sorted ``match_record`` lines: the file's for a file sink, else the
    stamping sink's matches rendered the same way."""
    from repro.streaming import match_record

    if job.match_path is not None:
        with open(job.match_path, "r", encoding="utf-8") as handle:
            return sorted(line.rstrip("\n") for line in handle)
    return sorted(json.dumps(match_record(match)) for match in stamp.matches)


def lines_within(lines: List[str], slices) -> List[str]:
    """The lines whose every event sorts inside one ``[first, last]`` slice."""
    kept = []
    slices = [(tuple(first), tuple(last)) for first, last in slices]
    for line in lines:
        record = json.loads(line)
        keys = [
            (entry["timestamp"], entry["sequence"])
            for value in record["bindings"].values()
            for entry in (value if isinstance(value, list) else [value])
        ]
        earliest, latest = min(keys), max(keys)
        if any(first <= earliest and latest <= last for first, last in slices):
            kept.append(line)
    return kept


def multiset_difference(left: List[str], right: List[str]) -> int:
    """Size of the symmetric difference of two line multisets."""
    a, b = Counter(left), Counter(right)
    return sum(((a - b) + (b - a)).values())


def segment_table(marks: List[tuple], stamp) -> Dict[str, list]:
    """Per stream segment: wall seconds, CPU seconds and the latencies of the
    matches emitted in it."""
    walls = [mark[0] for mark in marks]
    latencies: List[List[float]] = [[] for _ in range(len(marks) - 1)]
    for emitted, latency in zip(stamp.emitted, stamp.latencies):
        index = bisect.bisect_right(walls, emitted) - 1
        latencies[min(max(index, 0), len(latencies) - 1)].append(latency)
    return {
        "wall_s": [after[0] - before[0] for before, after in zip(marks, marks[1:])],
        "cpu_s": [after[1] - before[1] for before, after in zip(marks, marks[1:])],
        "latencies_s": latencies,
    }


def run_pass(
    workload_name: str,
    inputs_dir: str,
    workdir: str,
    traced: bool = False,
    trace_out: Optional[str] = None,
    in_process: bool = False,
) -> Dict:
    """Serve one pre-generated input once; every raw number of the pass.

    ``in_process=True`` is for the harness tests: the job runs inline even
    where the workload would spawn workers, and the interpreter's GC state
    is left alone.
    """
    started = time.perf_counter()
    from bench import layers, tracing, workloads
    from bench.inputs import load_events
    from bench.reference import digest_lines

    imported = time.perf_counter()
    workload = workloads.by_name(workload_name)
    with open(os.path.join(inputs_dir, "meta.json"), "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    count = int(meta["events"])

    recorder = None
    uninstall = lambda: None  # noqa: E731
    feeder = Feeder(count)
    stamp = make_stamp_sink(feeder.handoff)
    if traced:
        recorder = tracing.SpanRecorder()
        feeder.recorder = recorder
        targets = tracing.layer_targets() + [(type(stamp), "emit", "streaming.sinks.emit")]
        uninstall = tracing.install(recorder, targets)

    # ---- setup: everything before the first event ---------------------
    build_started = time.perf_counter()
    os.makedirs(workdir, exist_ok=True)
    build = workload.build_inline if traced or in_process else workload.build
    job = build(feeder, [stamp], workdir, count)
    backend = job.pipeline.backend
    children_before = _cpu_seconds(resource.RUSAGE_CHILDREN)
    backend.start()
    worker_pids = [child.pid for child in multiprocessing.active_children()]
    pinned = _pin_workers(worker_pids) if worker_pids else False
    setup_done = time.perf_counter()
    setup_s = (imported - started) + (setup_done - build_started)

    # ---- inputs (never on a timed path) -------------------------------
    if workload.disordered:
        feeder.source = workload.file_source(os.path.join(inputs_dir, "events.jsonl"))
    else:
        feeder.source = load_events(os.path.join(inputs_dir, "events.pkl"))
    if traced:
        population = [0]

        def sample_population() -> None:
            population[0] = max(population[0], job.engine.partial_match_count())

        feeder.sample_population = sample_population
    if not in_process:
        # The preloaded input is the harness's, not the program's: keep the
        # collector from re-scanning it during the measured pass.
        gc.collect()
        gc.freeze()

    # Worker CPU and memory are read while the workers live; the last
    # reading is taken just before the backend reaps them (all work is done
    # by then).
    worker_stats: Dict[int, tuple] = {}

    def read_workers() -> None:
        for pid in worker_pids:
            try:
                worker_stats[pid] = _proc_cpu_and_peak(pid)
            except OSError:
                pass

    close = backend.close

    def sampling_close() -> None:
        read_workers()
        close()

    backend.close = sampling_close

    # One mark per segment boundary: wall clock, CPU of this process and of
    # its workers so far.
    marks: List[tuple] = []
    warm: Dict[str, int] = {}

    def mark(segment: int) -> None:
        if segment == int(SEGMENTS * workloads.WARMUP_SHARE):
            warm.update(layers.adaptation_totals(job.engine))
        read_workers()
        workers = sum(cpu for cpu, _peak in worker_stats.values())
        marks.append((time.perf_counter(), time.process_time() + workers))

    feeder.on_segment = mark

    # ---- the measured pass -------------------------------------------
    load_before = os.getloadavg()[0]
    cpu_before = _cpu_seconds(resource.RUSAGE_SELF)
    mark(0)
    run_started = marks[0][0]
    try:
        result = job.pipeline.run(resume=False)
    finally:
        uninstall()
    mark(SEGMENTS)
    wall = marks[-1][0] - run_started
    cpu_self = _cpu_seconds(resource.RUSAGE_SELF) - cpu_before
    cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN) - children_before
    peak_self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    load_after = os.getloadavg()[0]

    # ---- checks and counters (not timed) ------------------------------
    metrics = result.metrics
    lines = match_lines(job, stamp)
    latencies = sorted(stamp.latencies)
    with open(os.path.join(inputs_dir, "reference.json"), "r", encoding="utf-8") as handle:
        reference = json.load(handle)["lines"]
    reference_difference = multiset_difference(
        lines_within(lines, meta["reference"]["slices"]), reference
    )
    dropped = int(metrics.events_shed + metrics.late_events) + (count - result.events_processed)

    worker_cpu = [cpu for cpu, _peak in worker_stats.values()]
    peak_kib = peak_self_kib + sum(peak for _cpu, peak in worker_stats.values())
    out: Dict[str, object] = {
        "workload": workload.name,
        "traced": traced,
        "events": count,
        "events_processed": result.events_processed,
        "matches": len(lines),
        "digest": digest_lines(lines),
        "dropped": dropped,
        "reference_difference": reference_difference,
        "setup_s": setup_s,
        "import_s": imported - started,
        "wall_s": wall,
        "cpu_self_s": cpu_self,
        "cpu_children_s": cpu_children,
        "worker_cpu_s": worker_cpu,
        "peak_rss_kib": peak_kib,
        "latency_samples": len(latencies),
        "latency_p50_s": tracing.supported_percentile(latencies, 50),
        "latency_p95_s": tracing.supported_percentile(latencies, 95),
        "segments": segment_table(marks, stamp),
        "workers_pinned": pinned,
        "load_before": load_before,
        "load_after": load_after,
        "counts": layers.collect_counts(workload, job, result, warm, meta),
    }
    if job.store is not None and not traced:
        out["counts"]["restore_ms"] = layers.time_restore(job)
    if traced:
        totals = tracing.self_times(recorder.spans())
        out["self_times"] = {name: list(value) for name, value in totals.items()}
        out["population_high_water"] = population[0]
        if trace_out:
            recorder.write(trace_out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="directory written by bench/generate.py")
    parser.add_argument("--workdir", required=True, help="scratch directory of this pass")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    out = run_pass(
        args.workload, args.inputs, args.workdir, bool(args.trace), args.trace_out
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
