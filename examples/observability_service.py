"""End-to-end walkthrough of the observability layer.

The script plays the operational story on a small synthetic workload:

1. record a stock-ticker stream to an event file (``events.jsonl``);
2. serve it through a :class:`StreamingPipeline` wired with a
   :class:`DecisionLog`, with the HTTP :class:`ControlPlane` attached on
   an ephemeral port (it reads the pipeline's metrics, decision log and
   engine frame from the pipeline itself);
3. poke the live endpoints from a separate thread while the pipeline is
   provably mid-run — its source holds the run loop at an event until the
   poke has begun: ``GET /health``, ``GET /ready``, ``GET /metrics``
   (Prometheus text) and ``POST /checkpoint`` (a manual cut, recorded with
   reason ``manual``, which the run loop performs once the source lets it
   go on);
4. **kill** the pipeline partway through (stop without a final checkpoint,
   exactly what ``kill -9`` leaves behind);
5. start a *fresh* pipeline on the same checkpoint directory and the same
   decision-log file and watch it resume;
6. verify exactly-once delivery AND decision-log continuity: the sequence
   numbers in ``decisions.jsonl`` are gap-free and monotone across the
   kill/resume boundary.

Run with::

    PYTHONPATH=src python examples/observability_service.py [MAX_EVENTS]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import urllib.request

from repro import (
    AdaptiveCEPEngine,
    GreedyOrderPlanner,
    InvariantBasedPolicy,
    StockDatasetSimulator,
)
from repro.obs import (
    ControlPlane,
    DecisionLog,
    read_decision_records,
    verify_continuity,
)
from repro.streaming import (
    CheckpointStore,
    JSONLFileSource,
    JSONLMatchWriter,
    MetricsSink,
    StreamingPipeline,
    write_events_jsonl,
)
from repro.streaming.pipeline import FILL_CHUNK
from repro.streaming.sinks import match_record
from repro.workloads import WorkloadGenerator

DURATION = 120.0
DEFAULT_MAX_EVENTS = 6000
#: Bound on each wait of the poke, so a failed request fails the run
#: instead of hanging it.
POKE_TIMEOUT_SECONDS = 30.0


def build_workload(max_events: int):
    dataset = StockDatasetSimulator(duration_hint=DURATION)
    workload = WorkloadGenerator(dataset, seed=1)
    pattern = workload.sequence_pattern(3)
    stream = dataset.generate(DURATION, seed=1, max_events=max_events)
    return dataset, pattern, stream


def fresh_engine(pattern):
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


class GatedSource(JSONLFileSource):
    """The event file, holding the run loop at event ``gate_at`` until
    ``release`` is set (``reached`` is set as it stops there)."""

    def __init__(self, path, types, gate_at: int):
        super().__init__(path, types)
        self.gate_at = gate_at
        self.reached = threading.Event()
        self.release = threading.Event()

    def _records(self):
        for index, event in enumerate(super()._records()):
            if index == self.gate_at:
                self.reached.set()
                self.release.wait()
            yield event


class NotifyingPipeline(StreamingPipeline):
    """A pipeline that also signals when a manual cut has been requested."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cut_requested = threading.Event()

    def request_checkpoint(self) -> threading.Event:
        done = super().request_checkpoint()
        self.cut_requested.set()
        return done


def build_pipeline(pattern, source, matches_path, store, log):
    return NotifyingPipeline(
        fresh_engine(pattern),
        source,
        sinks=[JSONLMatchWriter(matches_path), MetricsSink()],
        checkpoint_store=store,
        checkpoint_every=1000,
        decision_log=log,
    )


def http_get(url: str) -> tuple:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:  # 503 from /ready is expected
        return error.code, error.read().decode("utf-8")


def http_post(url: str) -> tuple:
    request = urllib.request.Request(url, data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=15) as response:
        return response.status, response.read().decode("utf-8")


def poke_endpoints(base: str, pipeline, source: GatedSource, report: dict) -> None:
    """Exercise the control plane while the pipeline is serving.

    The GETs are answered while the run loop waits at the gate.  The cut
    is the run loop's own work, so the gate opens once the POST has
    registered it: the loop then performs it at its next batch boundary,
    which comes before the run ends (the gate sits more than a fill chunk
    before the last event of the run).
    """
    source.reached.wait(POKE_TIMEOUT_SECONDS)
    report["health"] = http_get(f"{base}/health")
    report["ready"] = http_get(f"{base}/ready")
    report["metrics"] = http_get(f"{base}/metrics")
    poster = threading.Thread(
        target=lambda: report.__setitem__("checkpoint", http_post(f"{base}/checkpoint")),
        daemon=True,
    )
    poster.start()
    pipeline.cut_requested.wait(POKE_TIMEOUT_SECONDS)
    source.release.set()
    poster.join(POKE_TIMEOUT_SECONDS)
    report["decisions"] = http_get(f"{base}/decisions?limit=5")


def main() -> None:
    max_events = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_MAX_EVENTS
    dataset, pattern, stream = build_workload(max_events)
    event_types = {t.name: t for t in dataset.event_types}
    workdir = tempfile.mkdtemp(prefix="repro-obs-")
    events_path = os.path.join(workdir, "events.jsonl")
    matches_path = os.path.join(workdir, "matches.jsonl")
    decisions_path = os.path.join(workdir, "decisions.jsonl")
    store = CheckpointStore(os.path.join(workdir, "checkpoints"))

    # 1. Record the stream.
    recorded = write_events_jsonl(stream, events_path)
    print(f"recorded {recorded} events to {events_path}")

    # 2+3. Serve with the control plane attached; curl it mid-run; die
    # without a final checkpoint ("kill -9").
    log = DecisionLog(decisions_path)
    first_run = recorded // 2
    gate_at = first_run // 2
    if first_run - gate_at <= FILL_CHUNK:
        raise SystemExit(f"MAX_EVENTS too small: record more than {4 * FILL_CHUNK} events")
    source = GatedSource(events_path, event_types, gate_at)
    first = build_pipeline(pattern, source, matches_path, store, log)
    report: dict = {}
    with ControlPlane(first) as control:
        print(f"control plane listening on {control.url}")
        poker = threading.Thread(
            target=poke_endpoints, args=(control.url, first, source, report), daemon=True
        )
        poker.start()
        result = first.run(max_events=first_run, final_checkpoint=False)
        poker.join()
    log.close()

    status, body = report["health"]
    print(f"GET /health -> {status} {body.strip()}")
    status, body = report["ready"]
    print(f"GET /ready  -> {status} {body.strip()}")
    status, body = report["metrics"]
    prom_lines = [line for line in body.splitlines() if line.startswith("repro_")]
    print(f"GET /metrics -> {status} ({len(prom_lines)} repro_* samples)")
    status, body = report["checkpoint"]
    print(f"POST /checkpoint -> {status} {body.strip()}")
    status, body = report["decisions"]
    print(
        f"GET /decisions?limit=5 -> {status} "
        f"({len(json.loads(body)['records'])} records)"
    )
    assert report["health"][0] == 200
    assert any("repro_events_processed_total" in line for line in prom_lines)
    print(
        f"first pipeline processed {result.events_processed} events "
        f"({result.metrics.checkpoints_written} checkpoints), then died"
    )

    # 4+5. A fresh pipeline on the same store AND the same decision log
    # resumes; its decision sequence numbers continue where the first run
    # stopped (the log re-reads its own tail on open).
    resumed_log = DecisionLog(decisions_path)
    second = build_pipeline(
        pattern, JSONLFileSource(events_path, event_types), matches_path, store, resumed_log
    )
    result = second.run()
    resumed_log.close()
    print(
        f"second pipeline resumed from event {result.resumed_from}, "
        f"processed {result.events_processed} more "
        f"({result.matches_emitted} matches)"
    )

    # 6a. Exactly-once check against a batch run over the same file.
    batch = fresh_engine(pattern).run(JSONLFileSource(events_path, event_types))
    expected = [json.dumps(match_record(match)) for match in batch.matches]
    with open(matches_path, "r", encoding="utf-8") as handle:
        served = [line for line in handle.read().splitlines() if line]
    assert served == expected, (
        f"served matches diverge from batch: {len(served)} vs {len(expected)}"
    )
    print(f"exactly-once verified: {len(served)} matches in {matches_path}")

    # 6b. Decision-log continuity across the kill/resume boundary.
    records = read_decision_records(decisions_path)
    problems = verify_continuity(records)
    assert not problems, f"decision log not continuous: {problems}"
    kinds = {}
    for record in records:
        kinds[record.type] = kinds.get(record.type, 0) + 1
    manual = [r for r in records if r.detail.get("reason") == "manual"]
    assert manual, "expected at least one manual checkpoint_cut record"
    print(
        f"decision log continuous across kill/resume: {len(records)} records, "
        f"seq 1..{records[-1].seq}, by type "
        + ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
    )


if __name__ == "__main__":
    main()
