"""End-to-end walkthrough of the network data plane.

The script plays the full operational story on a small synthetic
workload, entirely over loopback networking:

1. record a stock-ticker stream to an event file (``events.jsonl``);
2. run a **file-source reference**: the same stream served from disk into
   a local :class:`JSONLMatchWriter` — the ground truth the networked
   runs must reproduce byte-for-byte;
3. start a :class:`WebhookReceiver` that stores deliveries exactly once
   by ``Idempotency-Key`` — and *injects two 500s* before its first
   success, so the sink's retry/backoff path actually runs;
4. serve a :class:`StreamingPipeline` whose source is a
   :class:`NetworkEventSource` behind an :class:`HTTPEventIngress` and
   whose sink is a :class:`WebhookMatchSink`, push the recorded events
   over HTTP, and **kill** the pipeline mid-stream (stop without a final
   checkpoint — exactly what ``kill -9`` leaves behind);
5. start a *fresh* pipeline on the same checkpoint directory, re-push
   the **entire** file (the source's sequence floor discards what the
   checkpoint already covers), and let it run to the end — matches
   derived after the last checkpoint are re-sent under their original
   idempotency keys and the receiver absorbs them as duplicates;
6. verify the delivered file is **byte-identical** to the file-source
   reference, and show the decision log recorded the delivery retries.

Run with::

    PYTHONPATH=src python examples/network_service.py [MAX_EVENTS]
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro import (
    AdaptiveCEPEngine,
    GreedyOrderPlanner,
    InvariantBasedPolicy,
    StockDatasetSimulator,
)
from repro.obs import DecisionLog, read_decision_records
from repro.streaming import (
    CheckpointStore,
    HTTPEventIngress,
    JSONLFileSource,
    JSONLMatchWriter,
    NetworkEventSource,
    StreamingPipeline,
    WebhookMatchSink,
    WebhookReceiver,
    push_events_http,
    read_event_records,
    write_events_jsonl,
)
from repro.workloads import WorkloadGenerator

DURATION = 120.0
DEFAULT_MAX_EVENTS = 2000


def build_workload(max_events: int):
    dataset = StockDatasetSimulator(duration_hint=DURATION)
    workload = WorkloadGenerator(dataset, seed=7)
    pattern = workload.sequence_pattern(3)
    stream = dataset.generate(DURATION, seed=7, max_events=max_events)
    return dataset, pattern, stream


def fresh_engine(pattern):
    return AdaptiveCEPEngine(pattern, GreedyOrderPlanner(), InvariantBasedPolicy())


def sorted_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return sorted(line for line in handle.read().splitlines() if line)


def main() -> None:
    max_events = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_MAX_EVENTS
    dataset, pattern, stream = build_workload(max_events)
    types = {t.name: t for t in dataset.event_types}
    workdir = tempfile.mkdtemp(prefix="repro-net-")
    events_path = os.path.join(workdir, "events.jsonl")
    reference_path = os.path.join(workdir, "reference.jsonl")
    delivered_path = os.path.join(workdir, "delivered.jsonl")
    decisions_path = os.path.join(workdir, "decisions.jsonl")
    store = CheckpointStore(os.path.join(workdir, "checkpoints"))

    # 1. Record the stream.
    recorded = write_events_jsonl(stream, events_path)
    print(f"recorded {recorded} events to {events_path}")

    # 2. File-source reference run: the ground truth.
    reference_run = StreamingPipeline(
        fresh_engine(pattern),
        JSONLFileSource(events_path, types),
        sinks=[JSONLMatchWriter(reference_path)],
    ).run()
    reference = sorted_lines(reference_path)
    assert reference, "workload produced no matches; raise MAX_EVENTS"
    print(
        f"reference run: {reference_run.events_processed} events, "
        f"{len(reference)} matches to {reference_path}"
    )

    def build(receiver_url: str, log: DecisionLog):
        """One networked pipeline: HTTP ingress -> engine -> webhook sink."""
        # Size the push buffer to the whole workload so the script can
        # push everything before starting the pipeline.  A live deployment
        # keeps the default capacity and lets HTTP 429s throttle senders.
        source = NetworkEventSource(types, capacity=recorded)
        sink = WebhookMatchSink(
            receiver_url,
            backoff_base=0.01,  # keep the injected-failure retries snappy
        )
        pipeline = StreamingPipeline(
            fresh_engine(pattern),
            source,
            sinks=[sink],
            checkpoint_store=store,
            checkpoint_every=500,
            decision_log=log,
        )
        return source, pipeline

    # 3+4. Receiver up (with two injected 500s), first networked run,
    # killed mid-stream without a final checkpoint.  Aim the kill at the
    # middle of a checkpoint interval so matches delivered after the last
    # barrier exist to be re-derived and re-sent on resume.
    kill_at = recorded // 2 + 250
    log = DecisionLog(decisions_path)
    with WebhookReceiver(delivered_path, fail_first=2) as receiver:
        print(f"webhook receiver listening on {receiver.url}")
        source, pipeline = build(receiver.url, log)
        with HTTPEventIngress(source) as ingress:
            print(f"HTTP ingress listening on {ingress.url}")
            totals = push_events_http(
                ingress.url, read_event_records(events_path), end=True
            )
            print(f"pushed over HTTP: {json.dumps(totals)}")
            first = pipeline.run(max_events=kill_at, final_checkpoint=False)
        log.close()
        latest = store.latest()
        print(
            f"first pipeline processed {first.events_processed} events, "
            f"then died; last checkpoint covers {latest.events_processed}"
        )
        assert latest.events_processed < first.events_processed, (
            "kill window is empty; the resume would have nothing to re-send"
        )

        # 5. Fresh pipeline, same checkpoint store.  Re-push the WHOLE
        # file: the source's sequence floor (set on restore) discards the
        # prefix the checkpoint already covers, and the sink re-sends
        # re-derived matches under their original idempotency keys.
        resumed_log = DecisionLog(decisions_path)
        source, pipeline = build(receiver.url, resumed_log)
        with HTTPEventIngress(source) as ingress:
            totals = push_events_http(
                ingress.url, read_event_records(events_path), end=True
            )
            second = pipeline.run()
        resumed_log.close()
        print(
            f"second pipeline resumed from event {second.resumed_from}, "
            f"processed {second.events_processed} more "
            f"({second.matches_emitted} matches); "
            f"re-push deduped {source.metrics.events_duplicate} events "
            "at the source"
        )
        stats = receiver.stats()

    # 6. The delivered file is byte-identical to the file-source run.
    delivered = sorted_lines(delivered_path)
    assert delivered == reference, (
        f"delivered matches diverge from the file-source reference: "
        f"{len(delivered)} vs {len(reference)}"
    )
    injected = 2 - stats["failures_to_inject"]
    print(
        f"exactly-once verified: {stats['received']} stored deliveries "
        f"byte-identical to the reference; receiver absorbed "
        f"{stats['duplicates']} duplicate sends, injected "
        f"{injected} failures"
    )
    assert stats["duplicates"] >= 1, "expected re-sent matches after resume"

    # The injected 500s left delivery_retry records in the decision log.
    retries = [
        r for r in read_decision_records(decisions_path)
        if r.type == "delivery_retry"
    ]
    assert retries, "expected delivery_retry decisions from the injected 500s"
    print(
        f"decision log recorded {len(retries)} delivery retries "
        f"(first: sink={retries[0].detail['sink']!r}, "
        f"key={retries[0].detail['key']!r})"
    )


if __name__ == "__main__":
    main()
