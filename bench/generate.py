"""Input generation: the separate process that runs before anything is timed.

``python3 bench/generate.py --workload W --seed N --out DIR`` draws the
workload's stream from the seed, writes it where a measured pass reads it
(``events.pkl``; ``events.jsonl`` in seeded ``bounded_shuffle`` arrival
order for the disordered workload), computes the on-the-fly reference over
evenly spaced slices of the sorted stream, and records the input digest, the
warm-up boundary and how long all of it took (``inputs_s``) in ``meta.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def arrival_events(workload, seed: int, count: int) -> Tuple[List, str]:
    """The stream in arrival order, sequence number = arrival position."""
    from bench import inputs
    from repro.streaming import bounded_shuffle

    spec = workload.spec(count)
    columns = inputs.draw_columns(spec, seed, count)
    events = inputs.build_events(spec, columns)
    if workload.disordered:
        events = bounded_shuffle(events, workload.SLACK, seed=seed)
        for position, event in enumerate(events):
            event.sequence_number = position
    return events, columns.digest()


def sorted_events(workload, seed: int, count: int) -> Tuple[List, str]:
    """The stream in ``(timestamp, sequence_number)`` order, plus its digest."""
    events, digest = arrival_events(workload, seed, count)
    return sorted(events), digest


def reference_slices(ordered: List, slices: int, reference_count: int) -> List[List]:
    """``slices`` evenly spaced stretches of the sorted stream, together
    ``reference_count`` events long; stretch ``i`` starts ``i / slices`` of the
    way through, which on ``serve_drift_seq`` is where regime ``i`` begins."""
    length = min(reference_count, len(ordered)) // slices
    return [
        ordered[start : start + length]
        for start in (index * len(ordered) // slices for index in range(slices))
    ]


def generate(workload, seed: int, count: int, reference_count: int, out_dir: str) -> dict:
    from bench import inputs, workloads
    from bench.reference import reference_lines
    from repro.streaming import write_events_jsonl

    started = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    arrivals, digest = arrival_events(workload, seed, count)
    ordered = sorted(arrivals)
    if workload.disordered:
        write_events_jsonl(arrivals, os.path.join(out_dir, "events.jsonl"))
    else:
        inputs.save_events(arrivals, os.path.join(out_dir, "events.pkl"))

    # A match whose events all lie inside one stretch is found by a fresh
    # reference engine that sees only that stretch (the patterns are
    # SEQ/AND: nothing outside a match's own events decides it).
    stretches = reference_slices(ordered, workload.reference_slices, reference_count)
    patterns = workload.patterns()
    lines = sorted(
        line for stretch in stretches for line in reference_lines(patterns, stretch)
    )
    with open(os.path.join(out_dir, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump({"lines": lines}, handle)
    meta = {
        "workload": workload.name,
        "seed": seed,
        "events": count,
        "input_digest": digest,
        "warmup_time": ordered[int(count * workloads.WARMUP_SHARE)].timestamp,
        "horizon": ordered[-1].timestamp,
        "reference": {
            "events": sum(len(stretch) for stretch in stretches),
            "slices": [
                [
                    [stretch[0].timestamp, stretch[0].sequence_number],
                    [stretch[-1].timestamp, stretch[-1].sequence_number],
                ]
                for stretch in stretches
            ],
            "matches": len(lines),
        },
        "inputs_s": time.perf_counter() - started,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from bench import workloads

    workload = workloads.by_name(args.workload)
    generate(workload, args.seed, workload.events, workload.reference_events, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
