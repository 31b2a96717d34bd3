"""The slow, independent reference every measured pass is checked against.

The reference shares as little as it can with the measured path: events are
replayed in sorted order (no ordering stage), conditions are interpreted
(no kernels, no index), the plan never changes (``StaticPolicy``: no
decision function, no migration), every pattern gets an isolated
``AdaptiveCEPEngine`` with the greedy order planner (no multi-pattern
dispatch or sharing, no tree engine), and nothing is sharded.

``python3 -m bench.reference`` (from the repository root, ``PYTHONPATH=src``)
rewrites ``bench/expected/<workload>-seed<k>.json`` — match count and
SHA-256 over the sorted ``match_record`` lines of the *whole* stream — for
the pinned seeds.  Every seed is also checked against a reference computed
on the fly over evenly spaced slices of the sorted stream (see
``bench/generate.py``); the whole stream would cost more than the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Sequence

#: Seeds whose whole-stream digests are committed under ``bench/expected``.
PINNED_SEEDS = (13, 14)

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def reference_lines(patterns: Sequence, events: Sequence) -> List[str]:
    """Sorted ``match_record`` lines of ``patterns`` over sorted ``events``."""
    from repro.adaptive import StaticPolicy
    from repro.engine import AdaptiveCEPEngine
    from repro.optimizer import GreedyOrderPlanner
    from repro.streaming import match_record

    lines: List[str] = []
    for pattern in patterns:
        engine = AdaptiveCEPEngine(
            pattern, GreedyOrderPlanner(), StaticPolicy(), compile_mode="interpreted"
        )
        for event in events:
            for match in engine.process(event):
                lines.append(json.dumps(match_record(match)))
    lines.sort()
    return lines


def digest_lines(lines: Sequence[str]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def expected_path(workload: str, seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}-seed{seed}.json")


def load_expected(workload: str, seed: int, events: int, input_digest: str) -> Dict:
    """The committed whole-stream expectation of a pinned seed.

    Raises ``ValueError`` when it is missing or was computed for another
    input (the generator or the workload changed since): the whole-stream
    check must not disappear silently.
    """
    path = expected_path(workload, seed)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing; rewrite it with python3 -m bench.reference")
    if expected["events"] != events or expected["input_digest"] != input_digest:
        raise ValueError(
            f"{path} is stale (its input is not what seed {seed} generates now); "
            "rewrite it with python3 -m bench.reference"
        )
    return expected


def main(argv=None) -> int:
    from bench import workloads
    from bench.generate import sorted_events

    names = list(argv or sys.argv[1:]) or list(workloads.NAMES)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in names:
        workload = workloads.by_name(name)
        for seed in PINNED_SEEDS:
            events, input_digest = sorted_events(workload, seed, workload.events)
            lines = reference_lines(workload.patterns(), events)
            expected: Dict[str, object] = {
                "workload": name,
                "seed": seed,
                "events": workload.events,
                "input_digest": input_digest,
                "matches": len(lines),
                "sha256": digest_lines(lines),
            }
            with open(expected_path(name, seed), "w", encoding="utf-8") as handle:
                json.dump(expected, handle, indent=2)
                handle.write("\n")
            print(f"{name} seed {seed}: {len(lines)} matches {expected['sha256'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
