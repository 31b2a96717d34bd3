"""Seeded input generation for the benchmark workloads.

Inputs are drawn in a process of their own before anything is timed: a
workload describes its stream as a per-step rate table plus a vectorised
payload draw (:class:`StreamSpec`), and :func:`draw_columns` turns a seed
into event columns.  Only the random draws depend on the seed — the rate
schedule, the regime shifts and the key skew are part of the workload — so
every seed asks the program for the same amount of work up to sampling
noise, which is what lets runs on different seeds be compared.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.events import Event, EventType

#: Share of extra stream generated so the rate table never comes up short of
#: the fixed event count.
HEADROOM = 1.05

PayloadDraw = Callable[[np.random.Generator, np.ndarray], Dict[str, np.ndarray]]


@dataclass(frozen=True)
class StreamSpec:
    """One workload's stream: ``rates[step, type]`` events per unit step."""

    types: Sequence[EventType]
    rates: np.ndarray
    payload: PayloadDraw


@dataclass(frozen=True)
class Columns:
    """A drawn stream in struct-of-arrays form, sorted by timestamp."""

    type_index: np.ndarray
    timestamps: np.ndarray
    payload: Dict[str, np.ndarray]

    def digest(self) -> str:
        """SHA-256 over the raw columns: equal for equal seeds only."""
        sha = hashlib.sha256()
        sha.update(self.type_index.tobytes())
        sha.update(self.timestamps.tobytes())
        for name in sorted(self.payload):
            sha.update(name.encode())
            sha.update(self.payload[name].tobytes())
        return sha.hexdigest()


def draw_columns(spec: StreamSpec, seed: int, count: int) -> Columns:
    """Draw exactly ``count`` events of ``spec`` from ``seed``."""
    rng = np.random.default_rng(seed)
    steps, num_types = spec.rates.shape
    # Stratified arrivals: each type gets its expected number of events in
    # every step (rounding carried forward from a seeded phase), placed
    # uniformly inside the step.  Counts per window then vary far less than
    # a Poisson draw's would, and pattern work is a product of such counts —
    # with Poisson counts the rarest type alone moved a pass by +-5 %.
    expected = np.cumsum(spec.rates, axis=0) + rng.random(num_types)
    per_cell = np.diff(np.floor(expected), axis=0, prepend=0.0).astype(np.int64).ravel()
    total = int(per_cell.sum())
    if total < count:
        raise ValueError(
            f"rate table yields {total} events, fewer than the {count} required"
        )
    cell = np.repeat(np.arange(steps * num_types), per_cell)
    timestamps = (cell // num_types) + rng.random(total)
    order = np.argsort(timestamps, kind="stable")[:count]
    type_index = (cell % num_types)[order].astype(np.int64)
    return Columns(
        type_index=type_index,
        timestamps=timestamps[order],
        payload=spec.payload(rng, type_index),
    )


def build_events(spec: StreamSpec, columns: Columns) -> List[Event]:
    """Materialise columns as events; sequence number = sorted position."""
    types = list(spec.types)
    names = list(columns.payload)
    values = [columns.payload[name].tolist() for name in names]
    events = []
    for index, (type_index, timestamp) in enumerate(
        zip(columns.type_index.tolist(), columns.timestamps.tolist())
    ):
        payload = {name: column[index] for name, column in zip(names, values)}
        events.append(Event(types[type_index], timestamp, payload, sequence_number=index))
    return events


def steps_for(count: int, mean_total_rate: float) -> int:
    """Rate-table length whose expected event total covers ``count``."""
    return int(np.ceil(HEADROOM * count / mean_total_rate)) + 1


def save_events(events: List[Event], path: str) -> None:
    with open(path, "wb") as handle:
        pickle.dump(events, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_events(path: str) -> List[Event]:
    """Read a stream this benchmark's own generator process wrote."""
    with open(path, "rb") as handle:
        return pickle.load(handle)
