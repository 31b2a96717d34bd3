"""The on-disk frame format shared by the three snapshot kinds.

``repro.engine.state`` frames every blob as ``magic + version byte
[+ CRC32] + pickled payload``.  Checkpoints outlive library versions, so
the header bytes are compared against literals here, not against the
module's own constants.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import pytest

from repro.engine.state import (
    is_delta_snapshot,
    is_ordering_snapshot,
    restore_delta_state,
    restore_engine,
    restore_ordering_state,
    snapshot_delta_state,
    snapshot_engine,
    snapshot_ordering_state,
)
from repro.errors import CheckpointError


class ToyEngine:
    """The smallest picklable object ``snapshot_engine`` accepts."""

    def __init__(self, tag):
        self.tag = tag

    def process(self, event):
        return []

    def __eq__(self, other):
        return isinstance(other, ToyEngine) and other.tag == self.tag


ENGINE_FRAME = snapshot_engine(ToyEngine("e"))
ORDERING_STATE = {"ordering": ["pending"], "staged": [1, 2]}
DELTA_PAYLOAD = {"streams": {"engine": {"kind": "base"}}, "epoch": 3}

#: kind → (header literal, CRC'd?, frame, restore, the payload the body
#: pickles and restore returns, the ``is_*_snapshot`` predicate if any)
FRAMES = {
    "engine": (
        b"repro-engine-state\x01",
        False,
        ENGINE_FRAME,
        restore_engine,
        ToyEngine("e"),
        None,
    ),
    "ordering": (
        b"repro-ordering-state\x01",
        False,
        snapshot_ordering_state(ORDERING_STATE),
        restore_ordering_state,
        ORDERING_STATE,
        is_ordering_snapshot,
    ),
    "delta": (
        b"repro-delta-state\x01",
        True,
        snapshot_delta_state(DELTA_PAYLOAD),
        restore_delta_state,
        DELTA_PAYLOAD,
        is_delta_snapshot,
    ),
}


@pytest.mark.parametrize("kind", sorted(FRAMES))
def test_frame_layout_and_rejections(kind):
    header, has_crc, frame, restore, payload, is_kind = FRAMES[kind]

    # The exact bytes: header, optional little-endian CRC32 of the body, body.
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    crc = struct.pack("<I", zlib.crc32(body)) if has_crc else b""
    assert frame == header + crc + body

    assert restore(frame) == payload
    assert restore(bytearray(frame)) == payload
    if is_kind is not None:
        assert is_kind(frame) and is_kind(bytearray(frame))
        assert not is_kind(ENGINE_FRAME) and not is_kind("text")

    with pytest.raises(CheckpointError, match="magic"):
        restore(b"X" + frame[1:])
    wrong_version = header[:-1] + b"\x02" + frame[len(header) :]
    with pytest.raises(CheckpointError, match="version 2 is not supported"):
        restore(wrong_version)
    with pytest.raises(CheckpointError, match="magic"):
        restore(frame[: len(header)])
    with pytest.raises(CheckpointError, match="must be bytes"):
        restore(frame.decode("latin-1"))
    # A flipped payload byte: caught by the CRC where there is one, by the
    # unpickler (the STOP opcode is gone) where there is not.
    with pytest.raises(CheckpointError, match="CRC" if has_crc else "corrupt"):
        restore(frame[:-1] + bytes([frame[-1] ^ 0xFF]))


def test_multi_pattern_engine_is_one_engine_frame():
    """A multi-pattern engine is pickled whole, like every other facade."""
    from repro.adaptive import InvariantBasedPolicy
    from repro.engine import MultiPatternEngine
    from repro.events import EventType
    from repro.optimizer import GreedyOrderPlanner
    from repro.patterns import seq

    a, b, c, d = (EventType(name) for name in "ABCD")
    engine = MultiPatternEngine(
        [seq([a, b], window=5.0, name="p1"), seq([c, d], window=5.0, name="p2")],
        GreedyOrderPlanner(),
        InvariantBasedPolicy,
    )
    frame = snapshot_engine(engine)
    assert frame.startswith(b"repro-engine-state\x01")
    assert isinstance(restore_engine(frame), MultiPatternEngine)
