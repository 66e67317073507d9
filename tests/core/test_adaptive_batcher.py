"""Columnar IPC frames and their adaptive batching policy.

Workers ship verdicts as columnar frames — flat index/kind/position
arrays plus one ``other`` payload per violation/quarantine/crash — built
by an :class:`AdaptiveBatcher` that starts small (low first-verdict
latency), doubles on every full-buffer flush (amortised framing under
load) and force-flushes a partial buffer once it has idled past the
deadline.  The clock is injectable, so the deadline policy is pinned
deterministically here instead of with sleeps.
"""

import pickle
import types

import pytest

from repro.core.procpool import (
    _KIND_CRASHED,
    _KIND_OK,
    _KIND_QUARANTINE,
    _KIND_VIOLATION,
    AdaptiveBatcher,
    ProcessParallelExplorer,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def decode(frame, event_ids=("e1", "e2", "e3")):
    """Run the parent's columnar decoder over a detached frame."""
    parent = types.SimpleNamespace(_event_ids=tuple(event_ids))
    return ProcessParallelExplorer._decode_cbatch(parent, frame)


class TestIdleDeadline:
    """Satellite: partial frames flush on the idle deadline, not only when
    full — pinned on a fake clock."""

    def test_empty_buffer_is_never_due(self):
        clock = FakeClock()
        batcher = AdaptiveBatcher(cap=64, idle_flush_s=0.05, clock=clock)
        clock.advance(10.0)
        assert not batcher.due()

    def test_partial_buffer_becomes_due_after_the_deadline(self):
        clock = FakeClock()
        batcher = AdaptiveBatcher(cap=64, idle_flush_s=0.05, clock=clock)
        batcher.add(0, _KIND_OK, (0, 1, 2))
        assert not batcher.due()  # deadline measured from the last flush
        clock.advance(0.04)
        assert not batcher.due()
        clock.advance(0.02)
        assert batcher.due()

    def test_flush_restarts_the_deadline_window(self):
        clock = FakeClock()
        batcher = AdaptiveBatcher(cap=64, idle_flush_s=0.05, clock=clock)
        batcher.add(0, _KIND_OK, (0,))
        clock.advance(0.06)
        assert batcher.flush() is not None
        batcher.add(1, _KIND_OK, (1,))
        assert not batcher.due()  # the window restarted at the flush
        clock.advance(0.06)
        assert batcher.due()

    def test_deadline_flush_does_not_grow_the_batch(self):
        clock = FakeClock()
        batcher = AdaptiveBatcher(cap=64, idle_flush_s=0.05, clock=clock)
        assert batcher.size == 8
        batcher.add(0, _KIND_OK, (0,))
        clock.advance(1.0)
        assert batcher.due()
        batcher.flush(grow=False)
        assert batcher.size == 8

    def test_empty_flush_returns_none_but_still_resets_the_clock(self):
        clock = FakeClock()
        batcher = AdaptiveBatcher(cap=64, idle_flush_s=0.05, clock=clock)
        clock.advance(1.0)
        assert batcher.flush() is None
        batcher.add(0, _KIND_OK, (0,))
        assert not batcher.due()


class TestAdaptiveSizing:
    def test_starts_small_and_doubles_to_the_cap(self):
        batcher = AdaptiveBatcher(cap=64, clock=FakeClock())
        sizes = [batcher.size]
        for _ in range(5):
            while not batcher.full:
                batcher.add(0, _KIND_OK, None)
            batcher.flush(grow=True)
            sizes.append(batcher.size)
        assert sizes == [8, 16, 32, 64, 64, 64]

    def test_cap_smaller_than_the_floor_wins(self):
        batcher = AdaptiveBatcher(cap=4, clock=FakeClock())
        assert batcher.size == 4
        for index in range(4):
            batcher.add(index, _KIND_OK, None)
        assert batcher.full
        batcher.flush(grow=True)
        assert batcher.size == 4

    def test_full_tracks_the_current_size_not_the_cap(self):
        batcher = AdaptiveBatcher(cap=64, clock=FakeClock())
        for index in range(7):
            batcher.add(index, _KIND_OK, None)
        assert not batcher.full
        batcher.add(7, _KIND_OK, None)
        assert batcher.full


class TestColumnarRoundTrip:
    def test_mixed_kinds_decode_back_to_records(self):
        batcher = AdaptiveBatcher(cap=64, clock=FakeClock())
        violation = pickle.dumps({"verdict": "violation"})
        batcher.add(3, _KIND_OK, (0, 2, 1))
        batcher.add(4, _KIND_OK, (1, 0))
        batcher.add(7, _KIND_VIOLATION, (2, 0, 1), violation)
        batcher.add(9, _KIND_QUARANTINE, None, "quarantine-payload")
        batcher.add(11, _KIND_CRASHED, None, "replay crashed")
        records = decode(batcher.flush(grow=True))
        assert records == [
            (3, "ok", ("e1", "e3", "e2")),
            (4, "ok", ("e2", "e1")),
            (7, "violation", (("e3", "e1", "e2"), violation)),
            (9, "quarantine", "quarantine-payload"),
            (11, "crashed", "replay crashed"),
        ]

    def test_violation_payload_stays_pickled_until_commit(self):
        """The decoder must NOT unpickle violation outcomes — commit-time
        code deserialises only the winning index's payload."""
        batcher = AdaptiveBatcher(cap=8, clock=FakeClock())
        payload = pickle.dumps(("outcome", 1))
        batcher.add(0, _KIND_VIOLATION, (0,), payload)
        ((_, kind, (il_ids, raw)),) = decode(batcher.flush())
        assert kind == "violation"
        assert isinstance(raw, bytes)
        assert pickle.loads(raw) == ("outcome", 1)

    def test_flush_detaches_the_buffers(self):
        """A retained frame must not alias the batcher's next buffers."""
        batcher = AdaptiveBatcher(cap=8, clock=FakeClock())
        batcher.add(0, _KIND_OK, (0, 1))
        frame = batcher.flush()
        batcher.add(1, _KIND_OK, (2,))
        indices, kinds, ev, ev_lens, other = frame
        assert list(indices) == [0]
        assert bytes(kinds) == bytes([_KIND_OK])
        assert list(ev) == [0, 1]
        assert list(ev_lens) == [2]
        assert other == []

    def test_wire_size_per_ok_verdict_is_bounded(self):
        """The layout contract behind ``ipc_bytes_per_replay``: a full frame
        of ok-verdicts costs a bounded few dozen bytes per record (flat
        arrays, no per-row tuple/string framing)."""
        positions = tuple(range(12))
        batcher = AdaptiveBatcher(cap=64, clock=FakeClock())
        for index in range(64):
            batcher.add(index, _KIND_OK, positions)
        frame = len(pickle.dumps(batcher.flush(), pickle.HIGHEST_PROTOCOL))
        assert frame / 64 < 100
