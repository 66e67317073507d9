"""Tests for the event model."""

import pytest

from repro.core.events import (
    Event,
    EventKind,
    make_read,
    make_sync_pair,
    make_update,
)


class TestEventConstruction:
    def test_make_update(self):
        event = make_update("e1", "A", "add", "x", weight=2)
        assert event.kind == EventKind.UPDATE
        assert event.args == ("x",)
        assert event.kwargs_dict() == {"weight": 2}
        assert not event.is_sync
        assert event.channel is None

    def test_make_read(self):
        event = make_read("e1", "A", "select", "k")
        assert event.kind == EventKind.READ

    def test_make_sync_pair(self):
        req, execute = make_sync_pair("e2", "e3", "A", "B")
        assert req.kind == EventKind.SYNC_REQ
        assert req.replica_id == "A"
        assert execute.kind == EventKind.EXEC_SYNC
        assert execute.replica_id == "B"
        assert req.channel == execute.channel == ("A", "B")
        assert req.is_sync and execute.is_sync

    def test_sync_event_requires_channel(self):
        with pytest.raises(ValueError):
            Event("e1", "A", EventKind.SYNC_REQ, "send_sync")

    def test_events_are_hashable_and_frozen(self):
        event = make_update("e1", "A", "add")
        assert event in {event}
        with pytest.raises(AttributeError):
            event.op_name = "changed"

    def test_describe_formats(self):
        update = make_update("e1", "A", "add", "x")
        assert "A.add('x')" in update.describe()
        req, execute = make_sync_pair("e2", "e3", "A", "B")
        assert "A->B" in req.describe()
        assert "exec_sync from A" in execute.describe()

