"""Event recording: turning proxied RDL calls into ER-pi events.

During the first (recording) run of the workload between ER-pi.Start() and
ER-pi.End(), every proxied RDL call and every cluster sync primitive is
captured as an :class:`~repro.core.events.Event` (paper step 1a/1b).  The
recorded event list is what interleaving generation permutes.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import RecordingError
from repro.core.events import Event, EventKind
from repro.net.cluster import Cluster
from repro.proxy import interceptor

#: Method names that are queries, recorded as READ events.
DEFAULT_READ_METHODS = frozenset(
    {
        "select",
        "get",
        "get_path",
        "value",
        "values",
        "keys",
        "entries",
        "list_value",
        "set_value",
        "map_value",
        "map_get",
        "text_value",
        "flag_value",
        "register_get",
        "array_value",
        "log_order",
        "score",
        "sink_rows",
        "source_rows",
        "sink_matches_source",
        "can_write",
        "clock_time",
    }
)

#: Methods never recorded (host-protocol plumbing, not app-visible events).
#: ``restart`` belongs to the crash–recovery protocol driven by fault
#: events, never to the recorded workload.
DEFAULT_IGNORED_METHODS = frozenset(
    {
        "sync_payload",
        "apply_sync",
        "checkpoint",
        "restore",
        "has_defect",
        "restart",
    }
)


class EventRecorder:
    """Captures the workload's RDL interactions on a cluster.

    Instruments every replica's RDL object (updates/reads) and the cluster's
    ``send_sync``/``execute_sync`` primitives (sync events).  ``stop()``
    removes all proxies and freezes the event list.
    """

    def __init__(
        self,
        cluster: Cluster,
        read_methods: Optional[Iterable[str]] = None,
    ) -> None:
        self.cluster = cluster
        self.read_methods: Set[str] = set(read_methods or DEFAULT_READ_METHODS)
        self.events: List[Event] = []
        self._counter = itertools.count(1)
        self._recording = False
        self._rdl_to_replica: Dict[int, str] = {}

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self._recording:
            raise RecordingError("recorder already started")
        self._recording = True
        for replica_id in self.cluster.replica_ids():
            rdl = self.cluster.rdl(replica_id)
            self._rdl_to_replica[id(rdl)] = replica_id
            methods = [
                name
                for name in interceptor.instrumentable_methods(rdl)
                if name not in DEFAULT_IGNORED_METHODS
            ]
            interceptor.instrument(rdl, self._on_rdl_call, methods=methods)
        interceptor.instrument(
            self.cluster, self._on_cluster_call, methods=["send_sync", "execute_sync"]
        )

    def stop(self) -> List[Event]:
        if not self._recording:
            raise RecordingError("recorder is not running")
        self._recording = False
        for replica_id in self.cluster.replica_ids():
            interceptor.deinstrument(self.cluster.rdl(replica_id))
        interceptor.deinstrument(self.cluster)
        return list(self.events)

    @property
    def recording(self) -> bool:
        return self._recording

    # ------------------------------------------------------------ callbacks

    def _on_rdl_call(
        self, target: Any, method: str, args: tuple, kwargs: dict, result: Any
    ) -> None:
        replica_id = self._rdl_to_replica.get(id(target))
        if replica_id is None:
            raise RecordingError(f"call on unknown RDL instance {target!r}")
        kind = EventKind.READ if method in self.read_methods else EventKind.UPDATE
        self.events.append(
            Event(
                event_id=f"e{next(self._counter)}",
                replica_id=replica_id,
                kind=kind,
                op_name=method,
                args=tuple(args),
                kwargs=tuple(sorted(kwargs.items())),
            )
        )

    def _on_cluster_call(
        self, target: Any, method: str, args: tuple, kwargs: dict, result: Any
    ) -> None:
        params = dict(zip(("sender", "receiver"), args))
        params.update(kwargs)
        sender, receiver = params["sender"], params["receiver"]
        if method == "send_sync":
            kind, executes_at = EventKind.SYNC_REQ, sender
        else:
            kind, executes_at = EventKind.EXEC_SYNC, receiver
        self.events.append(
            Event(
                event_id=f"e{next(self._counter)}",
                replica_id=executes_at,
                kind=kind,
                op_name=method,
                from_replica=sender,
                to_replica=receiver,
            )
        )
