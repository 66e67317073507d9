"""The replica host abstraction: one node of the simulated cluster.

A host couples a replica id with the RDL replica object running on it.  The
RDL object must duck-type the sync protocol::

    sync_payload(target_replica_id) -> payload   # what to ship to a peer
    apply_sync(payload, from_replica_id)         # integrate a peer's payload
    checkpoint() -> snapshot                     # opaque, reusable snapshot
    restore(snapshot)                            # reset to a snapshot
    value()                                      # observable state

Every simulated subject in :mod:`repro.rdl` implements this protocol.
"""

from __future__ import annotations

from typing import Any

from repro.faults.errors import FaultError, ReplicaDownError


class ReplicaHost:
    """One cluster node: id + the RDL replica it runs.

    Hosts have a crash/recover lifecycle: :meth:`crash` marks the node
    down (ops and syncs then raise :class:`ReplicaDownError`, so the RDL
    cannot change while it is down); :meth:`recover` restarts the RDL in
    place through its ``restart()``, when it has one — volatile state is
    lost, exactly like a process restart.
    """

    def __init__(self, replica_id: str, rdl: Any) -> None:
        if not replica_id:
            raise ValueError("replica_id must be non-empty")
        for method in ("sync_payload", "apply_sync", "checkpoint", "restore", "value"):
            if not callable(getattr(rdl, method, None)):
                raise TypeError(
                    f"RDL object {rdl!r} does not implement required method {method!r}"
                )
        self.replica_id = replica_id
        self.rdl = rdl
        self.up = True

    # ---------------------------------------------------------- crash/recover

    def crash(self) -> None:
        """Kill the node; its volatile state is lost when it restarts."""
        if not self.up:
            raise FaultError(f"replica {self.replica_id!r} is already down")
        self.up = False

    def recover(self) -> None:
        """Restart the node in place; a restart that raises leaves it down."""
        if self.up:
            raise FaultError(f"replica {self.replica_id!r} is not down")
        restart = getattr(self.rdl, "restart", None)
        if callable(restart):
            restart()
        self.up = True

    def require_up(self) -> None:
        if not self.up:
            raise ReplicaDownError(f"replica {self.replica_id!r} is down")

    def state(self) -> Any:
        return self.rdl.value()

    def checkpoint(self) -> Any:
        return self.rdl.checkpoint()

    def restore(self, snapshot: Any) -> None:
        # Replay checkpoints are taken at quiescent, all-up points, so a
        # checkpoint restore also resets the crash/recover lifecycle.
        self.rdl.restore(snapshot)
        self.up = True

    def __repr__(self) -> str:
        return f"ReplicaHost({self.replica_id!r}, rdl={type(self.rdl).__name__})"
