"""A crashed replica restarts in place, exactly as the pickle round trip did.

A down replica cannot change, so resetting its volatile fields in place at
recovery must leave it where reloading a snapshot taken at the crash left
it.  The round trip (``durable_snapshot()`` at crash, ``recover(snapshot)``
at recovery) is kept here as the reference: the hosts of a second cluster
crash and recover through it, and both clusters replay the first candidates
of every crash-recovery scenario, buggy and fixed.  After each replay the
canonical-state digests, host up flags, event results, violations and
states must be equal.

Yorkie's watermark is the pack its last push shipped, which the round trip
never reads.  The reference's Yorkie replicas keep the old push-time pickle
of everything but the watermark, in a field of their own, taken at
construction and after every push; recovery restores from those bytes and
then writes the watermark in the product's form, so the digests compare.
"""

import itertools
import pickle
import types

import pytest

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs import fault_bugs, fault_scenario_names, scenario
from repro.faults.errors import FaultError
from repro.rdl.orbitdb import OrbitDBStore
from repro.rdl.replicadb import ReplicaDBJob
from repro.rdl.roshi import RoshiReplica
from repro.rdl.yorkie import YorkieDocument
from repro.statehash import state_digest

from tests.snapshots import pickled_with

CANDIDATES = 400

#: The pickled replica fields that make up the product's watermark, in order.
PACK_FIELDS = ("_doc", "_move_log", "_seen_moves", "_op_counter")


# ------------------------------------------------ the round-trip reference


class PushPickledYorkie(YorkieDocument):
    """A Yorkie replica that also pickles itself at every push."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pushed_bytes = self._push_checkpoint()

    def sync_payload(self, target_replica_id):
        payload = super().sync_payload(target_replica_id)
        self._pushed_bytes = self._push_checkpoint()
        return payload

    def _push_checkpoint(self):
        """A snapshot of everything but the watermark and these bytes."""
        return pickled_with(self, _durable_checkpoint=None, _pushed_bytes=None)

    def canonical_state(self):
        state = dict(super().canonical_state())
        del state["_pushed_bytes"]
        return state


def durable_snapshot(rdl):
    """What each subject persisted across a crash, as pickled bytes."""
    if isinstance(rdl, OrbitDBStore):
        return pickled_with(
            rdl, _open=False, _repo_locked=rdl._open or rdl._repo_locked
        )
    if isinstance(rdl, ReplicaDBJob):
        tombstones = {} if rdl.has_defect("volatile_tombstones") else rdl._source_deleted
        return pickled_with(
            rdl, rows_transferred=0, peak_memory_rows=0, _source_deleted=tombstones
        )
    if isinstance(rdl, RoshiReplica):
        state = (rdl.farm.snapshot(), rdl._keys, {}, {})
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    if isinstance(rdl, YorkieDocument):
        if not rdl.has_defect("durable_seen_cache"):
            return rdl._pushed_bytes
        state = pickle.loads(rdl._pushed_bytes)
        state["_seen_moves"] = set(rdl._seen_moves)
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    return rdl.checkpoint()


def recover(rdl, snapshot):
    """Rebuild a subject from its ``durable_snapshot``."""
    rdl.restore(snapshot)
    if isinstance(rdl, OrbitDBStore):
        if not rdl.has_defect("crash_lock_leak"):
            rdl._repo_locked = False
        rdl.open_store()
    elif isinstance(rdl, YorkieDocument):
        rdl._pushed_bytes = snapshot
        state = pickle.loads(snapshot)
        rdl._durable_checkpoint = tuple(state[field] for field in PACK_FIELDS)


def round_trip_crash(host):
    if not host.up:
        raise FaultError(f"replica {host.replica_id!r} is already down")
    host._durable = durable_snapshot(host.rdl)
    host.up = False


def round_trip_recover(host):
    if host.up:
        raise FaultError(f"replica {host.replica_id!r} is not down")
    recover(host.rdl, host._durable)
    host.up = True


def with_round_trip_hosts(recorded):
    for rid in recorded.cluster.replica_ids():
        host = recorded.cluster.host(rid)
        host.crash = types.MethodType(round_trip_crash, host)
        host.recover = types.MethodType(round_trip_recover, host)
    return recorded


# ------------------------------------------------------------------ checks


def fingerprint(recorded, interleaving, assertions):
    outcome = recorded.engine.replay(interleaving, assertions)
    cluster = recorded.cluster
    return (
        {
            rid: state_digest(cluster.rdl(rid).canonical_state())
            for rid in cluster.replica_ids()
        },
        {rid: cluster.host(rid).up for rid in cluster.replica_ids()},
        [(res.ok, res.result, res.error) for res in outcome.event_results],
        outcome.violations,
        outcome.states,
    )


@pytest.mark.parametrize("fixed", [False, True], ids=["buggy", "fixed"])
@pytest.mark.parametrize("name", fault_scenario_names())
def test_restart_in_place_matches_the_round_trip(name, fixed, monkeypatch):
    sc = scenario(name)
    in_place = record_scenario(sc, fixed=fixed)
    with monkeypatch.context() as patched:
        patched.setattr(fault_bugs, "YorkieDocument", PushPickledYorkie)
        round_trip = with_round_trip_hosts(record_scenario(sc, fixed=fixed))
    explorer = make_explorer(in_place, "erpi", faults=True)
    candidates = list(itertools.islice(explorer.candidates(), CANDIDATES))
    assert len(candidates) > 1
    assertions = sc.make_assertions()
    reference_assertions = sc.make_assertions()
    for index, interleaving in enumerate(candidates):
        ours = fingerprint(in_place, interleaving, assertions)
        reference = fingerprint(round_trip, interleaving, reference_assertions)
        assert ours == reference, f"{name}: candidate {index} differs"
