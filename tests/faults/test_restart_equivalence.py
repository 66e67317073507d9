"""A crashed replica restarts in place, exactly as the pickle round trip did.

A down replica cannot change, so resetting its volatile fields in place at
recovery must leave it where reloading a snapshot taken at the crash left
it.  The round trip (``durable_snapshot()`` at crash, ``recover(snapshot)``
at recovery) is kept here as the reference: the hosts of a second cluster
crash and recover through it, and both clusters replay the first candidates
of every crash-recovery scenario, buggy and fixed.  After each replay the
canonical-state digests, host up flags, event results, violations and
states must be equal.
"""

import itertools
import pickle
import types

import pytest

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs import fault_scenario_names, scenario
from repro.faults.errors import FaultError
from repro.rdl.orbitdb import OrbitDBStore
from repro.rdl.replicadb import ReplicaDBJob
from repro.rdl.roshi import RoshiReplica
from repro.rdl.yorkie import YorkieDocument
from repro.statehash import state_digest

CANDIDATES = 400


# ------------------------------------------------ the round-trip reference


def durable_snapshot(rdl):
    """What each subject persisted across a crash, as pickled bytes."""
    if isinstance(rdl, OrbitDBStore):
        return rdl._snapshot(_open=False, _repo_locked=rdl._open or rdl._repo_locked)
    if isinstance(rdl, ReplicaDBJob):
        tombstones = {} if rdl.has_defect("volatile_tombstones") else rdl._source_deleted
        return rdl._snapshot(
            rows_transferred=0, peak_memory_rows=0, _source_deleted=tombstones
        )
    if isinstance(rdl, RoshiReplica):
        state = (rdl.farm.snapshot(), rdl._keys, {}, {})
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)
    if isinstance(rdl, YorkieDocument):
        if not rdl.has_defect("durable_seen_cache"):
            return rdl._durable_checkpoint
        state = pickle.loads(rdl._durable_checkpoint)
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
        rdl._durable_checkpoint = snapshot


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
def test_restart_in_place_matches_the_round_trip(name, fixed):
    sc = scenario(name)
    in_place = record_scenario(sc, fixed=fixed)
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
