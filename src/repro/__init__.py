"""ER-pi: Exhaustive Interleaving Replay for Testing Replicated Data Library
Integration — a complete Python reproduction of the Middleware 2025 paper.

The package is organised bottom-up:

* :mod:`repro.crdt` — from-scratch CRDT suite (counters, registers, sets,
  OR-set/map, RGA lists, JSON documents, logical clocks).
* :mod:`repro.redisim` — in-memory Redis simulation + Redlock distributed
  mutex (ER-pi's replay-ordering substrate).
* :mod:`repro.datalog` — from-scratch Datalog engine; interleaving
  persistence and pruning queries (the paper's Souffle programs).
* :mod:`repro.net` — simulated replicas joined by FIFO channels, partitions.
* :mod:`repro.rdl` — the five simulated third-party subjects (Roshi,
  OrbitDB, ReplicaDB, Yorkie, CRDTs collection) with seeded defects.
* :mod:`repro.proxy` — dynamic proxying of RDL functions (event capture).
* :mod:`repro.core` — ER-pi itself: events, interleaving generation, the
  four pruning algorithms, replay engine, sessions, assertion library,
  exploration strategies.
* :mod:`repro.bugs` — the 12 Table-1 bug benchmarks.
* :mod:`repro.misconceptions` — the 5 Table-2 misconception seeds/detectors.
* :mod:`repro.bench` — harness behind every reproduced table and figure.

Quickstart::

    from repro.net import Cluster
    from repro.rdl import CRDTLibrary
    from repro.core import ErPi, assert_read_equals

    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))

    erpi = ErPi(cluster)
    erpi.start()
    # ... exercise the replicas and cluster.sync(...) ...
    report = erpi.end(assertions=[...])
    print(report.summary())
"""

from repro.core.session import ErPi, SessionReport

__version__ = "1.0.0"

__all__ = ["ErPi", "SessionReport", "__version__"]
