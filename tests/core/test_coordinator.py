"""The process pool's one failure policy: respawn, abandon, journal, resume.

The pool's whole contract under failure is *recovery without divergence*:
whatever dies — a worker SIGKILLed mid-batch or raising, or the hunt parent
itself — the final verdict map must be bit-for-bit the map an uninterrupted
run commits, and the exploration identity
``generated == pruned + replayed + quarantined + discarded`` must survive
the recovery.  These tests kill things and assert exactly that, with and
without a journal.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.bench.harness import hunt, make_explorer, record_scenario
from repro.bugs.registry import scenario
from repro.core.journal import HuntJournal, JournalError
from repro.core.procpool import CallableWorkerTask, ProcessParallelExplorer
from repro.core.session import persist_exploration
from repro.datalog.store import InterleavingStore
from repro.obs.metrics import MetricsRegistry

CAP = 60
NAME = "Roshi-1"


def plain_stack():
    recorded = record_scenario(scenario(NAME))
    explorer = make_explorer(recorded, "erpi")
    return (
        explorer,
        recorded.engine,
        recorded.scenario.make_assertions(),
    )


def _wrap_kill(explorer, kill_at, sentinel):
    """Worker slot 1 SIGKILLs itself at candidate ``kill_at``.

    With a ``sentinel`` path only the first incarnation dies (it drops the
    sentinel before the kill, so the respawned replacement survives); with
    ``sentinel=None`` every incarnation dies — the abandon path.
    """
    inner = explorer.candidates

    def candidates():
        me = multiprocessing.current_process().name
        for index, interleaving in enumerate(inner()):
            if index == kill_at and me == "erpi-proc-1":
                if sentinel is None:
                    os.kill(os.getpid(), signal.SIGKILL)
                elif not os.path.exists(sentinel):
                    with open(sentinel, "w") as handle:
                        handle.write("killed\n")
                    os.kill(os.getpid(), signal.SIGKILL)
            yield interleaving

    explorer.candidates = candidates
    return explorer


class _SlowToReport(RuntimeError):
    """Formats slowly after its first ``str()``.  The worker formats it once
    for its partial final and again for its error frame, so the error frame
    trails the final by a visible gap."""

    formatted = 0

    def __str__(self) -> str:
        type(self).formatted += 1
        if type(self).formatted > 1:
            time.sleep(0.3)
        return "injected worker failure"


def raise_once_stack(sentinel, raise_at, slow_report=False):
    """Worker slot 1's first incarnation raises at candidate ``raise_at``:
    it flushes a partial final, then reports the error."""
    explorer, engine, assertions = plain_stack()
    inner = explorer.candidates

    def candidates():
        me = multiprocessing.current_process().name
        for index, interleaving in enumerate(inner()):
            if (
                index == raise_at
                and me == "erpi-proc-1"
                and not os.path.exists(sentinel)
            ):
                with open(sentinel, "w") as handle:
                    handle.write("raised\n")
                if slow_report:
                    raise _SlowToReport()
                raise RuntimeError("injected worker failure")
            yield interleaving

    explorer.candidates = candidates
    return explorer, engine, assertions


def kill_once_stack(sentinel, kill_at):
    explorer, engine, assertions = plain_stack()
    return _wrap_kill(explorer, kill_at, sentinel), engine, assertions


def kill_always_stack(kill_at):
    explorer, engine, assertions = plain_stack()
    return _wrap_kill(explorer, kill_at, None), engine, assertions


@pytest.fixture(scope="module")
def baseline():
    """The bit-for-bit reference: a 1-worker pool over the same stream."""
    recorded = record_scenario(scenario(NAME))
    explorer = make_explorer(recorded, "erpi")
    pool = ProcessParallelExplorer(
        explorer, CallableWorkerTask(plain_stack), workers=1,
    )
    return pool.explore(
        recorded.engine, recorded.scenario.make_assertions(),
        cap=CAP, stop_on_violation=False,
    )


def coordinated(task, journal=None, metrics=None, **kwargs):
    recorded = record_scenario(scenario(NAME))
    explorer = make_explorer(recorded, "erpi")
    if metrics is not None:
        explorer.metrics = metrics
        recorded.engine.metrics = metrics
    pool = ProcessParallelExplorer(
        explorer, task, workers=2, journal=journal, **kwargs,
    )
    result = pool.explore(
        recorded.engine, recorded.scenario.make_assertions(),
        cap=CAP, stop_on_violation=False,
    )
    return result, pool


def truncate_journal(path, keep_commits):
    """Simulate a parent killed mid-hunt: keep the header and the first
    ``keep_commits`` commits, then a torn trailing line."""
    records = [json.loads(line) for line in open(path) if line.strip()]
    keep = [records[0]]
    kept = 0
    for record in records[1:]:
        if record["type"] == "commit" and kept < keep_commits:
            keep.append(record)
            kept += 1
    with open(path, "w") as handle:
        for record in keep:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write('{"type": "commit", "index": %d, "verd' % keep_commits)


def rewrite_hunt_header(path, drop=(), **fields):
    """Set ``fields`` in the journal header's hunt config and remove the
    ``drop`` keys, leaving every other line (torn tail included)
    byte-for-byte as it was."""
    with open(path) as handle:
        first, rest = handle.read().split("\n", 1)
    header = json.loads(first)
    header["hunt"].update(fields)
    for key in drop:
        del header["hunt"][key]
    with open(path, "w") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n" + rest)


class TestHappyPath:
    def test_coordinated_hunt_matches_uninterrupted_run(self, baseline, tmp_path):
        path = str(tmp_path / "happy.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "happy"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=journal,
            metrics=metrics,
        )
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert result.found == baseline.found
        assert metrics.consistent()
        assert result.coordination["lease_events"] == [
            (0, 1, "acquired"), (1, 1, "acquired")
        ]
        loaded = HuntJournal.load(path)
        assert loaded.is_final
        assert loaded.final_record["found"] == baseline.found
        assert len(loaded.commits) == CAP


class TestCrashRecovery:
    def test_sigkilled_worker_is_re_leased_and_verdicts_match(
        self, baseline, tmp_path
    ):
        """The tentpole invariant: SIGKILL a worker between IPC frames and
        the hunt still commits the uninterrupted run's verdict map, with the
        exploration identity intact."""
        sentinel = str(tmp_path / "kill.sentinel")
        path = str(tmp_path / "kill.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "kill"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(kill_once_stack, (sentinel, 10)),
            journal=journal, metrics=metrics,
            backoff_base_s=0.01, batch_size=8,
        )
        assert os.path.exists(sentinel), "worker 1 never reached the kill point"
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert not result.crashed, result.crash_reason
        assert metrics.consistent(), metrics.counters_with_prefix("interleavings")
        events = result.coordination["lease_events"]
        assert (1, 2, "re-leased") in events, events
        assert result.coordination["releases"] == 1
        assert metrics.counter("coordinator.leases.re-leased") == 1
        loaded = HuntJournal.load(path)
        assert len(loaded.commits) == CAP
        assert (1, 2, "re-leased") in loaded.lease_events

    def test_sigkilled_worker_without_journal_is_re_leased(
        self, baseline, tmp_path
    ):
        """The policy does not depend on a journal: a plain pool respawns a
        SIGKILLed worker and commits the uninterrupted verdict map."""
        sentinel = str(tmp_path / "plain-kill.sentinel")
        result, _ = coordinated(
            CallableWorkerTask(kill_once_stack, (sentinel, 10)),
            backoff_base_s=0.01, batch_size=8,
        )
        assert os.path.exists(sentinel), "worker 1 never reached the kill point"
        assert not result.crashed, result.crash_reason
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        events = result.coordination["lease_events"]
        assert [e for e in events if e[2] == "re-leased"] == [(1, 2, "re-leased")]
        assert result.coordination["journal"] is None
        assert result.coordination["abandoned_shards"] == []

    def test_kill_mid_batch_merges_metrics_exactly_once(
        self, baseline, tmp_path
    ):
        """Regression for the metrics-merge double count: a respawned slot
        can surface two finals (the dead incarnation's partial and its
        replacement's full shard).  Epoch-tagged merges keep exactly one
        count per committed candidate, so the merged replay counter equals
        the committed total and the exploration identity holds."""
        sentinel = str(tmp_path / "merge.sentinel")
        path = str(tmp_path / "merge.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "merge"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(kill_once_stack, (sentinel, 10)),
            journal=journal, metrics=metrics,
            backoff_base_s=0.01, batch_size=8,
        )
        assert result.explored == CAP
        assert metrics.consistent(), metrics.counters_with_prefix("interleavings")
        assert metrics.counter("interleavings.replayed") == result.explored
        assert metrics.counter("interleavings.generated") == result.explored

    def test_repeatedly_dying_shard_is_quarantined_not_the_hunt(
        self, baseline, tmp_path
    ):
        """Slot 1 dies in every incarnation and is quarantined.  Slot 0
        finishes cleanly and must keep its one incarnation: it is never
        declared dead or respawned to redo its positions."""
        path = str(tmp_path / "abandon.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "abandon"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(kill_always_stack, (10,)),
            journal=journal, metrics=metrics,
            backoff_base_s=0.01, max_releases=1, batch_size=8,
        )
        assert result.coordination["abandoned_shards"] == [1]
        events = result.coordination["lease_events"]
        assert [e for e in events if e[0] == 0] == [(0, 1, "acquired")], events
        assert [e for e in events if e[0] == 1] == [
            (1, 1, "acquired"), (1, 1, "expired"), (1, 2, "re-leased"),
            (1, 2, "expired"), (1, 2, "quarantined"),
        ], events
        assert metrics.counter("coordinator.releases") == 1
        assert not result.crashed, result.crash_reason
        assert result.explored == baseline.explored
        assert set(result.verdicts) == set(baseline.verdicts)
        abandoned = [
            q for q in result.quarantined if q.error_type == "ShardAbandoned"
        ]
        assert abandoned
        assert all(q.shard == 1 for q in abandoned)
        assert "(shard 1)" in abandoned[0].describe()
        kept = sum(
            1 for key, verdict in result.verdicts.items()
            if verdict == baseline.verdicts[key]
        )
        assert kept + len(abandoned) == CAP
        assert metrics.counter("coordinator.shards.quarantined") == 1
        assert metrics.consistent()


class TestRaisingWorker:
    """A worker that raises sends a partial final flush, then its error
    frame.  The final alone must never count as its slot finishing: the
    error frame can trail it (``slow_report``: by 0.3 s, raised after slot
    0 has finished), and a hunt that ends on the final alone commits a
    truncated verdict map without saying so."""

    def test_plain_pool_reports_the_crash(self, baseline, tmp_path):
        """With no respawns allowed, the raising slot is abandoned at once:
        what it shipped before the raise commits as replayed, each of its
        positions past the raise commits as ``ShardAbandoned``, and the
        verdict map still covers the whole stream."""
        recorded = record_scenario(scenario(NAME))
        pool = ProcessParallelExplorer(
            make_explorer(recorded, "erpi"),
            CallableWorkerTask(
                raise_once_stack, (str(tmp_path / "raise.sentinel"), 50, True)
            ),
            workers=2, batch_size=8, max_releases=0,
        )
        result = pool.explore(
            recorded.engine, recorded.scenario.make_assertions(),
            cap=CAP, stop_on_violation=False,
        )
        assert not result.crashed, result.crash_reason
        assert result.explored == CAP
        assert set(result.verdicts) == set(baseline.verdicts)
        assert result.coordination["abandoned_shards"] == [1]
        keys = list(baseline.verdicts)
        abandoned = [
            q for q in result.quarantined if q.error_type == "ShardAbandoned"
        ]
        assert ["|".join(q.interleaving) for q in abandoned] == [
            keys[index] for index in range(51, CAP, 2)
        ]
        assert all(q.shard == 1 for q in abandoned)
        assert "raised" in abandoned[0].message
        for key in keys[:51]:
            assert result.verdicts[key] == baseline.verdicts[key]

    @pytest.mark.parametrize("raise_at, slow_report", [(10, False), (50, True)])
    def test_coordinator_respawns_the_slot(
        self, baseline, tmp_path, raise_at, slow_report
    ):
        sentinel = str(tmp_path / "raise.sentinel")
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(raise_once_stack, (sentinel, raise_at, slow_report)),
            metrics=metrics, backoff_base_s=0.01, batch_size=8,
        )
        assert os.path.exists(sentinel), "worker 1 never reached the raise"
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert not result.crashed, result.crash_reason
        assert result.coordination["lease_events"] == [
            (0, 1, "acquired"), (1, 1, "acquired"), (1, 1, "expired"),
            (1, 2, "re-leased"),
        ]
        assert metrics.consistent(), metrics.counters_with_prefix("interleavings")


class TestResume:
    def test_resume_replays_checkpoint_to_identical_verdicts(
        self, baseline, tmp_path
    ):
        path = str(tmp_path / "resume.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "resume"}})
        full, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=journal,
        )
        assert full.verdicts == baseline.verdicts
        truncate_journal(path, keep_commits=20)
        resumed_journal = HuntJournal.load(path)
        assert len(resumed_journal.commits) == 20
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=resumed_journal,
            metrics=metrics,
        )
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert result.coordination["resumed_commits"] == 20
        assert metrics.counter("coordinator.commits.resumed") == 20
        assert metrics.consistent()
        final = HuntJournal.load(path)
        assert final.is_final
        assert len(final.commits) == CAP

    def test_resume_replays_only_past_the_journaled_prefix(self, tmp_path):
        """Every worker of a resumed hunt starts at the watermark, the first
        incarnations included: a 200-candidate hunt cut at 150 commits
        replays the other 50, not all 200 again."""
        path = str(tmp_path / "watermark.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=200, workers=2,
            journal=path, stop_on_violation=False,
        )
        truncate_journal(path, keep_commits=150)
        metrics = MetricsRegistry()
        resumed = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=200, workers=2,
            resume=path, stop_on_violation=False, metrics=metrics,
        )
        assert resumed.explored == 200
        assert resumed.coordination["resumed_commits"] == 150
        assert metrics.histogram("replay.duration_us").count == 50
        assert metrics.consistent()

    def test_checkpoint_records_of_older_builds_still_resume(
        self, baseline, tmp_path
    ):
        """Older builds wrote a ``checkpoint`` record every N commits.  A
        journal holding them loads, ignores them and resumes to the
        uninterrupted verdict map."""
        path = str(tmp_path / "older.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "older"}})
        coordinated(CallableWorkerTask(plain_stack), journal=journal)
        truncate_journal(path, keep_commits=40)
        with open(path) as handle:
            lines = handle.read().split("\n")
        # header, 40 commits, torn tail: a barrier after commits 16 and 32.
        for seq, committed in ((2, 32), (1, 16)):
            record = {"type": "checkpoint", "seq": seq, "committed": committed}
            lines.insert(1 + committed, json.dumps(record, sort_keys=True))
        with open(path, "w") as handle:
            handle.write("\n".join(lines))
        resumed_journal = HuntJournal.load(path)
        assert len(resumed_journal.commits) == 40
        result, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=resumed_journal
        )
        assert result.verdicts == baseline.verdicts
        assert result.coordination["resumed_commits"] == 40
        final = HuntJournal.load(path)
        assert final.is_final
        assert len(final.commits) == CAP

    def test_rewrites_do_not_grow_with_commits(self, tmp_path, monkeypatch):
        """The journal is rewritten whole once when it is created and once
        per reopen, however many verdicts the hunt commits."""
        rewrites = []
        rewrite = HuntJournal._rewrite

        def counting(journal):
            rewrites.append(journal.path)
            rewrite(journal)

        monkeypatch.setattr(HuntJournal, "_rewrite", counting)
        for cap in (CAP, 4 * CAP):
            path = str(tmp_path / f"cap{cap}.jsonl")
            result = hunt(
                record_scenario(scenario(NAME)), "erpi", cap=cap, workers=2,
                journal=path, stop_on_violation=False,
            )
            assert result.explored == cap
            assert rewrites.count(path) == 1
        truncate_journal(path, keep_commits=CAP)
        resumed = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=4 * CAP, workers=2,
            resume=path, stop_on_violation=False,
        )
        assert resumed.explored == 4 * CAP
        assert rewrites.count(path) == 2

    def test_harness_resume_stops_early_on_journaled_violation(self, tmp_path):
        """stop_on_violation resume whose journal already holds the bug:
        no pool is spawned, the journaled violation is reported."""
        path = str(tmp_path / "found.jsonl")
        result = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path,
        )
        assert result.found
        truncate_journal(path, keep_commits=result.explored)
        resumed = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            resume=path,
        )
        assert resumed.found
        assert resumed.violating.violated
        assert resumed.violating.violations
        assert resumed.explored == result.explored
        assert resumed.coordination["resumed_commits"] == result.explored

    def test_harness_refuses_mismatched_resume(self, tmp_path):
        path = str(tmp_path / "mismatch.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, stop_on_violation=False,
        )
        truncate_journal(path, keep_commits=5)
        with pytest.raises(JournalError, match="configuration mismatch"):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP + 1,
                workers=2, resume=path,
            )

    def test_harness_refuses_a_different_watchdog(self, tmp_path):
        """A watchdog quarantine in the committed prefix is part of what the
        prefix means, so the header pins ``replay_timeout_s``."""
        path = str(tmp_path / "watchdog.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, stop_on_violation=False, replay_timeout_s=30.0,
        )
        assert HuntJournal.load(path).header["hunt"]["replay_timeout_s"] == 30.0
        truncate_journal(path, keep_commits=5)
        with pytest.raises(
            JournalError, match="replay_timeout_s: journal=30.0 requested=None"
        ):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
                resume=path, stop_on_violation=False,
            )

    def test_header_without_a_watchdog_resumes_without_one(self, tmp_path):
        """A header written before ``replay_timeout_s`` was pinned reads it
        as ``None``: the journal resumes with no watchdog, and refuses one."""
        path = str(tmp_path / "unpinned.jsonl")
        full = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, stop_on_violation=False,
        )
        truncate_journal(path, keep_commits=20)
        rewrite_hunt_header(path, drop=("replay_timeout_s",))
        assert "replay_timeout_s" not in HuntJournal.load(path).header["hunt"]
        with pytest.raises(JournalError, match="replay_timeout_s"):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
                resume=path, stop_on_violation=False, replay_timeout_s=30.0,
            )
        recorded = record_scenario(scenario(NAME))
        resumed = hunt(
            recorded, "erpi", cap=CAP, workers=2,
            resume=path, stop_on_violation=False,
        )
        assert recorded.engine.executor.timeout_s is None
        assert resumed.coordination["resumed_commits"] == 20
        assert resumed.verdicts == full.verdicts
        assert resumed.explored == full.explored

    def test_harness_refuses_a_memo_journal(self, tmp_path):
        """A journal written with the state memo on may hold ``pruned``
        commits this build has no verdict for: resuming it must refuse."""
        path = str(tmp_path / "memo.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, stop_on_violation=False,
        )
        truncate_journal(path, keep_commits=5)
        rewrite_hunt_header(path, memo=True, prefix_cache=False)
        with pytest.raises(JournalError, match="memo"):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
                resume=path, stop_on_violation=False,
            )

    def test_harness_resumes_a_prefix_cache_journal(self, tmp_path):
        """The prefix cache never changed a verdict, so a journal written
        with it resumes to the uninterrupted run's verdict map."""
        path = str(tmp_path / "cached.jsonl")
        full = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, stop_on_violation=False,
        )
        truncate_journal(path, keep_commits=20)
        rewrite_hunt_header(path, prefix_cache=True, memo=False)
        resumed = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            resume=path, stop_on_violation=False,
        )
        assert resumed.coordination["resumed_commits"] == 20
        assert resumed.verdicts == full.verdicts
        assert resumed.explored == full.explored

    def test_harness_refuses_resuming_a_final_journal(self, tmp_path):
        path = str(tmp_path / "final.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path,
        )
        with pytest.raises(JournalError, match="nothing to resume"):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
                resume=path,
            )


class TestPersistence:
    def test_lease_and_degraded_facts_land_in_the_store(self, tmp_path):
        """Each slot's incarnation log lands as ``lease`` facts.  The
        ``degraded`` relation, which only the deleted lock-farm fallback
        wrote, is gone from the store and the export."""
        result, _ = coordinated(CallableWorkerTask(plain_stack))
        store = InterleavingStore()
        persist_exploration(store, result)
        leases = store.leases()
        assert (0, 1, "acquired") in leases
        assert (1, 1, "acquired") in leases
        assert not store.db.rows("degraded")
        # The export renders them alongside the verdict facts.
        from repro.datalog.export import export_program

        program = export_program(store)
        assert 'lease(0, 1, "acquired").' in program
        assert "degraded" not in program


class TestCLIExitCodes:
    def test_recovered_but_found_exits_zero(self, capsys, tmp_path):
        """Exit-code audit: a hunt that respawned its way past a crash and
        still reproduced the bug reports success."""
        import unittest.mock as mock

        from repro import cli
        from repro.core.explorers import ExplorationResult

        recovered = ExplorationResult(
            mode="erpi+proc2", found=True, explored=17, elapsed_s=0.1,
            violating=type(
                "V", (), {"violated": True, "violations": ["boom"],
                          "interleaving": ()},
            )(),
        )
        recovered.coordination = {
            "hunt_id": "x", "lease_events": [], "releases": 1,
            "abandoned_shards": [], "resumed_commits": 0,
            "journal": str(tmp_path / "j.jsonl"),
        }
        with mock.patch("repro.bench.harness.hunt", return_value=recovered):
            status = cli.main(["hunt", NAME, "--workers", "2", "--cap", "60"])
        out = capsys.readouterr().out
        assert status == 0
        assert "re-leased 1 shard(s)" in out

    def test_healthy_pool_hunt_prints_no_coordination_line(self, capsys):
        """Every pool run carries ``result.coordination``; the CLI prints it
        only for a journaled hunt or one that re-leased or abandoned a
        slot."""
        import unittest.mock as mock

        from repro import cli
        from repro.core.explorers import ExplorationResult

        healthy = ExplorationResult(
            mode="erpi+proc2", found=False, explored=60, elapsed_s=0.1,
        )
        healthy.coordination = {
            "hunt_id": "x", "lease_events": [(0, 1, "acquired")],
            "releases": 0, "abandoned_shards": [], "resumed_commits": 0,
            "journal": None,
        }
        with mock.patch("repro.bench.harness.hunt", return_value=healthy):
            cli.main(["hunt", NAME, "--workers", "2", "--cap", "60"])
        assert "coordination:" not in capsys.readouterr().out

    def test_unrecoverable_crash_without_repro_exits_three(self, capsys):
        import unittest.mock as mock

        from repro import cli
        from repro.core.explorers import ExplorationResult

        crashed = ExplorationResult(
            mode="erpi+proc2", found=False, explored=5, elapsed_s=0.1,
            crashed=True, crash_reason="generation budget exhausted",
        )
        with mock.patch("repro.bench.harness.hunt", return_value=crashed):
            status = cli.main(["hunt", NAME, "--workers", "2", "--cap", "60"])
        out = capsys.readouterr().out
        assert status == 3
        assert "exploration crashed" in out
