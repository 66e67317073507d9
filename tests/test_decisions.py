"""The decision record holds (``python -m tests.decisions`` runs the same
check): every recomputed row equals ``tests/decisions.json``, the relations
between rows hold, and EXPERIMENTS.md's rendered counts are current.  The
rows are computed once per session; the failure-path tests alter copies of
them in memory.
"""

import json

import pytest

from tests import decisions


@pytest.fixture(scope="session")
def rows():
    return decisions.compute()


@pytest.fixture(scope="session")
def manifest():
    return decisions.load_manifest()


@pytest.fixture(scope="session")
def experiments():
    return decisions.EXPERIMENTS.read_text()


def test_decision_record_holds(rows, manifest, experiments):
    assert decisions.check(rows, manifest, experiments) == []


def test_manifest_is_one_sorted_row_per_line(manifest):
    assert decisions.MANIFEST.read_text() == decisions.serialize(manifest)


class TestFailurePath:
    KEY = "hunt/OrbitDB-4/serial"

    def test_an_altered_row_is_named_with_both_values(
        self, rows, manifest, experiments
    ):
        row = manifest[self.KEY]
        altered = {**manifest, self.KEY: {**row, "replays": row["replays"] + 1}}
        problems = decisions.check(rows, altered, experiments)
        assert problems == [
            f"{self.KEY}.replays: manifest {row['replays'] + 1}, "
            f"computed {row['replays']}"
        ]

    def test_a_missing_and_an_extra_row_are_named(self, rows, manifest):
        missing = dict(manifest)
        del missing[self.KEY]
        extra = {**manifest, "hunt/Roshi-9/serial": manifest[self.KEY]}
        assert decisions.differences(missing, rows) == [
            f"{self.KEY}: computed but not in the manifest"
        ]
        assert decisions.differences(extra, rows) == [
            "hunt/Roshi-9/serial: in the manifest but not computed"
        ]

    def test_a_worker_row_that_leaves_its_serial_twin_is_named(self, rows):
        key = "hunt/ReplicaDB-2/dpor+workers2"
        moved = {**rows, key: {**rows[key], "verdicts": "0" * 16}}
        assert decisions.broken_relations(moved) == [
            f"{key} differs from its serial twin hunt/ReplicaDB-2/dpor"
        ]

    def test_an_edited_experiments_block_is_named(self, rows, experiments):
        edited = experiments.replace("| Roshi-2 | 11 | 10 | closed | RDL issue | 2 |",
                                     "| Roshi-2 | 11 | 10 | closed | RDL issue | 3 |")
        assert edited != experiments
        assert decisions.stale_blocks(edited, rows) == [
            "EXPERIMENTS.md: the 'table1' block is stale"
        ]
        assert decisions.render(edited, rows) == experiments


class TestMain:
    @pytest.fixture
    def record(self, rows, manifest, experiments, tmp_path, monkeypatch):
        """The module's files as copies under ``tmp_path``, and its rows
        served from the session's computation."""
        paths = {"MANIFEST": tmp_path / "decisions.json",
                 "EXPERIMENTS": tmp_path / "EXPERIMENTS.md"}
        paths["MANIFEST"].write_text(decisions.serialize(manifest))
        paths["EXPERIMENTS"].write_text(experiments)
        for name, path in paths.items():
            monkeypatch.setattr(decisions, name, path)
        monkeypatch.setattr(decisions, "ROOT", tmp_path)
        served = dict(rows)
        monkeypatch.setattr(decisions, "compute", lambda: dict(served))
        return served, paths

    def test_parity_prints_true_and_exits_zero(self, record, capsys):
        assert decisions.main([]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "REPLAY PARITY: TRUE"

    def test_a_moved_decision_prints_false_and_its_key(self, record, capsys):
        served, _ = record
        key = "table2/Roshi/2"
        served[key] = {**served[key], "verdict": "not detected"}
        assert decisions.main([]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (
            f'{key}.verdict: manifest "detected", computed "not detected"'
        )
        assert "EXPERIMENTS.md: the 'table2' block is stale" in out
        assert out[-1] == "REPLAY PARITY: FALSE"

    def test_write_rewrites_the_manifest_and_the_counts(self, record, capsys):
        served, paths = record
        key = "fig9/Roshi-3"
        suppressed = served[key]["replica_specific"] + 1
        served[key] = {**served[key], "replica_specific": suppressed}
        assert decisions.main(["--write"]) == 0
        written = json.loads(paths["MANIFEST"].read_text())
        assert written[key]["replica_specific"] == suppressed
        assert f"{suppressed:,} of the first" in paths["EXPERIMENTS"].read_text()
        assert capsys.readouterr().out.splitlines()[-1] == "REPLAY PARITY: TRUE"
