"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_hunt_defaults(self):
        args = build_parser().parse_args(["hunt", "Roshi-2"])
        assert args.mode == "erpi"
        assert args.cap == 10_000

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hunt", "Roshi-2", "--mode", "bfs"])

    @pytest.mark.parametrize("argv", [
        ["hunt", "Roshi-2", "--replay-timeout", "0"],
        ["faults", "--replay-timeout", "0"],
        ["hunt", "Roshi-2", "--workers", "0", "--journal", "j.jsonl"],
        ["hunt", "Roshi-2", "--workers", "-2"],
        ["sanitize", "--cap", "0"],
        ["hunt", "Roshi-2", "--cap", "-3"],
        ["fuzz", "--runs", "-1"],
        ["fuzz", "--ops", "-2"],
        ["fuzz", "--show", "-1"],
        ["table1", "--cap", "0"],
        ["table2", "--cap", "0"],
        ["fig8a", "--cap", "0"],
        ["fuzz", "--cap", "0"],
        ["profile", "Roshi-1", "--cap", "0"],
        ["export", "Roshi-1", "out.dl", "--cap", "0"],
        ["faults", "--cap", "0"],
    ], ids=["hunt-timeout-0", "faults-timeout-0", "workers-0-journal",
            "workers-negative", "sanitize-cap-0", "hunt-cap-negative",
            "fuzz-runs-negative", "fuzz-ops-negative", "fuzz-show-negative",
            "table1-cap-0", "table2-cap-0", "fig8a-cap-0", "fuzz-cap-0",
            "profile-cap-0", "export-cap-0", "faults-cap-0"])
    def test_out_of_range_values_are_usage_errors(self, argv, capsys):
        """A non-positive watchdog, worker count, cap, run or op count, or a
        negative ``--show``, is refused at parse time (usage, exit 2), not
        by a traceback, a silent serial run or an empty sweep."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "Traceback" not in err

    def test_show_zero_is_accepted(self):
        assert build_parser().parse_args(["fuzz", "--show", "0"]).show == 0

    @pytest.mark.parametrize("argv, names", [
        (["hunt", "NoSuchBug"], "known: OrbitDB-1, "),
        (["profile", "NoSuchBug"], "known: OrbitDB-1, "),
        (["export", "NoSuchBug", "out.dl"], "known: OrbitDB-1, "),
        (["hunt", "Roshi-1", "--mode", "dfs", "--dpor"], "requires --mode erpi"),
        (["faults", "--mode", "rand", "--dpor"], "requires --mode erpi"),
        (["hunt", "Roshi-1", "--faults"], "needs one of: Roshi-CR, "),
        (["fuzz", "--defect", "bogus"], "known: no_conflict_resolution, "),
    ], ids=["hunt-unknown-bug", "profile-unknown-bug", "export-unknown-bug",
            "hunt-dpor-dfs", "faults-dpor-rand", "hunt-faults-without-plan",
            "fuzz-unknown-defect"])
    def test_user_errors_are_usage_errors(self, argv, names, capsys):
        """An unknown scenario or defect flag, ``--dpor`` outside the erpi
        mode and ``--faults`` on a scenario without a fault plan are usage
        errors (exit 2) with a one-line message that names the valid
        values, not a traceback with exit 1 ("not reproduced")."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "Traceback" not in captured.err
        message = captured.err.splitlines()[-1]
        assert " error: " in message
        assert names in message

    @pytest.mark.parametrize("argv", [
        ["hunt", "Roshi-1", "--mode", "dfs", "--dpor"],
        ["hunt", "Roshi-1", "--faults"],
    ], ids=["dpor-dfs", "faults-without-plan"])
    def test_two_argument_errors_print_the_command_usage(self, argv, capsys):
        """An error that spans two arguments prints the subcommand's usage
        and ``repro hunt: error:``, as every one-argument error does."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro hunt ")
        assert err.splitlines()[-1].startswith("repro hunt: error: ")


class TestCommands:
    def test_bugs_lists_all_twelve(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert "Roshi-1" in out and "Yorkie-2" in out
        assert out.count(" closed ") >= 9

    def test_hunt_reproduces(self, capsys):
        assert main(["hunt", "Roshi-2"]) == 0
        out = capsys.readouterr().out
        assert "reproduced after" in out

    def test_hunt_miss_returns_nonzero(self, capsys):
        assert main(["hunt", "Roshi-2", "--mode", "dfs", "--cap", "50"]) == 1
        assert "NOT reproduced" in capsys.readouterr().out

    def test_hunt_show_interleaving(self, capsys):
        main(["hunt", "Roshi-2", "--show-interleaving"])
        out = capsys.readouterr().out
        assert "sync_req" in out

    def test_motivating(self, capsys):
        assert main(["motivating"]) == 0
        out = capsys.readouterr().out
        assert "grouped units: 4" in out

    def test_fuzz_healthy(self, capsys):
        assert main(["fuzz", "--runs", "2", "--ops", "3", "--cap", "40"]) == 0
        assert "fuzzed workloads" in capsys.readouterr().out

    def test_fuzz_with_defect_finds_problems(self, capsys):
        code = main(
            [
                "fuzz",
                "--runs", "6",
                "--ops", "4",
                "--cap", "250",
                "--defect", "no_conflict_resolution",
            ]
        )
        assert code == 1
        assert "workloads with violations" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["profile", "Roshi-1", "--cap", "30"]) == 0
        out = capsys.readouterr().out
        assert "interleavings profiled: 30" in out
        assert "slowest interleavings" in out

    def test_table2_matches(self, capsys):
        assert main(["table2", "--cap", "600"]) == 0
        assert "matches the paper" in capsys.readouterr().out

    def test_refused_resume_exits_four(self, tmp_path, capsys):
        """A journal that refuses ``--resume`` is neither a repro (0) nor a
        clean miss (1): the CLI says why on stderr and exits 4."""
        path = str(tmp_path / "final.jsonl")
        argv = ["hunt", "Roshi-2", "--workers", "2", "--journal", path, "--cap", "50"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["hunt", "Roshi-2", "--resume", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "journal is final (hunt completed); nothing to resume" in err
        assert "Traceback" not in err

    def test_unwritable_journal_exits_four(self, tmp_path, capsys):
        """A ``--journal`` path that cannot be created is not a clean miss
        (1): the CLI says why on stderr and exits 4."""
        path = str(tmp_path / "no-such-dir" / "j.jsonl")
        assert main(["hunt", "Roshi-2", "--journal", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create journal ")
        assert "Traceback" not in err

    def test_unwritable_trace_exits_four(self, tmp_path, capsys):
        """A ``--trace`` path that cannot be written is found before the
        hunt runs: ``error: cannot write ...`` on stderr and exit 4, not a
        traceback and exit 1 after a hunt that reproduced the bug."""
        path = str(tmp_path / "no-such-dir" / "t.jsonl")
        assert main(["hunt", "Roshi-2", "--trace", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""  # the hunt never started
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in captured.err

    def test_unwritable_export_exits_four(self, tmp_path, capsys):
        path = str(tmp_path / "no-such-dir" / "out.dl")
        assert main(["export", "Roshi-1", path, "--cap", "50"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""  # the session never ran
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in captured.err

    def test_export_writes_datalog(self, tmp_path, capsys):
        out = tmp_path / "roshi1.dl"
        assert main(["export", "Roshi-1", str(out), "--cap", "50"]) == 0
        text = out.read_text()
        assert "interleaving(" in text
        assert "bad(Il)" in text
        from repro.datalog.parser import evaluate_text
        db = evaluate_text(text)
        assert db.size("explored") == 50


class TestSanitizeCli:
    def test_hunt_sanitize_flag_defaults(self):
        args = build_parser().parse_args(["hunt", "Roshi-2"])
        assert args.sanitize is False
        args = build_parser().parse_args(["hunt", "Roshi-2", "--sanitize"])
        assert args.sanitize is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hunt", "Roshi-2", "--sanitize", "0.25"])

    def test_hunt_with_sanitize_prints_report(self, capsys):
        assert main(["hunt", "Roshi-2", "--sanitize", "--dpor"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer: OK" in out

    @pytest.mark.parametrize("argv", [
        ["hunt", "Roshi-2", "--parallel-backend", "process"],
        ["hunt", "Roshi-2", "--prefix-cache"],
        ["hunt", "Roshi-2", "--memo"],
        ["profile", "Roshi-2", "--prefix-cache"],
        ["export", "Roshi-2", "out.dl", "--memo"],
        ["sanitize", "--rate", "0.5"],
        ["sanitize", "--prefix-cache"],
        ["faults", "--memo"],
        ["hunt", "Roshi-2", "--lease-ttl", "1.0"],
        ["hunt", "Roshi-2", "--heartbeat-interval", "0.1"],
        ["hunt", "Roshi-2", "--steal-margin", "8"],
        ["hunt", "Roshi-2", "--checkpoint-every", "16"],
        ["hunt", "Roshi-2", "--batch-size", "16"],
        ["hunt", "Roshi-2", "--max-releases", "0"],
        ["sanitize", "--sample-k", "3"],
    ])
    def test_removed_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_sanitize_sweep_is_clean(self, capsys):
        assert main(["sanitize", "--cap", "10"]) == 0
        out = capsys.readouterr().out
        assert "Verdict" in out
        assert "DIVERGED" not in out
        assert "all equivalence classes agree" in out


class TestObservabilityCli:
    def test_trace_flag_defaults(self):
        args = build_parser().parse_args(["hunt", "Roshi-2"])
        assert args.trace is None
        assert args.metrics is False
        args = build_parser().parse_args(["hunt", "Roshi-2", "--trace"])
        assert args.trace == "erpi-trace.jsonl"
        args = build_parser().parse_args(
            ["hunt", "Roshi-2", "--trace", "custom.jsonl"]
        )
        assert args.trace == "custom.jsonl"

    def test_hunt_with_trace_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import parse_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["hunt", "Roshi-2", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "metrics:" in out  # --trace implies --metrics
        assert "interleavings.replayed" in out
        events = parse_jsonl(path.read_text())
        assert events
        assert {"explore", "generate", "replay"} <= {e["name"] for e in events}

    def test_hunt_with_metrics_only(self, capsys):
        assert main(["hunt", "Roshi-2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "replay.duration_us" in out
        assert "trace:" not in out
