"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bugs``                       — list the Table-1 bug scenarios.
* ``hunt <bug>``                 — hunt one bug with a chosen mode.
* ``table1`` / ``table2``        — regenerate the paper's tables.
* ``fig8a``                      — the full three-mode sweep (slow).
* ``motivating``                 — the town-reports pruning arithmetic.
* ``fuzz``                       — fuzz the CRDT-collection subject.
* ``profile <bug>``              — resource-profile a bug workload.
* ``export <bug> <file>``        — dump a session as a Datalog program.
* ``sanitize``                   — differential soundness sweep over all bugs.
* ``faults``                     — hunt the seeded crash–recovery scenarios.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence


def _cmd_bugs(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.bugs import all_scenarios

    rows = [
        [sc.name, sc.issue, sc.expected_events, sc.status, sc.reason, sc.description]
        for sc in all_scenarios()
    ]
    print(
        format_table(
            ["Bug", "Issue#", "#Events", "Status", "Reason", "Description"], rows
        )
    )
    return 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    if args.trace is None:
        return _run_hunt(args, None)
    trace_file = _open_output(args.trace)
    if trace_file is None:
        return 4
    with trace_file:
        return _run_hunt(args, trace_file)


def _run_hunt(args: argparse.Namespace, trace_file) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bugs import scenario
    from repro.core.journal import JournalError

    sc = scenario(args.bug)
    recorded = record_scenario(sc)
    extras = []
    if args.workers > 1:
        extras.append(f"{args.workers} process workers")
    if args.dpor:
        extras.append("dpor")
    if args.sanitize:
        extras.append("sanitize")
    if args.faults:
        extras.append(f"faults: {sc.fault_plan().describe()}")
    if args.replay_timeout is not None:
        extras.append(f"watchdog {args.replay_timeout:g}s")
    if args.journal is not None:
        extras.append(f"journal -> {args.journal}")
    if args.resume is not None:
        extras.append(f"resume <- {args.resume}")
    tracer = None
    metrics = None
    progress = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
        extras.append(f"trace -> {args.trace}")
    if args.metrics or args.trace is not None:
        from repro.obs import MetricsRegistry, ProgressLine

        metrics = MetricsRegistry()
        if sys.stderr.isatty():
            progress = ProgressLine()
    extra_text = f" [{', '.join(extras)}]" if extras else ""
    print(
        f"{sc.name} (issue #{sc.issue}): {sc.expected_events} events recorded; "
        f"hunting with {args.mode} (cap {args.cap:,}){extra_text}..."
    )
    try:
        result = hunt(
            recorded,
            args.mode,
            cap=args.cap,
            seed=args.seed,
            workers=args.workers,
            dpor=args.dpor,
            sanitize=args.sanitize,
            faults=args.faults,
            replay_timeout_s=args.replay_timeout,
            tracer=tracer,
            metrics=metrics,
            progress=progress,
            journal=args.journal,
            resume=args.resume,
        )
    except JournalError as exc:
        # --journal could not be created, or the journal refused --resume:
        # final, corrupt, or a different hunt.
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if tracer is not None:
        tracer.write_jsonl(trace_file)
        print(
            f"trace: {len(tracer.spans)} span(s) "
            f"({', '.join(sorted(tracer.kinds()))}) -> {args.trace}"
        )
    if metrics is not None:
        print(metrics.summary())
    if args.dpor:
        print(
            "semantic pruning: dpor skipped "
            f"{result.pruning_stats.get('dpor', 0):,}"
        )
    coordination = getattr(result, "coordination", None)
    if coordination is not None and (
        coordination["journal"]
        or coordination["releases"]
        or coordination["abandoned_shards"]
    ):
        parts = [f"hunt {coordination['hunt_id']}"]
        if coordination["resumed_commits"]:
            parts.append(f"resumed {coordination['resumed_commits']} commit(s)")
        if coordination["releases"]:
            parts.append(f"re-leased {coordination['releases']} shard(s)")
        if coordination["abandoned_shards"]:
            parts.append(
                f"quarantined shard(s) {coordination['abandoned_shards']}"
            )
        print("coordination: " + "; ".join(parts))
    # Exit-code contract: reproduced -> 0 (even when the hunt had to recover
    # from worker crashes along the way); sanitizer divergence -> 2;
    # unrecoverable crash without a repro -> 3; clean "not reproduced" -> 1;
    # a --trace path that cannot be written (_cmd_hunt), a --journal that
    # cannot be created or a journal that refuses --resume -> 4 (above); a
    # usage error -> 2, from argparse.
    status = 1
    if result.found:
        print(
            f"reproduced after {result.explored:,} interleavings "
            f"in {result.elapsed_s:.2f}s"
        )
        print(f"violation: {result.violating.violations[0]}")
        if args.show_interleaving:
            for event in result.violating.interleaving:
                # A hunt resumed past its violation only knows event ids.
                print(f"  {event.describe() if hasattr(event, 'describe') else event}")
        status = 0
    else:
        print(f"NOT reproduced within {result.explored:,} interleavings")
    if result.crashed:
        print(f"exploration crashed: {result.crash_reason}")
        if not result.found:
            status = 3
    if result.quarantined:
        print(f"{len(result.quarantined)} replay(s) quarantined:")
        for q in result.quarantined[:3]:
            print(f"  {q.describe()}")
    if result.sanitizer is not None:
        print(result.sanitizer.summary())
        if not result.sanitizer.ok:
            return 2
    return status


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import format_table
    from repro.bugs import all_scenarios

    rows = []
    for sc in all_scenarios():
        result = hunt(record_scenario(sc), "erpi", cap=args.cap)
        rows.append(
            [
                sc.name,
                sc.issue,
                sc.expected_events,
                sc.status,
                sc.reason,
                result.explored if result.found else "CAP",
            ]
        )
    print(
        format_table(
            ["BugName", "Issue#", "#Events", "Status", "Reason", "ER-pi replays"],
            rows,
        )
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.misconceptions import compute_matrix, format_matrix, matches_paper

    results = compute_matrix(cap=args.cap)
    print(format_matrix(results))
    mismatches = matches_paper(results)
    if mismatches:
        print("\ncells disagreeing with the paper:")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        return 1
    print("\nmatches the paper's Table 2")
    return 0


def _cmd_fig8a(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import aggregate_ratios, format_fig8a_row
    from repro.bugs import all_scenarios

    per_bug = {}
    for sc in all_scenarios():
        results = {}
        for mode in ("erpi", "dfs", "rand"):
            results[mode] = hunt(record_scenario(sc), mode, cap=args.cap)
        per_bug[sc.name] = results
        print(format_fig8a_row(sc.name, results))
    print()
    print(aggregate_ratios(per_bug).summary())
    return 0


def _cmd_motivating(args: argparse.Namespace) -> int:
    from repro.core import ErPi, GroupConstraint, assert_read_equals
    from repro.net import Cluster
    from repro.rdl import CRDTLibrary

    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    erpi = ErPi(cluster, replica_scope="A", read_scoped=True)
    erpi.start()
    a, b = cluster.rdl("A"), cluster.rdl("B")
    a.set_add("problems", "otb")
    cluster.sync("A", "B")
    b.set_add("problems", "ph")
    cluster.sync("B", "A")
    b.set_remove("problems", "otb")
    cluster.sync("B", "A")
    a.set_value("problems")
    erpi.add_constraint(
        GroupConstraint(pairs=(("e1", "e2"), ("e4", "e5"), ("e7", "e8")))
    )
    report = erpi.end(assertions=[assert_read_equals("e10", frozenset({"ph"}))])
    print(report.summary())
    return 0 if report.violated else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.fuzzing import WorkloadFuzzer
    from repro.net import Cluster
    from repro.rdl import CRDTLibrary

    defects = set(args.defect or [])

    def factory() -> Cluster:
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid, defects=set(defects)))
        return cluster

    fuzzer = WorkloadFuzzer(factory, seed=args.seed)
    report = fuzzer.run(
        runs=args.runs, ops_per_run=args.ops, cap_per_run=args.cap
    )
    print(report.summary())
    for finding in report.findings[: args.show]:
        print(f"  {finding.describe()}")
    return 1 if report.findings else 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.bugs import scenario
    from repro.core import ErPi
    from repro.core.constraints import GroupConstraint

    output = _open_output(args.output)
    if output is None:
        return 4
    with output:
        sc = scenario(args.bug)
        cluster = sc.build_cluster()
        erpi = ErPi(cluster, persist=True, dpor=args.dpor)
        erpi.start()
        sc.workload(cluster)
        for pair in sc.spec_groups():
            erpi.add_constraint(GroupConstraint(pairs=(tuple(pair),)))
        report = erpi.end(assertions=sc.make_assertions(), cap=args.cap)
        text = erpi.export_datalog()
        output.write(text)
    print(
        f"exported {report.explored} explored interleavings "
        f"({len(text.encode()):,} bytes of Datalog) to {args.output}"
    )
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import format_table
    from repro.bugs import all_scenarios, fault_scenarios

    targets = [(sc, False) for sc in all_scenarios()]
    if args.faults:
        # Fault-bearing coverage: the crash-recovery scenarios with their
        # fault plans compiled in, explored to the cap (no early exit on the
        # seeded violation) so the pruners' fault-bearing classes actually
        # accumulate members for the differential check.
        targets.extend((sc, True) for sc in fault_scenarios())
    rows = []
    total_divergences = 0
    for sc, with_faults in targets:
        recorded = record_scenario(sc)
        result = hunt(
            recorded,
            "erpi",
            cap=args.cap,
            seed=args.seed,
            sanitize=True,
            faults=with_faults,
            stop_on_violation=not with_faults,
        )
        report = result.sanitizer
        total_divergences += len(report.divergences)
        rows.append(
            [
                sc.name + ("+faults" if with_faults else ""),
                result.explored,
                report.classes_checked,
                report.members_checked,
                len(report.divergences),
                "OK" if report.ok else "DIVERGED",
            ]
        )
    print(
        format_table(
            ["Bug", "Replays", "Classes", "Members", "Div", "Verdict"],
            rows,
        )
    )
    if total_divergences:
        print(f"\n{total_divergences} divergence(s): pruning is UNSOUND")
        return 1
    print("\nall equivalence classes agree")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import format_table
    from repro.bugs import fault_scenarios

    rows = []
    missed = 0
    for sc in fault_scenarios():
        result = hunt(
            record_scenario(sc),
            args.mode,
            cap=args.cap,
            seed=args.seed,
            dpor=args.dpor,
            faults=True,
            replay_timeout_s=args.replay_timeout,
        )
        if not result.found:
            missed += 1
        rows.append(
            [
                sc.name,
                sc.issue,
                sc.fault_plan().describe(),
                result.explored if result.found else "CAP",
                len(result.quarantined),
                "FOUND" if result.found else "missed",
            ]
        )
    print(
        format_table(
            ["Bug", "Issue#", "Fault plan", "Replays", "Quar", "Verdict"], rows
        )
    )
    if missed:
        print(f"\n{missed} crash-recovery scenario(s) NOT reproduced within the cap")
        return 1
    print("\nall crash-recovery scenarios reproduced")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bugs import scenario
    from repro.core.profiling import ResourceProfiler

    sc = scenario(args.bug)
    cluster = sc.build_cluster()
    profiler = ResourceProfiler(cluster, spec_groups=sc.spec_groups())
    profiler.start()
    sc.workload(cluster)
    report = profiler.end(cap=args.cap)
    print(f"profiling {sc.name} across {report.replayed} interleavings:")
    print(report.summary())
    print("\nslowest interleavings:")
    for profile in report.worst("duration_s", top=3):
        print(
            f"  #{profile.index}: {profile.duration_s * 1e3:.2f} ms, "
            f"{profile.failed_ops} failed ops, {profile.state_bytes} B state"
        )
    return 0


def _open_output(path: str):
    """Open ``path`` for writing before any work is done, so an unwritable
    path fails fast; None, after saying why on stderr, when it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return None


def _positive(kind, zero: bool = False):
    """An argparse type: a finite ``kind`` (int or float) above zero, or
    at least zero with ``zero``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
            raise argparse.ArgumentTypeError(
                f"expected a {'non-negative' if zero else 'positive'} "
                f"{kind.__name__}, got {text!r}"
            )
        return value

    return parse


def _bug_name(text: str) -> str:
    """An argparse type: the name of a registered bug scenario."""
    from repro.bugs import scenario

    try:
        scenario(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _defect_flag(text: str) -> str:
    """An argparse type: a defect flag the fuzzed CRDT library understands."""
    from repro.rdl import CRDTLibrary

    known = sorted(CRDTLibrary.KNOWN_DEFECTS)
    if text not in known:
        raise argparse.ArgumentTypeError(
            f"unknown defect flag {text!r}; known: {', '.join(known)}"
        )
    return text


def _refuse_conflicts(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Usage errors that span two arguments: ``--dpor`` outside the erpi
    mode, and ``hunt --faults`` on a scenario that declares no fault plan."""
    if getattr(args, "dpor", False) and getattr(args, "mode", "erpi") != "erpi":
        parser.error(f"--dpor requires --mode erpi, not {args.mode!r}")
    if args.command == "hunt" and args.faults:
        from repro.bugs import fault_scenario_names, scenario

        plan = scenario(args.bug).fault_plan()
        if plan is None or plan.is_empty():
            parser.error(
                f"{args.bug} declares no fault plan; --faults needs one of: "
                f"{', '.join(fault_scenario_names())}"
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ER-pi: exhaustive interleaving replay (Middleware 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's own parser: errors spanning two arguments print its usage.
    parser.commands = sub.choices  # type: ignore[attr-defined]

    sub.add_parser("bugs", help="list the Table-1 bug scenarios")

    hunt = sub.add_parser("hunt", help="hunt one bug scenario")
    hunt.add_argument("bug", type=_bug_name, help="scenario name, e.g. Roshi-2")
    hunt.add_argument("--mode", choices=("erpi", "dfs", "rand"), default="erpi")
    hunt.add_argument("--cap", type=_positive(int), default=10_000)
    hunt.add_argument("--seed", type=int, default=0)
    hunt.add_argument("--show-interleaving", action="store_true")
    hunt.add_argument(
        "--workers",
        type=_positive(int),
        default=1,
        help="shard candidate replays across N shared-nothing worker "
        "processes (deterministic)",
    )
    hunt.add_argument(
        "--dpor",
        action="store_true",
        help="sleep-set/happens-before pruning: skip permutations that only "
        "reorder independent events (per-replica read/write footprints); "
        "erpi mode only",
    )
    hunt.add_argument(
        "--sanitize",
        action="store_true",
        help="differentially replay sampled pruning classes; exit 2 on "
        "divergence",
    )
    hunt.add_argument(
        "--faults",
        action="store_true",
        help="compile the scenario's fault plan into the schedule and "
        "interleave the crash/recover events exhaustively (scenarios with a "
        "fault plan only: see the faults command)",
    )
    hunt.add_argument(
        "--replay-timeout",
        type=_positive(float),
        default=None,
        metavar="SECONDS",
        help="per-replay wall-clock watchdog; a replay exceeding it is "
        "quarantined instead of hanging the hunt",
    )
    hunt.add_argument(
        "--trace",
        nargs="?",
        const="erpi-trace.jsonl",
        default=None,
        metavar="PATH",
        help="record spans for every pipeline stage and write them as a "
        "Chrome-trace-compatible JSONL file (default: erpi-trace.jsonl); "
        "implies --metrics; the file is opened before the hunt, which exits "
        "4 when it cannot be written",
    )
    hunt.add_argument(
        "--metrics",
        action="store_true",
        help="count interleavings generated/pruned/replayed/quarantined, "
        "messages and replay latency; print the totals",
    )
    durability = hunt.add_mutually_exclusive_group()
    durability.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint every committed verdict to this journal, so a "
        "killed hunt can --resume (the hunt runs on the process pool, with "
        "one worker unless --workers says more); exits 4 when the journal "
        "cannot be created",
    )
    durability.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume a previously killed hunt from its journal: "
        "committed verdicts are replayed from the checkpoint, workers skip "
        "past them, and the final verdict map matches an uninterrupted run; "
        "exits 4 when the journal is final, corrupt or pins a different "
        "hunt configuration",
    )

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--cap", type=_positive(int), default=10_000)

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--cap", type=_positive(int), default=600)

    fig8a = sub.add_parser("fig8a", help="the full Figure-8a sweep (slow)")
    fig8a.add_argument("--cap", type=_positive(int), default=10_000)

    sub.add_parser("motivating", help="the town-reports motivating example")

    fuzz = sub.add_parser("fuzz", help="fuzz the CRDT-collection subject")
    fuzz.add_argument("--runs", type=_positive(int), default=10)
    fuzz.add_argument("--ops", type=_positive(int), default=5)
    fuzz.add_argument("--cap", type=_positive(int), default=200)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--show",
        type=_positive(int, zero=True),
        default=3,
        help="print the first N findings",
    )
    fuzz.add_argument(
        "--defect",
        action="append",
        type=_defect_flag,
        help="seed a library defect flag (repeatable), e.g. no_conflict_resolution",
    )

    profile = sub.add_parser("profile", help="resource-profile a bug workload")
    profile.add_argument("bug", type=_bug_name)
    profile.add_argument("--cap", type=_positive(int), default=300)

    export = sub.add_parser(
        "export", help="export a bug workload's session as a Datalog program"
    )
    export.add_argument("bug", type=_bug_name)
    export.add_argument(
        "output",
        help="the Datalog file to write; it is opened before the session "
        "runs, and the command exits 4 when it cannot be written",
    )
    export.add_argument("--cap", type=_positive(int), default=200)
    export.add_argument(
        "--dpor",
        action="store_true",
        help="arm sleep-set pruning; prunes carry footprint(il, event, mode, "
        "key) facts",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="differential soundness sweep: sample every pruner class "
        "across all bug scenarios",
    )
    sanitize.add_argument("--cap", type=_positive(int), default=200)
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--faults",
        action="store_true",
        help="also sweep the crash-recovery scenarios with their fault "
        "plans compiled in (covers fault-bearing equivalence classes)",
    )

    faults = sub.add_parser(
        "faults",
        help="hunt every seeded crash-recovery scenario with its fault plan",
    )
    faults.add_argument("--mode", choices=("erpi", "dfs", "rand"), default="erpi")
    faults.add_argument("--cap", type=_positive(int), default=10_000)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--dpor",
        action="store_true",
        help="enable sleep-set pruning (fault events are barriers: nothing "
        "commutes across a crash, recover or partition); erpi mode only",
    )
    faults.add_argument(
        "--replay-timeout",
        type=_positive(float),
        default=30.0,
        metavar="SECONDS",
        help="per-replay watchdog (default 30s); quarantines hung replays",
    )

    return parser


_COMMANDS = {
    "bugs": _cmd_bugs,
    "hunt": _cmd_hunt,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig8a": _cmd_fig8a,
    "motivating": _cmd_motivating,
    "fuzz": _cmd_fuzz,
    "profile": _cmd_profile,
    "export": _cmd_export,
    "sanitize": _cmd_sanitize,
    "faults": _cmd_faults,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _refuse_conflicts(parser.commands[args.command], args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
