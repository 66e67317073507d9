"""End-to-end ER-pi benchmark on the product hunt path.

Usage, from the repository root::

    python benchmarks/e2e/run.py [--seed N] [--smoke]        # all workloads
    python benchmarks/e2e/run.py --workload W [--seed N] [--seconds S | --passes N] [--trace 0|1]
    python benchmarks/e2e/run.py --compare A.json B.json

With no ``--workload`` the suite runs every workload: 15 timed passes each,
split into chunks of 5 that run in fresh subprocesses, interleaved across
workloads, then one traced subprocess per workload.  It prints every metric
with its unit, writes ``results/suite.json`` and appends one line to
``trajectory.jsonl`` (both beside this file).

With ``--workload`` one workload runs in this process: a warm-up pass,
then timed passes until ``--seconds`` (or ``--passes``) is used up.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones (traced passes alternate with untraced
ones, whose wall time gives ``trace.overhead``).  End-to-end times are
scaled to a reference host speed (see ``measure``); per-layer times are not.

Every hunt is checked (see ``measure.check_hunt``); the exit code is 1 when
any hunt failed and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
TRAJECTORY = HERE / "trajectory.jsonl"

#: Suite shape: timed passes per workload, and how many fresh subprocesses
#: (chunks) they are split over; traced passes per workload.
SUITE_PASSES = 15
SUITE_CHUNKS = 3
SUITE_TRACED = 2
MIN_PASSES = 3


def _require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------- one workload


def run_workload(args: argparse.Namespace) -> int:
    import measure
    from tracing import LayerTrace, layer_metrics
    from workloads import hunts_for, table1_reference

    specs = hunts_for(args.workload, smoke=args.smoke)
    rng = random.Random(args.seed)
    # A suite chunk (--samples-out) ships its verdict digests to the suite,
    # which checks them against one serial reference for all chunks.
    deferred = args.samples_out is not None
    references = {
        spec.label: measure.serial_verdict_digest(spec, args.seed)
        for spec in specs
        if spec.process_backed and not deferred
    }
    trace = None
    if args.trace:
        from repro.bugs.registry import scenario

        trace = LayerTrace()
        scenario_classes = {type(scenario(spec.scenario)) for spec in specs}
        ops = measure.subject_ops(specs)
    attempted = 0
    failures: List[str] = []
    digests: Dict[str, str] = {}
    replays: Dict[str, int] = {}

    def one_pass(pass_id: int, traced: bool) -> List[measure.HuntRecord]:
        nonlocal attempted
        if traced:
            trace.clear_spans()
            trace.install(scenario_classes, ops)
        try:
            ran = measure.run_pass(
                specs, args.seed, rng, trace if traced else None, pass_id,
                calibrate=not traced,
            )
        finally:
            if traced:
                trace.uninstall()
        for spec, record, result in ran:
            attempted += 1
            failure = measure.check_hunt(
                spec, record, result, references.get(spec.label)
            )
            if failure is not None:
                failures.append(f"pass {pass_id} {spec.label}: {failure}")
            if result is not None:
                # Traced and untraced passes must reach the same verdicts.
                if replays.setdefault(spec.label, result.explored) != result.explored:
                    failures.append(
                        f"pass {pass_id} {spec.label}: {result.explored} replays, "
                        f"earlier passes {replays[spec.label]}"
                    )
                if spec.process_backed and result.verdicts is not None:
                    digests[spec.label] = measure.verdict_digest(result.verdicts)
        return [record for _, record, _ in ran]

    one_pass(0, traced=False)  # warm-up: imports, allocator, lazy set-up
    timed: List[List[measure.HuntRecord]] = []
    traced_passes: List[List[measure.HuntRecord]] = []
    coverages: List[float] = []
    started = time.perf_counter()
    while True:
        timed.append(one_pass(len(timed) + 1, traced=False))
        if trace is not None:
            records = one_pass(len(timed), traced=True)
            traced_passes.append(records)
            coverages.append(
                trace.hunt_coverage(sum(record.elapsed_s for record in records))
            )
        if args.passes is not None:
            if len(timed) >= args.passes:
                break
            continue
        # Start no pass that would end past --seconds at the mean pass time
        # so far, so a slow spell on the host does not lengthen the run.
        spent = time.perf_counter() - started
        if len(timed) >= MIN_PASSES and spent * (len(timed) + 1) / len(timed) > args.seconds:
            break

    forks = any(spec.process_backed for spec in specs)
    per_pass = [measure.pass_metrics(records) for records in timed]
    raw_wall = [sum(record.wall_s for record in records) for records in timed]
    speed = statistics.median(record.scale for records in timed for record in records)
    if trace is not None:
        RESULTS.mkdir(exist_ok=True)
        trace.write_spans(str(RESULTS / f"trace-{args.workload}.jsonl"))
        metrics = layer_metrics(trace, traced_passes, raw_wall, coverages)
        trace.tally.close()
    else:
        metrics = {
            name: (statistics.median(p[name] for p in per_pass), measure.END_TO_END_UNITS[name])
            for name in per_pass[0]
        }
        metrics["peak_rss_mb"] = (measure.peak_rss_mb(forks), "MB")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload:7s} host speed {speed:.3f} x reference; "
          f"unscaled wall_s median {statistics.median(raw_wall):.6g} s")
    for spec in specs:
        reference = table1_reference(spec)
        if reference is not None and spec.label in replays:
            print(f"{args.workload:7s} replays-to-reproduce {spec.label:12s} "
                  f"{replays[spec.label]:6d} (Table 1: {reference})")
    for failure in failures:
        print(f"FAILED {args.workload} {failure}")

    if deferred:
        with open(args.samples_out, "w") as handle:
            json.dump(
                {
                    "passes": per_pass,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                    "attempted": attempted,
                    "failures": failures,
                    "verdicts": digests,
                    "replays": replays,
                },
                handle,
            )
    elif not args.smoke:
        append_trajectory(
            {
                "workload": args.workload,
                "trace": bool(args.trace),
                "seed": args.seed,
                "metrics": {name: value for name, (value, _) in metrics.items()},
                "failed": len(failures),
            }
        )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if failures else 0


# ---------------------------------------------------------------- the suite


def _chunk(workload: str, seed: int, passes: int, trace: bool, smoke: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix=f"chunk-{workload}-", suffix=".json", dir=RESULTS)
    os.close(fd)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--passes", str(passes),
        "--trace", "1" if trace else "0", "--samples-out", path,
    ]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode not in (0, 1):
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"{workload} chunk exited with {done.returncode}")
        with open(path) as handle:
            return json.load(handle)
    finally:
        os.unlink(path)


def run_suite(args: argparse.Namespace) -> int:
    import measure
    from workloads import WORKLOADS, hunts_for, table1_reference

    rng = random.Random(args.seed)
    names = list(WORKLOADS)
    chunks = 1 if args.smoke else SUITE_CHUNKS
    per_chunk = 1 if args.smoke else SUITE_PASSES // SUITE_CHUNKS
    traced_passes = 1 if args.smoke else SUITE_TRACED
    references = {
        spec.label: measure.serial_verdict_digest(spec, args.seed)
        for name in names
        for spec in hunts_for(name, smoke=args.smoke)
        if spec.process_backed
    }
    started = time.perf_counter()
    timed: Dict[str, List[dict]] = {name: [] for name in names}
    for round_no in range(chunks):
        order = names[:]
        rng.shuffle(order)
        for name in order:
            timed[name].append(
                _chunk(name, args.seed + round_no, per_chunk, False, args.smoke)
            )
    traced = {
        name: _chunk(name, args.seed, traced_passes, True, args.smoke) for name in names
    }

    report: Dict[str, dict] = {}
    failed_total = 0
    for name in names:
        runs = timed[name] + [traced[name]]
        failures = [failure for run in runs for failure in run["failures"]]
        for run in runs:
            for label, digest in run["verdicts"].items():
                if digest != references[label]:
                    failures.append(f"{label}: verdict map differs from the serial run")
            for label, count in run["replays"].items():
                if count != runs[0]["replays"].get(label):
                    failures.append(f"{label}: replay counts differ between subprocesses")
        attempted = sum(run["attempted"] for run in runs)
        passes = [p for run in timed[name] for p in run["passes"]]
        metrics = {}
        for metric in ("wall_s", "interleavings_per_s", "setup_s"):
            q1, median, q3 = measure.quartiles([p[metric] for p in passes])
            metrics[metric] = {"median": median, "q1": q1, "q3": q3, "n": len(passes)}
        # The peak over the chunk subprocesses (reported under "median" so
        # every metric compares alike); the quartiles show the chunk spread.
        rss = [run["metrics"]["peak_rss_mb"]["value"] for run in timed[name]]
        q1, _, q3 = measure.quartiles(rss)
        metrics["peak_rss_mb"] = {"median": max(rss), "q1": q1, "q3": q3, "n": len(rss)}
        metrics["failed_share"] = {
            "median": len(failures) / attempted, "q1": 0.0, "q3": 0.0, "n": attempted,
        }
        failed_total += len(failures)
        report[name] = {
            "metrics": metrics,
            "layers": traced[name]["metrics"],
            "failures": failures,
            "replays": traced[name]["replays"],
        }

    units = dict(measure.END_TO_END_UNITS, failed_share="fraction")
    print(f"{'workload':8s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s} unit")
    for name in names:
        for metric, stats in report[name]["metrics"].items():
            print(f"{name:8s} {metric:34s} {stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['n']:4d} {units[metric]}")
    for name in names:
        for metric, entry in report[name]["layers"].items():
            print(f"{name:8s} {metric:34s} {entry['value']:12.6g} {'':12s} {'':12s} {'':4s} {entry['unit']}")
    for name in names:
        for spec in hunts_for(name, smoke=args.smoke):
            reference = table1_reference(spec)
            if reference is not None:
                print(f"{name:8s} replays-to-reproduce {spec.label:12s} "
                      f"{report[name]['replays'].get(spec.label, -1):6d} (Table 1: {reference})")
        for failure in report[name]["failures"]:
            print(f"FAILED {name} {failure}")
    elapsed = time.perf_counter() - started
    print(f"suite finished in {elapsed:.1f} s")

    out = Path(args.out) if args.out else RESULTS / ("smoke.json" if args.smoke else "suite.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    summary = {"seed": args.seed, "smoke": args.smoke, "workloads": report}
    out.write_text(json.dumps(summary, indent=1) + "\n")
    if not args.smoke:
        append_trajectory({
            "suite": True,
            "seed": args.seed,
            "metrics": {
                name: {
                    **{metric: stats["median"] for metric, stats in report[name]["metrics"].items()},
                    **{metric: entry["value"] for metric, entry in report[name]["layers"].items()},
                }
                for name in names
            },
            "failed": failed_total,
        })
    return 1 if failed_total else 0


# ------------------------------------------------------------------ compare


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: both medians and quartiles, then a verdict.

    ``unresolved`` means a side's quartile spread is wider than the
    metric's bound, so the medians cannot be told apart by this data.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    print(f"{'workload':8s} {'metric':20s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} verdict")
    for name in a:
        if name not in b:
            continue
        for metric, sa in a[name]["metrics"].items():
            sb = b[name]["metrics"].get(metric)
            if sb is None:
                continue
            if metric == "failed_share":
                verdict = "worse" if sb["median"] > sa["median"] else (
                    "better" if sb["median"] < sa["median"] else "unchanged")
            else:
                better, bound = bounds[metric]
                spread = max(
                    (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                    for s in (sa, sb)
                )
                change = (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
                gain = -change if better == "lower" else change
                if spread > bound:
                    verdict = "unresolved"
                elif gain < -bound:
                    verdict = "worse"
                elif gain > spread:
                    verdict = "better"
                else:
                    verdict = "unchanged"
            print(
                f"{name:8s} {metric:20s} "
                f"{sa['median']:12.6g} [{sa['q1']:9.4g}, {sa['q3']:9.4g}] "
                f"{sb['median']:12.6g} [{sb['q1']:9.4g}, {sb['q3']:9.4g}] {verdict}"
            )
    return 0


# --------------------------------------------------------------- trajectory


def _git_state() -> Dict[str, object]:
    """The commit and dirty flag, when this checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "dirty": None}
    return {"git_sha": sha or None, "dirty": bool(status.strip())}


def append_trajectory(entry: dict) -> None:
    """Append one JSON line; the file is only ever appended to."""
    from workloads import NPROC

    line = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **_git_state(),
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **entry,
    }
    with open(TRAJECTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# --------------------------------------------------------------------- main


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles hunt and chunk order; passed to hunt(seed=)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure one workload for this long (default 10)")
    parser.add_argument("--passes", type=int,
                        help="measure exactly this many passes instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass per workload, exhaustive sweeps at cap/10")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two suite result files")
    parser.add_argument("--out", help="suite result file (default results/suite.json)")
    parser.add_argument("--samples-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_sources()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        if args.smoke and args.passes is None:
            args.passes = 1
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
