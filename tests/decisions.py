"""The decision record: one committed manifest of every decision output.

``tests/decisions.json`` pins what the reproduction decides, never how fast:

* one row per hunt configuration of every scenario: ``found``, the replay
  count, the prunes per pruner, the quarantine count, ``crashed``, the
  witness's event ids and a 16-hex SHA-256 prefix of the ordered verdict
  map (plus the sanitizer's classes, members, fresh replays and
  divergences on sanitized rows);
* the counts the paper's tables and figures report, computed by the
  benches' own helpers: Table 2, the motivating example, Fig. 9, Fig. 10,
  the scalability sweep and Fig. 8a's aggregates.

Run from the repository root::

    PYTHONPATH=src python -m tests.decisions          # recompute and compare
    PYTHONPATH=src python -m tests.decisions --write  # rewrite the record

The check recomputes every row, prints the first row that differs from
the manifest (with both values), checks the relations between rows (a
2-worker or watchdog hunt equals its serial twin, DPOR never replays more,
a resumed hunt commits the uninterrupted verdict map, no sanitizer
divergence) and that EXPERIMENTS.md's rendered counts are current, then
ends with ``REPLAY PARITY: TRUE`` (exit 0) or ``REPLAY PARITY: FALSE``
(exit 1).  ``--write`` rewrites the manifest and re-renders the
EXPERIMENTS.md blocks between ``<!-- decisions:NAME -->`` markers.  A
change that means to move a decision reruns ``--write`` in the same commit
and says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bench.harness import hunt, record_scenario
from repro.bugs import fault_scenario_names, scenario, scenario_names
from repro.core.errors import ResourceExhausted

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "decisions.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"

#: Fig. 8a's cap, and the Table-1 hunts' (``benchmarks/conftest.py``).
CAP = 10_000
#: The cap ``test_fixed_library_has_no_false_positives`` sweeps fixed builds to.
FIXED_CAP = 400
#: The cap ``test_fault_hunts.py`` sweeps fixed fault builds to.
FAULTS_FIXED_CAP = 700
#: The resumed hunt: swept to this cap, its journal cut after this many commits.
RESUME_CAP = 240
RESUME_KEEP = 40

Rows = Dict[str, dict]


# ------------------------------------------------------------------ hunts


def serial_hunt_with_verdicts(name, mode="erpi", fixed=False, **options):
    """A serial hunt plus the verdict map serial explorers do not report.

    The map is recorded through an instance-level ``engine.replay`` wrapper,
    keyed and valued as the process pool's ``result.verdicts``.  The
    sanitizer replays through ``replay_fresh``, so its replays stay out.
    """
    recorded = record_scenario(scenario(name), fixed=fixed)
    replay = recorded.engine.replay
    verdicts = {}

    def recording_replay(interleaving, assertions=()):
        key = "|".join(event.event_id for event in interleaving)
        try:
            outcome = replay(interleaving, assertions)
        except ResourceExhausted:
            raise
        except Exception:
            verdicts[key] = "quarantine"
            raise
        verdicts[key] = "violation" if outcome.violated else "ok"
        return outcome

    recorded.engine.replay = recording_replay
    return hunt(recorded, mode, **options), verdicts


def verdict_digest(verdicts) -> str:
    """A 16-hex SHA-256 prefix of the verdict map, in commit order."""
    payload = json.dumps(list(verdicts.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def hunt_row(result, verdicts) -> dict:
    witness = None
    if result.violating is not None:
        # A hunt resumed past its violation only knows the event ids.
        witness = [getattr(event, "event_id", event)
                   for event in result.violating.interleaving]
    row = {
        "found": result.found,
        "replays": result.explored,
        "pruned": dict(sorted(result.pruning_stats.items())),
        "quarantined": len(result.quarantined),
        "crashed": result.crashed,
        "witness": witness,
        "verdicts": verdict_digest(verdicts),
    }
    report = result.sanitizer
    if report is not None:
        row["sanitizer"] = {
            "classes": report.classes_checked,
            "members": report.members_checked,
            "fresh_replays": report.fresh_replays,
            "divergences": len(report.divergences),
        }
    return row


def run_hunt(name, workers=1, fixed=False, mode="erpi", **options):
    """One hunt and its ordered verdict map, serial or on the pool."""
    if workers == 1:
        return serial_hunt_with_verdicts(name, mode=mode, fixed=fixed, **options)
    result = hunt(record_scenario(scenario(name), fixed=fixed), mode,
                  workers=workers, **options)
    return result, result.verdicts


def row(name, **options) -> dict:
    return hunt_row(*run_hunt(name, **options))


def resumed_rows() -> Rows:
    """Roshi-1 swept on two workers with a journal, then the journal cut
    to its header and first commits (a killed parent) and resumed."""
    from tests.core.test_coordinator import truncate_journal

    options = dict(cap=RESUME_CAP, workers=2, stop_on_violation=False)
    rows = {}
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "hunt.jsonl")
        for label, journal in (("uninterrupted", {"journal": path}),
                               ("resumed", {"resume": path})):
            if label == "resumed":
                truncate_journal(path, RESUME_KEEP)
            result = hunt(record_scenario(scenario("Roshi-1")), "erpi",
                          **options, **journal)
            rows[f"resume/Roshi-1/{label}"] = {
                **hunt_row(result, result.verdicts),
                "resumed_commits": result.coordination["resumed_commits"],
            }
    return rows


def hunt_rows() -> Tuple[Rows, Dict[str, dict]]:
    """Every hunt row, plus the Fig. 8a results the aggregates read."""
    rows: Rows = {}
    fig8a: Dict[str, dict] = {}
    for name in scenario_names():
        fig8a[name] = {}
        for config, options in (
            ("serial", dict(cap=CAP)),
            ("workers2", dict(cap=CAP, workers=2)),
            ("dpor", dict(cap=CAP, dpor=True)),
            ("dpor+workers2", dict(cap=CAP, dpor=True, workers=2)),
            ("fixed", dict(cap=FIXED_CAP, fixed=True)),
            ("dfs", dict(cap=CAP, mode="dfs", seed=0)),
            ("rand", dict(cap=CAP, mode="rand", seed=0)),
        ):
            result, verdicts = run_hunt(name, **options)
            rows[f"hunt/{name}/{config}"] = hunt_row(result, verdicts)
            if config in ("serial", "dfs", "rand"):
                fig8a[name][options.get("mode", "erpi")] = result
    for name in fault_scenario_names():
        rows[f"hunt/{name}/faults"] = row(name, cap=CAP, faults=True)
        rows[f"hunt/{name}/faults+workers2"] = row(
            name, cap=CAP, faults=True, workers=2)
        rows[f"hunt/{name}/faults+fixed"] = row(
            name, cap=FAULTS_FIXED_CAP, faults=True, fixed=True)
    for name in ("OrbitDB-4", "ReplicaDB-2"):
        rows[f"hunt/{name}/watchdog"] = row(name, cap=CAP, replay_timeout_s=30)
    rows["hunt/OrbitDB-2/cap500"] = row(
        "OrbitDB-2", cap=500, stop_on_violation=False)
    rows["hunt/OrbitDB-2/cap500+dpor"] = row(
        "OrbitDB-2", cap=500, dpor=True, stop_on_violation=False)
    for name in ("OrbitDB-2", "Roshi-1"):
        rows[f"hunt/{name}/dpor+sanitize"] = row(
            name, cap=CAP, dpor=True, sanitize=True)
    # The `repro sanitize --cap 40 --faults` table.
    for name in scenario_names():
        rows[f"sanitize/{name}"] = row(name, cap=40, sanitize=True)
    for name in fault_scenario_names():
        rows[f"sanitize/{name}+faults"] = row(
            name, cap=40, sanitize=True, faults=True, stop_on_violation=False)
    rows.update(resumed_rows())
    return rows, fig8a


# ------------------------------------------------------------ paper counts


def paper_rows(fig8a) -> Rows:
    """The counts the paper-figure benches compute, through their helpers."""
    from benchmarks.bench_fig10_crash import RUNS, run_once
    from benchmarks.bench_fig9_pruning import pruning_contributions
    from benchmarks.bench_motivating import run_session
    from benchmarks.bench_scalability import NOISE_LEVELS
    from benchmarks.bench_scalability import hunt as scalability_hunt
    from benchmarks.bench_scalability import record as scalability_record
    from repro.bench.reporting import aggregate_ratios
    from repro.misconceptions import compute_matrix

    rows: Rows = {}
    # As bench_table2_misconceptions.py runs it.
    for (subject, number), result in compute_matrix(cap=600).items():
        rows[f"table2/{subject}/{number}"] = {
            "verdict": result.verdict, "replays": result.explored,
        }
    for label, scoped in (("read-scoped", True), ("unscoped", False)):
        report = run_session(read_scoped=scoped)
        rows[f"motivating/{label}"] = {
            "events": len(report.events),
            "raw_space": report.raw_space,
            "units": report.grouping.unit_count,
            "grouped_space": report.grouping.grouped_space,
            "replayed": report.explored,
            "violations": len({index for index, _ in report.violations}),
        }
    for name in scenario_names():
        _, stats = pruning_contributions(name)
        rows[f"fig9/{name}"] = dict(sorted(stats.items()))
    for run_index in range(RUNS):
        for mode in ("erpi", "dfs", "rand"):
            result = run_once(mode, seed=run_index)
            rows[f"fig10/{mode}/run{run_index + 1}"] = {
                "found": result.found, "crashed": result.crashed,
                "replays": result.explored,
            }
    for noise in NOISE_LEVELS:
        _, events = scalability_record(noise)
        for mode in ("erpi", "dfs", "rand"):
            result = scalability_hunt(noise, mode)
            rows[f"scalability/noise{noise}/{mode}"] = {
                "events": len(events), "found": result.found,
                "replays": result.explored,
            }
    ratios = aggregate_ratios(fig8a)
    rows["fig8a/aggregate"] = {
        "interleavings_vs_dfs": round(ratios.interleavings_vs_dfs, 1),
        "interleavings_vs_rand": round(ratios.interleavings_vs_rand, 1),
    }
    return rows


def compute() -> Rows:
    """Recompute every row of the record."""
    rows, fig8a = hunt_rows()
    rows.update(paper_rows(fig8a))
    return dict(sorted(rows.items()))


# ---------------------------------------------------------- the manifest


def serialize(rows: Rows) -> str:
    """One row per line, keys sorted: a moved decision is a one-line diff."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(rows[key], sort_keys=True)}"
        for key in sorted(rows)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load_manifest() -> Rows:
    return json.loads(MANIFEST.read_text())


@lru_cache(maxsize=None)
def _committed() -> Rows:
    return load_manifest()


def committed(key: str) -> dict:
    """Row ``key`` of the committed manifest: the one copy of each count
    the tests pin."""
    return _committed()[key]


def differences(manifest: Rows, rows: Rows) -> List[str]:
    """One line per row that differs, in key order, naming the first field
    that differs with both values."""
    found = []
    for key in sorted(set(manifest) | set(rows)):
        if key not in rows:
            found.append(f"{key}: in the manifest but not computed")
        elif key not in manifest:
            found.append(f"{key}: computed but not in the manifest")
        elif manifest[key] != rows[key]:
            was, now = manifest[key], rows[key]
            field = next(name for name in sorted(set(was) | set(now))
                         if was.get(name) != now.get(name))
            found.append(
                f"{key}.{field}: manifest {json.dumps(was.get(field))}, "
                f"computed {json.dumps(now.get(field))}"
            )
    return found


def broken_relations(rows: Rows) -> List[str]:
    """The relations between rows that must hold whatever the counts are."""
    broken = []

    def same(key, twin):
        if rows[key] != rows[twin]:
            broken.append(f"{key} differs from its serial twin {twin}")

    for key in rows:
        group, name, config = (key.split("/") + ["", ""])[:3]
        if group != "hunt":
            continue
        if config == "workers2":
            same(key, f"hunt/{name}/serial")
        elif config.endswith("+workers2"):
            same(key, f"hunt/{name}/{config[:-len('+workers2')]}")
        elif config == "watchdog":
            same(key, f"hunt/{name}/serial")
        elif config == "dpor":
            plain = rows[f"hunt/{name}/serial"]["replays"]
            if rows[key]["replays"] > plain:
                broken.append(f"{key} replays {rows[key]['replays']}, "
                              f"more than the plain hunt's {plain}")
    plain, pruned = rows["hunt/OrbitDB-2/cap500"], rows["hunt/OrbitDB-2/cap500+dpor"]
    if not pruned["replays"] < plain["replays"]:
        broken.append("hunt/OrbitDB-2/cap500+dpor does not replay strictly "
                      "fewer than hunt/OrbitDB-2/cap500")
    if not pruned["pruned"].get("dpor", 0) > 0:
        broken.append("hunt/OrbitDB-2/cap500+dpor prunes nothing with dpor")
    whole, resumed = rows["resume/Roshi-1/uninterrupted"], rows["resume/Roshi-1/resumed"]
    for field in ("verdicts", "replays"):
        if resumed[field] != whole[field]:
            broken.append(f"resume/Roshi-1/resumed.{field} differs from the "
                          "uninterrupted run's")
    if resumed["resumed_commits"] != RESUME_KEEP:
        broken.append(f"resume/Roshi-1/resumed resumed "
                      f"{resumed['resumed_commits']} commits, not {RESUME_KEEP}")
    for key, row in rows.items():
        if row.get("sanitizer", {}).get("divergences"):
            broken.append(f"{key}: {row['sanitizer']['divergences']} sanitizer "
                          "divergence(s)")
    return broken


# ---------------------------------------------------------- EXPERIMENTS.md


def _count(row) -> str:
    return f"{row['replays']:,}" if row["found"] else "**CAP**"


def _motivating(rows):
    scoped, unscoped = rows["motivating/read-scoped"], rows["motivating/unscoped"]
    return "\n".join([
        "| quantity | paper | measured |",
        "|---|---|---|",
        f"| raw interleavings | 5,040 (7 logical events) | "
        f"{scoped['raw_space']:,} (the same workload expressed as "
        f"{scoped['events']} raw events: each sync is a request/execute pair) |",
        f"| after Algorithm-1 grouping | 24 | {scoped['grouped_space']:,} "
        f"({scoped['units']} units) |",
        f"| finally replayed | 19 | **{scoped['replayed']:,}** "
        f"({unscoped['replayed']:,} without read scoping) |",
        f"| invariant violations found | yes (e.g. interleaving₂) | "
        f"{'yes' if scoped['violations'] else 'no'} ({scoped['violations']} of "
        f"{scoped['replayed']} replayed classes) |",
    ])


def _table1(rows):
    from repro.bugs import all_scenarios

    lines = [
        "| Bug | Issue# | #Events | Status | Reason | "
        "ER-π replays to reproduce (measured) |",
        "|---|---|---|---|---|---|",
    ]
    for sc in all_scenarios():
        reason = "—" if sc.reason == "-" else sc.reason
        lines.append(
            f"| {sc.name} | {sc.issue} | {sc.expected_events} | {sc.status} | "
            f"{reason} | {_count(rows[f'hunt/{sc.name}/serial'])} |"
        )
    return "\n".join(lines)


def _fig8a(rows):
    lines = ["| Bug | ER-π | DFS | Rand |", "|---|---|---|---|"]
    for name in scenario_names():
        cells = [_count(rows[f"hunt/{name}/{config}"])
                 for config in ("serial", "dfs", "rand")]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _fig8a_aggregate(rows):
    ratios = rows["fig8a/aggregate"]
    return (f"**{ratios['interleavings_vs_dfs']:.1f}× / "
            f"{ratios['interleavings_vs_rand']:.1f}×**")


def _fig9(rows):
    from benchmarks.bench_fig9_pruning import WINDOW

    suppressed = rows["fig9/Roshi-3"]["replica_specific"]
    return f"{suppressed:,} of the first {WINDOW:,} candidates suppressed"


def _fig10(rows):
    parts = []
    for mode, label in (("erpi", "ER-π"), ("dfs", "DFS"), ("rand", "Rand")):
        runs = [row for key, row in sorted(rows.items())
                if key.startswith(f"fig10/{mode}/")]
        replays = sorted({row["replays"] for row in runs})
        spread = (f"{replays[0]:,}" if len(replays) == 1
                  else f"{replays[0]:,}–{replays[-1]:,}")
        parts.append(
            f"{label} succeeds in {sum(row['found'] for row in runs)} of "
            f"{len(runs)} runs and crashes in "
            f"{sum(row['crashed'] for row in runs)} ({spread} replays a run)"
        )
    return "; ".join(parts) + "."


def _table2(rows):
    from repro.misconceptions import MISCONCEPTIONS, SUBJECTS
    from repro.misconceptions.detectors import DETECTED

    lines = ["| Subject | " + " | ".join(f"#{m}" for m in MISCONCEPTIONS) + " |",
             "|---" * (len(MISCONCEPTIONS) + 1) + "|"]
    for subject in SUBJECTS:
        cells = ["✓" if rows[f"table2/{subject}/{m}"]["verdict"] == DETECTED
                 else "" for m in MISCONCEPTIONS]
        lines.append(f"| {subject} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


#: The EXPERIMENTS.md blocks, each rendered between
#: ``<!-- decisions:NAME -->`` and ``<!-- /decisions:NAME -->``.
BLOCKS = {
    "motivating": _motivating,
    "table1": _table1,
    "fig8a": _fig8a,
    "fig8a-aggregate": _fig8a_aggregate,
    "fig9": _fig9,
    "fig10": _fig10,
    "table2": _table2,
}


def _block(name: str) -> "re.Pattern[str]":
    return re.compile(
        rf"(<!-- decisions:{re.escape(name)} -->\n?)(.*?)(\n?<!-- /decisions:{re.escape(name)} -->)",
        re.S,
    )


def render(text: str, rows: Rows) -> str:
    """``text`` with every block re-rendered from ``rows``."""
    for name, draw in BLOCKS.items():
        pattern = _block(name)
        if not pattern.search(text):
            raise ValueError(f"EXPERIMENTS.md has no {name!r} block")
        body = draw(rows)
        text = pattern.sub(lambda match: match[1] + body + match[3], text)
    return text


def stale_blocks(text: str, rows: Rows) -> List[str]:
    """One line per EXPERIMENTS.md block that differs from its render."""
    stale = []
    for name, draw in BLOCKS.items():
        match = _block(name).search(text)
        if match is None:
            stale.append(f"EXPERIMENTS.md: the {name!r} block is missing")
        elif match[2] != draw(rows):
            stale.append(f"EXPERIMENTS.md: the {name!r} block is stale")
    return stale


# ----------------------------------------------------------------- check


def check(rows: Rows, manifest: Rows, experiments: str) -> List[str]:
    """Every problem: the first manifest difference (and how many rows
    differ), each broken relation and each stale EXPERIMENTS.md block."""
    diffs = differences(manifest, rows)
    problems = diffs[:1]
    if len(diffs) > 1:
        problems.append(f"{len(diffs)} rows differ from the manifest in all")
    return problems + broken_relations(rows) + stale_blocks(experiments, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.decisions",
        description="recompute every decision output and compare it with "
        "tests/decisions.json and EXPERIMENTS.md",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite tests/decisions.json and re-render EXPERIMENTS.md's "
        "counts from the recomputed rows",
    )
    args = parser.parse_args(argv)
    rows = compute()
    if args.write:
        MANIFEST.write_text(serialize(rows))
        EXPERIMENTS.write_text(render(EXPERIMENTS.read_text(), rows))
        print(f"wrote {len(rows)} rows to {MANIFEST.relative_to(ROOT)} "
              f"and re-rendered {EXPERIMENTS.name}")
    problems = check(rows, load_manifest(), EXPERIMENTS.read_text())
    for problem in problems:
        print(problem)
    print(f"{len(rows)} rows recomputed")
    print(f"REPLAY PARITY: {'FALSE' if problems else 'TRUE'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
