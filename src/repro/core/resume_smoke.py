"""End-to-end crash/resume smoke: ``python -m repro.core.resume_smoke``.

The one scenario no in-process test can cover: the hunt **parent** dying.
This script runs a journaled 2-worker hunt in a child process,
SIGKILLs that child mid-hunt (after the journal shows real committed
progress), resumes the torn journal with ``hunt(resume=...)``, and checks
the resumed verdict map bit-for-bit against an uninterrupted run of the
same hunt.  Exit 0 on success, 1 on any divergence — CI runs this as the
``resume-smoke`` job.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time

SCENARIO = "Roshi-1"
CAP = 240
KILL_AFTER_COMMITS = 40
KILL_DEADLINE_S = 120.0


def _run_hunt(journal_path: str, resume: bool = False):
    from repro.bench.harness import hunt, record_scenario
    from repro.bugs.registry import scenario

    return hunt(
        record_scenario(scenario(SCENARIO)),
        "erpi",
        cap=CAP,
        workers=2,
        stop_on_violation=False,
        journal=None if resume else journal_path,
        resume=journal_path if resume else None,
    )


def _child_main(journal_path: str) -> None:
    _run_hunt(journal_path)


def _journal_commits(path: str) -> int:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return 0
    count = 0
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail mid-append
        if record.get("type") == "commit":
            count += 1
    return count


def _interrupted_journal(tmp: str, attempt: int) -> str | None:
    """Run a journaled hunt in a child and SIGKILL it mid-progress.

    Returns the journal path, or ``None`` when the child finished before
    the kill landed (the caller retries)."""
    path = os.path.join(tmp, f"interrupted-{attempt}.jsonl")
    ctx = multiprocessing.get_context()
    # Not a daemon: the hunt child must be allowed to spawn its own worker
    # processes.  The driver always kills and joins it before returning.
    child = ctx.Process(target=_child_main, args=(path,))
    child.start()
    deadline = time.monotonic() + KILL_DEADLINE_S
    while time.monotonic() < deadline:
        if _journal_commits(path) >= KILL_AFTER_COMMITS:
            break
        if not child.is_alive():
            return None  # hunt completed before reaching the kill threshold
        time.sleep(0.002)
    else:
        print(f"FAIL: no progress within {KILL_DEADLINE_S:g}s", flush=True)
        child.kill()
        child.join()
        sys.exit(1)
    os.kill(child.pid, signal.SIGKILL)
    child.join()
    return path


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="erpi-resume-smoke-") as tmp:
        reference = _run_hunt(os.path.join(tmp, "reference.jsonl"))
        print(
            f"reference hunt: explored {reference.explored}, "
            f"found={reference.found}"
        )
        path = None
        for attempt in range(5):
            path = _interrupted_journal(tmp, attempt)
            if path is not None:
                break
            print(f"attempt {attempt}: hunt finished before the kill; retrying")
        if path is None:
            print("FAIL: could not interrupt the hunt mid-progress")
            return 1
        committed = _journal_commits(path)
        print(f"killed hunt parent after {committed} journaled commit(s)")
        if committed >= reference.explored:
            print("FAIL: child was killed only after completing the hunt")
            return 1
        resumed = _run_hunt(path, resume=True)
        summary = resumed.coordination
        print(
            f"resumed hunt: replayed {summary['resumed_commits']} commit(s) "
            f"from the checkpoint, explored {resumed.explored} total"
        )
        failures = []
        if resumed.verdicts != reference.verdicts:
            failures.append("verdict maps diverge")
        if resumed.explored != reference.explored:
            failures.append(
                f"explored {resumed.explored} != {reference.explored}"
            )
        if resumed.found != reference.found:
            failures.append("found flag diverges")
        if summary["resumed_commits"] == 0:
            failures.append("resume replayed nothing from the journal")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            "PASS: resumed hunt is bit-for-bit the uninterrupted run "
            f"({len(resumed.verdicts)} verdicts)"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
