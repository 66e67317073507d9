"""Smoke check of the end-to-end benchmark: ``run.py --smoke`` must print
every metric ``BENCHMARK.json`` names, with its unit, fail no hunt, and its
traced spans must explain the serial hunts' time.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_reports_every_metric_and_fails_nothing(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = done.stdout.splitlines()
    for metric in spec["end_to_end"]:
        assert any(
            line.split()[1:2] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines
        ), f"{metric['name']} [{metric['unit']}] not printed"
    for metric in spec["per_layer"]:
        assert any(
            line.split()[1:2] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines
        ), f"{metric['name']} [{metric['unit']}] not printed"

    report = json.loads(out.read_text())["workloads"]
    assert {w["name"] for w in spec["workloads"]} == set(report)
    for name, workload in report.items():
        assert workload["metrics"]["failed_share"]["median"] == 0, workload["failures"]
    for name in ("table1", "dpor", "faults"):
        assert report[name]["layers"]["trace.coverage"]["value"] >= 0.95, name
