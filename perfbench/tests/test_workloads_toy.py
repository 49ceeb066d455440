"""Every workload, through the same code as a full run, at toy size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace == "1" and workload == "census-batch":
        assert "planner choice per query" in proc.stdout
    assert not (ROOT / ".perfbench_work").exists()


def test_benchmark_json_matches_the_command():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.RUNNERS)


def test_wrong_answer_fails_the_run(monkeypatch, tmp_path):
    # Corrupt the reference engine (it runs in this process; the program
    # under test runs in a child), so every answer looks wrong.
    from repro.query.engine import QueryEngine
    from repro.query.result import ResultTable

    real = QueryEngine.execute

    def corrupted(self, query, **kwargs):
        table = real(self, query, **kwargs)
        return ResultTable(table.columns, [tuple(r[:-1]) + (r[-1] + 1,) for r in table.rows])

    monkeypatch.setattr(QueryEngine, "execute", corrupted)
    outcome = workloads.run("census-batch", 3, 1.0, False, "toy", str(tmp_path))
    assert outcome.failed == outcome.attempted > 0
    assert not outcome.correct


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census-batch", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _stream(service_s, rate, stall_at=None, stall_s=0.0):
    """Send/answer records of a single-sender open-loop stream whose
    batches each take ``service_s``, one of them ``stall_s`` more."""
    updates, free = [], 0.0
    for i in range(100):
        sent = max(i / rate, free)
        done = sent + service_s + (stall_s if i == stall_at else 0.0)
        updates.append({"i": i, "sent": sent, "done": done})
        free = done
    return updates


def test_backlog_rule_flags_a_daemon_slower_than_the_stream():
    assert workloads.backlog_grew(_stream(0.25, rate=5.0), rate=5.0)
    assert not workloads.backlog_grew(_stream(0.07, rate=5.0), rate=5.0)


def test_backlog_rule_ignores_a_stall_that_drains():
    # A 2-s stall near the end leaves a backlog of 10 batches behind it.
    updates = _stream(0.07, rate=5.0, stall_at=80, stall_s=2.0)
    assert updates[90]["sent"] - 90 / 5.0 > 0.5
    assert not workloads.backlog_grew(updates, rate=5.0)
