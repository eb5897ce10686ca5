"""Tests of the benchmark itself: python3 -m pytest -q perfbench

Each workload runs in-process at a tiny size, untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyStudy(workloads.StudyN20):
    PER_BUCKET = 1
    items = 5


class TinyProfile(workloads.ProfileN40):
    items = 2


class TinySolve(workloads.SolveN150):
    STREAM_PICKS = (7, 8)  # one UNSAT, one SAT formula
    items = 8


TINY = {"study-n20": TinyStudy, "profile-n40": TinyProfile, "solve-n150": TinySolve}


def _run(monkeypatch, capsys, name: str, trace: int, seed: int = 3) -> tuple[dict, str, dict]:
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    last = json.loads(out.strip().splitlines()[-1])
    full = json.loads((run.OUT / "results" / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return last, out, full


def test_spec_is_consistent():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_workload_metrics_and_trace_identity(monkeypatch, capsys, name):
    plain, out, plain_full = _run(monkeypatch, capsys, name, trace=0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = plain["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert f"{m['name']} = " in out and f" {m['unit']}\n" in out
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    traced, _, traced_full = _run(monkeypatch, capsys, name, trace=1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]

    # The wrappers change nothing: same inputs, outputs and work counts.
    for key in ("input_digest", "output_digest", "work"):
        assert plain_full[key] == traced_full[key]
    env = plain_full["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["items_per_pass"] == TINY[name].items


def test_layer_totals_subtract_direct_children():
    spans = [
        ["outer", 0.0, 10.0, None, 0, None],
        ["inner", 1.0, 4.0, 0, 0, None],
        ["leaf", 2.0, 3.0, 1, 0, None],
        ["inner", 5.0, 6.0, 0, 0, None],
    ]
    tot = tracing.layer_totals(spans)
    assert tot["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert tot["inner"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert tot["leaf"]["self_s"] == 1.0


def test_tracer_restores_every_binding():
    package = run.import_program()
    original = package.counter.find_model
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        assert package.entropy.find_model is package.benchgen.find_model
        assert package.entropy.find_model is not original
    finally:
        tracer.uninstall()
    assert package.entropy.find_model is original and package.benchgen.find_model is original


def test_tail_latency_leaves_ten_samples_beyond():
    assert run.tail_latency([1.0] * 10) is None
    tail = run.tail_latency([i / 1000 for i in range(1, 41)])
    assert tail == {"percentile": 75.0, "ms": 30.0, "samples": 40}


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n150", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
