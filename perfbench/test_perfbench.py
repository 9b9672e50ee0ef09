"""Tests of the benchmark itself (slow: each workload runs three times).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import run
import tracer

PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())
# Counters that do not depend on timing; time metrics end in _s.
COUNTERS = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
            if m["unit"] == "count"]


@pytest.fixture(scope="module", params=list(run.WORKLOADS))
def reps(request):
    """One plain and two traced repetitions of a workload."""
    name = request.param
    golden = run.load_golden()["workloads"][name]
    run.OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + 600
    plain = run.run_rep(name, golden, False, deadline)
    traced = []
    for _ in range(2):
        rep = run.run_rep(name, golden, True, deadline)
        # Keep each repetition's spans: the next one reuses the file names.
        for i, path in enumerate(rep.spans):
            rep.spans[i] = path.rename(path.with_suffix(f".{len(traced)}.jsonl"))
        traced.append(rep)
    return name, plain, traced


def test_outputs_match_golden(reps):
    _, plain, traced = reps
    assert [r.failed for r in [plain, *traced]] == [0, 0, 0]


def test_traced_stdout_is_byte_identical(reps):
    _, plain, traced = reps
    for rep in traced:
        assert [c.stdout for c in rep.commands] == [c.stdout for c in plain.commands]


def test_top_span_covers_the_run(reps):
    _, _, traced = reps
    for rep in traced:
        for cmd, path in zip(rep.commands, rep.spans):
            _, spans = tracer.read_spans(path)
            roots = [s for s in spans if s["parent"] is None]
            assert [s["name"] for s in roots] == [tracer.ROOT]
            top = roots[0]
            assert all(top["start"] <= s["start"] <= s["end"] <= top["end"] for s in spans)
            assert cmd.start <= top["start"] and top["end"] <= cmd.start + cmd.wall
            # What lies outside is interpreter start-up, import and writing the spans.
            assert cmd.wall - (top["end"] - top["start"]) < 1.0


def test_computed_counters_repeat(reps):
    _, _, traced = reps
    first, second = (tracer.layer_metrics(r.spans) for r in traced)
    assert {n: first.get(n, 0) for n in COUNTERS} == {n: second.get(n, 0) for n in COUNTERS}


def test_predicted_idle_layers_stay_idle(reps):
    name, _, traced = reps
    got = tracer.layer_metrics(traced[0].spans)
    expected = PREDICTIONS["idle"][name]
    assert {n: got.get(n, 0) for n in expected} == expected


def test_a_changed_record_or_exit_code_counts_as_failed(reps):
    name, plain, _ = reps
    subcommand = run.WORKLOADS[name].commands[0][0]
    golden = run.load_golden()["workloads"][name][0]
    cmd = plain.commands[0]
    ops = len(golden["ops"])
    assert run.failed_ops(subcommand, golden, replace(cmd, returncode=2)) == ops
    changed = replace(cmd, stdout=cmd.stdout.replace(b"1", b"2", 1))
    assert run.failed_ops(subcommand, golden, changed) == 1
    cut = replace(cmd, stdout=cmd.stdout[: len(cmd.stdout) // 2])
    assert run.failed_ops(subcommand, golden, cut) >= 1


def test_every_metric_is_measurable():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(tracer.known_metric(m["name"]) for m in spec["per_layer"] if m["name"] != "trace.overhead")
    assert set(PREDICTIONS["idle"]) == set(run.WORKLOADS)
    mapped = [n for layer in PREDICTIONS["layers"] for n in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-3e6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
