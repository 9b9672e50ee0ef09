"""tools/bench_pair.py: a failed run keeps the finished pairs, and SIGTERM
leaves no process and no temporary copy behind."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pair.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_result(value: float) -> dict:
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"} for name in names}}


def test_a_failed_run_keeps_the_complete_pairs(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = "base" if tree != tool.ROOT else "change"
        calls.append((seed, side))
        if (seed, side) == (3, "change"):
            raise tool.RunFailed(1, "RuntimeError: set-up probe exited with None")
        return fake_result(seed + (0.5 if side == "change" else 0))

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "export", lambda rev, dest: None)
    monkeypatch.setattr(tool, "compile_sources", lambda tree: None)
    monkeypatch.setattr(tool, "git", lambda *args: "abc")
    monkeypatch.setattr(tool.tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "report.json"
    code = tool.main(["--workload", "verify-census", "--base", "HEAD",
                      "--pairs", "5", "--seconds", "1", "--out", str(out)])

    assert code == 1
    # pair 3 runs the base first and stops at its change side
    assert calls == [(1, "base"), (1, "change"), (2, "change"), (2, "base"),
                     (3, "base"), (3, "change")]
    report = json.loads(out.read_text())
    assert report["complete_pairs"] == 2
    assert report["failed_runs"] == [{"pair": 3, "side": "change", "exit_code": 1,
                                      "stderr": "RuntimeError: set-up probe exited with None"}]
    for side, offset in (("base", 0), ("change", 0.5)):
        wall = report["sides"][side]["metrics"]["wall_s"]
        assert wall["values"] == [1 + offset, 2 + offset]
        assert wall["median"] == 1.5 + offset
        assert report["sides"][side]["failed"] == [0, 0]
    assert report["change_wins"]["wall_s"] == 0
    assert "pair 3 change: the run exited 1: RuntimeError" in capsys.readouterr().err
    assert not list(tmp_path.glob("bench_pair.*"))


def process_table() -> dict[int, tuple[int, str, int]]:
    """pid -> (parent pid, state, start time) of every process /proc shows;
    the start time (field 22 of /proc/<pid>/stat) tells a reused pid apart."""
    table = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # the command name is in parentheses and may hold spaces
            fields = stat[stat.rindex(")") + 2:].split()
            table[int(entry.name)] = (int(fields[1]), fields[0], int(fields[19]))
    return table


def descendants(pid: int) -> dict[int, int]:
    """pid -> start time of every descendant of process pid."""
    table = process_table()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, (ppid, _, _) in table.items() if ppid in frontier} - found
        found |= frontier
    return {p: table[p][2] for p in found}


def cmdline(pid: int) -> str:
    try:
        return (Path("/proc") / str(pid) / "cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.skipif(
    subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0,
    reason="bench_pair.py copies a git revision",
)
def test_sigterm_ends_the_benchmark_and_removes_the_copy(tmp_path):
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "--workload", "verify-census", "--base", "HEAD",
         "--pairs", "2", "--seconds", "20", "--out", str(tmp_path / "report.json")],
        cwd=ROOT, env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # wait until the benchmark runs a command of its own
        runners = []
        while time.monotonic() - start < 20 and proc.poll() is None:
            runners = [p for p in descendants(proc.pid) if "perfbench/run.py" in cmdline(p)]
            if runners and descendants(runners[0]):
                break
            time.sleep(0.01)
        assert runners and proc.poll() is None, "the benchmark never started a command"
        seen = descendants(proc.pid)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30 - (time.monotonic() - start)) == 143
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not list(tmp_path.glob("bench_pair.*"))
    table = process_table()
    survivors = [
        f"{p} {cmdline(p)!r}"
        for p, born in seen.items()
        if p in table and table[p][2] == born and table[p][1] != "Z"
    ]
    assert not survivors, "processes outlived it: " + "; ".join(survivors)
    assert time.monotonic() - start < 30
