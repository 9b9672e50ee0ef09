"""Measure a change against a base revision with the repository's benchmark.

    python3 tools/bench_pair.py --workload verify-census --base HEAD \\
        --pairs 10 --seconds 50 --out BENCH_verify-census.json

Each pair runs `perfbench/run.py --workload W --seed i --seconds S` once on
a clean copy of REV's committed files (`git archive`, in a temporary
directory) and once on the working tree, with seeds 1..N; the side that
goes first alternates from pair to pair, so a slow phase of a shared host
does not always fall on the same side.  Both sides' sources are
byte-compiled first, so neither pays for compiling at each start.  Every
run's last stdout line, the benchmark's JSON summary, is kept.

The output file holds, per side and per end-to-end metric, every value in
pair order, the median and the quartiles; per metric, the number of pairs
the change won (a strictly better value, by the metric's direction in
BENCHMARK.json); the operations attempted and failed per run; the two
commits, nproc and the Python version.  The benchmark's own files are
only run, never changed.

After writing the report, each (pair, side) whose run counted a failed
operation is printed to stderr, and the exit status is 1: a faster side
that got an answer wrong has not won anything.  A run that exits non-zero
or prints no summary ends the measurement: the report then holds the
pairs completed before it and names the run under `failed_runs`, and the
exit status is 1.  On SIGTERM the running benchmark is stopped, its
descendants are recorded (pid and start time), and it is sent SIGTERM
and resumed (it ends its own command).  Once it has exited, each recorded
process that still runs is killed: a command the benchmark started just
before the signal, in a session of its own, outlives it otherwise.  Then
the temporary copy is removed and the exit status is 143.  Recording the
descendants reads /proc; without it none are recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Unpack REV's committed files into dest."""
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def compile_sources(tree: Path) -> None:
    # Cached bytecode on both sides: with PYTHONDONTWRITEBYTECODE set,
    # a side left without it compiles its sources at every start.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)


class RunFailed(Exception):
    """A run that exited non-zero or printed nothing: (exit code, last stderr line)."""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree; its parsed last stdout line.  Raises
    RunFailed when the run exits non-zero or prints nothing."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate()
    except BaseException:
        # SIGKILL would leave the benchmark's running command behind; a
        # stopped benchmark starts no command while its descendants are read
        recorded = {}
        if proc.poll() is None:
            proc.send_signal(signal.SIGSTOP)
            os.waitpid(proc.pid, os.WUNTRACED)
            recorded = descendants(proc.pid)
        proc.terminate()
        proc.send_signal(signal.SIGCONT)
        proc.communicate()
        kill_survivors(recorded)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(proc.returncode, (err.strip().splitlines() or [""])[-1])
    return json.loads(lines[-1])


def process_stats() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, start time) of every process /proc shows that
    has not ended; the start time is field 22 of /proc/<pid>/stat, so a
    pid with another start time is another process.  Empty without /proc."""
    stats = {}
    try:
        entries = [e for e in Path("/proc").iterdir() if e.name.isdigit()]
    except OSError:
        return stats
    for entry in entries:
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name is in parentheses and may hold spaces
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            stats[int(entry.name)] = (int(fields[1]), int(fields[19]))
    return stats


def descendants(pid: int) -> dict[int, int]:
    """pid -> start time of every running descendant of process pid."""
    stats = process_stats()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, (ppid, _) in stats.items() if ppid in frontier} - found
        found |= frontier
    return {p: stats[p][1] for p in found}


def kill_survivors(recorded: dict[int, int]) -> None:
    """SIGKILL each recorded (pid, start time) that still runs, and return
    once none does, or after 10 s."""
    def running():
        stats = process_stats()
        return [p for p, start in recorded.items() if p in stats and stats[p][1] == start]

    for pid in running():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 10
    while running() and time.monotonic() < end:
        time.sleep(0.01)


def summary(values: list[float]) -> dict:
    """The values, their median and quartiles (None below two values)."""
    q1 = median = q3 = None
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    # Leave through the finally below, which removes the copy.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pair."))
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    failed_runs = []
    try:
        export(args.base, scratch)
        trees = {"base": scratch, "change": ROOT}
        for tree in trees.values():
            compile_sources(tree)
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            pair = {}
            for side in order:
                try:
                    pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
                except RunFailed as e:
                    exit_code, stderr_line = e.args
                    failed_runs.append({"pair": seed, "side": side, "exit_code": exit_code,
                                        "stderr": stderr_line})
                    break
                print(f"pair {seed} {side}: " + ", ".join(
                    f"{name} {m['value']:.4g}" for name, m in pair[side]["metrics"].items()
                ), file=sys.stderr, flush=True)
            if failed_runs:
                break
            for side in order:
                runs[side].append(pair[side])
    finally:
        shutil.rmtree(scratch)

    sides = {}
    for side, results in runs.items():
        sides[side] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": {
                name: summary([r["metrics"][name]["value"] for r in results])
                for name in lower_is_better
            },
        }
    wins = {}
    for name, lower in lower_is_better.items():
        pairs = zip(sides["base"]["metrics"][name]["values"],
                    sides["change"]["metrics"][name]["values"])
        wins[name] = sum(1 for b, c in pairs if (c < b if lower else c > b))
    report = {
        "workload": args.workload,
        "pairs": args.pairs,
        "complete_pairs": len(runs["base"]),
        "seconds": args.seconds,
        "first_side": "base on odd seeds, change on even seeds",
        "commits": {
            "base": git("rev-parse", args.base),
            "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain") else ""),
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "change_wins": wins,
        "sides": sides,
        "failed_runs": failed_runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failures = [
        (pair, side, result["failed"])
        for side, results in runs.items()
        for pair, result in enumerate(results, start=1)
        if result["failed"] > 0
    ]
    for pair, side, failed in failures:
        print(f"pair {pair} {side}: {failed} failed operation(s)", file=sys.stderr)
    for run in failed_runs:
        print(f"pair {run['pair']} {run['side']}: the run exited {run['exit_code']}: "
              f"{run['stderr']}", file=sys.stderr)
    return 1 if failures or failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
