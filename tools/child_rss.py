"""Run one grmjacobi command several times, each in a fresh interpreter,
and report its least time, its peak memory and its stdout digest.

    python3 tools/child_rss.py verify --p 2 --m 6 --only design-quads --runs 3

Each run starts a small parent interpreter (`python -S`, importing only
os, sys and time), which forks and execs `python -m grmjacobi.cli CMD...`
with this tree's src/ as PYTHONPATH and reads the command's
resource use with wait4.  Linux carries a process's peak resident set
over its exec, so a command forked from a large process reports at least
that process's size: the benchmark's peak_rss_mib, read through a
harness that holds every run's stdout, grows with the harness.  Started
from a small parent, the figure is the command's own (the parent's few
MiB are its floor).

The tree's src/ is byte-compiled before the first run: with
PYTHONDONTWRITEBYTECODE set, a tree without cached bytecode would
otherwise compile its sources at every run.

Prints the minimum wall and CPU (user + system) time over the runs, the
maximum ru_maxrss in MiB, and the sha256 of stdout.  The exit status is
1 when the runs' stdouts differ or a run exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv: the fd to report on, then the command; reports
# "exit code, wall s, cpu s, ru_maxrss KiB" once the command has exited
PARENT = """if True:
    import os, sys, time
    report, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(report)
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    line = f"{os.waitstatus_to_exitcode(status)} {wall} {cpu} {usage.ru_maxrss}"
    os.write(report, line.encode())
"""


def measure(command: list[str]) -> tuple[int, float, float, float, bytes]:
    """(exit code, wall s, cpu s, peak RSS MiB, stdout) of one run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", PARENT, str(write_end),
             sys.executable, "-m", "grmjacobi.cli", *command],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, pass_fds=(write_end,),
        )
    finally:
        os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        report = reader.read().decode().split()
    if proc.returncode != 0 or len(report) != 4:
        raise RuntimeError(f"the parent interpreter exited {proc.returncode}")
    code, wall, cpu, maxrss_kib = report
    return int(code), float(wall), float(cpu), int(maxrss_kib) / 1024, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False,
        usage="%(prog)s CMD... --runs N",
    )
    ap.add_argument("--runs", type=int, required=True, help="runs of the command")
    args, command = ap.parse_known_args(argv)
    if not command or args.runs < 1:
        ap.error("give a grmjacobi command and --runs N with N >= 1")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True)
    runs = [measure(command) for _ in range(args.runs)]
    digests = [hashlib.sha256(out).hexdigest() for *_, out in runs]
    print(
        f"{' '.join(command)} ({args.runs} run{'s' * (args.runs > 1)}): "
        f"wall {min(r[1] for r in runs):.3f} s, cpu {min(r[2] for r in runs):.3f} s (minimum); "
        f"peak RSS {max(r[3] for r in runs):.1f} MiB (maximum); stdout sha256 {digests[0]}"
    )
    bad = 0
    for i, ((code, *_), digest) in enumerate(zip(runs, digests), 1):
        if code != 0 or digest != digests[0]:
            bad += 1
            print(f"run {i}: exit {code}, stdout sha256 {digest}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
