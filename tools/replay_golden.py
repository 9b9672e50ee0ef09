"""Replay the verify-census commands and compare each stdout with its
golden digest.

    python3 tools/replay_golden.py --runs N

Each of the N rounds runs every command of the benchmark's verify-census
workload (perfbench/run.py), one of them with two workers, through
`python -m grmjacobi.cli` in a fresh interpreter with a random
PYTHONHASHSEED, and compares the sha256 of its stdout with the digest in
perfbench/golden.json, which it only reads.  A fault that shows in some
runs only, such as a worker-order or hash-order dependence, then shows
as a mismatch.  Each mismatch or failed command is printed to stderr
with its seed, and the exit status is 1 if there was any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import GOLDEN, WORKLOADS  # noqa: E402

WORKLOAD = "verify-census"


def replay(argv, seed: int) -> tuple[int, str, str]:
    """(exit code, stdout sha256, last stderr line) of one command."""
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "grmjacobi.cli", *argv],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=600,
    )
    lines = proc.stderr.decode(errors="replace").splitlines()
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest(), lines[-1] if lines else ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, required=True, help="rounds over the commands")
    args = ap.parse_args(argv)
    digests = [entry["sha256"] for entry in json.loads(GOLDEN.read_text())["workloads"][WORKLOAD]]
    commands = WORKLOADS[WORKLOAD].commands
    rng = random.SystemRandom()
    bad = 0
    for run in range(1, args.runs + 1):
        for command, digest in zip(commands, digests):
            seed = rng.randrange(2**32)
            code, got, err = replay(command, seed)
            if code != 0 or got != digest:
                bad += 1
                print(
                    f"run {run} PYTHONHASHSEED={seed} {' '.join(command)}: "
                    f"exit {code}, sha256 {got[:12]} (golden {digest[:12]}) {err}",
                    file=sys.stderr,
                )
    total = args.runs * len(commands)
    print(f"{total - bad} of {total} commands matched their golden digests")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
