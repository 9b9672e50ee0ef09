"""Replay every command of the benchmark's workloads (perfbench/run.py)
through grmjacobi.cli.main in process, and compare each stdout's sha256
with the digest recorded in perfbench/golden.json.  A change that moves
output bytes then fails the suite, not only the benchmark run."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grmjacobi
from grmjacobi.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from run import GOLDEN, WORKLOADS  # noqa: E402

DIGESTS = json.loads(GOLDEN.read_text())["workloads"]
CASES = [
    (name, i, argv)
    for name, workload in WORKLOADS.items()
    for i, argv in enumerate(workload.commands)
]


@pytest.mark.parametrize("name,index,argv", CASES, ids=[f"{n}-{i}" for n, i, _ in CASES])
def test_stdout_matches_golden_digest(capsys, name, index, argv):
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == DIGESTS[name][index]["sha256"], " ".join(argv)


# Every command of verify-census, its design verdicts included.
VERIFY_CASES = [case for case in CASES if case[0] == "verify-census"]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize(
    "name,index,argv", VERIFY_CASES, ids=[f"{n}-{i}" for n, i, _ in VERIFY_CASES]
)
def test_verify_stdout_does_not_depend_on_the_hash_seed(seed, name, index, argv):
    # each run in a fresh interpreter, so set and dict orders of strings
    # differ from seed to seed, and one of the verify commands starts a pool
    env = {
        **os.environ,
        "PYTHONHASHSEED": seed,
        "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "grmjacobi.cli", *argv],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name][index]["sha256"], " ".join(argv)
