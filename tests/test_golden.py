"""Replay every command of the benchmark's workloads (perfbench/run.py)
through grmjacobi.cli.main in process, and compare each stdout's sha256
with the digest recorded in perfbench/golden.json.  A change that moves
output bytes then fails the suite, not only the benchmark run."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from grmjacobi.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))
from replay_golden import replay  # noqa: E402
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


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "name,index,argv", VERIFY_CASES, ids=[f"{n}-{i}" for n, i, _ in VERIFY_CASES]
)
def test_verify_stdout_does_not_depend_on_the_hash_seed(seed, name, index, argv):
    # each run in a fresh interpreter by tools/replay_golden.py, so set and
    # dict orders of strings differ from seed to seed, and one of the
    # verify commands starts a pool
    code, digest, err = replay(argv, seed)
    assert code == 0, err
    assert digest == DIGESTS[name][index]["sha256"], " ".join(argv)
