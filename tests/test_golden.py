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
