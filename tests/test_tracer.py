"""The benchmark's span tracer (perfbench/tracer.py) wraps grmjacobi
functions by name; installing it here makes a renamed or removed traced
function fail the suite instead of the traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import grmjacobi.cli as cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
code = tracer.run_root(cli.main, ["verify", "--p", "3", "--m", "2", "--only", "dual-difference"])
tracer.write(sys.argv[2])
sys.exit(code)
"""


def test_tracer_installs_and_records(tmp_path):
    out = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["failures"] == 0
    names = {json.loads(line)[0] for line in out.read_text().splitlines()[1:]}
    assert {"cli.main", "checks.dual-difference", "jacobi.dual_jacobi", "jacobi.binom_conv"} <= names
