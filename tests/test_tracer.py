"""The benchmark's span tracer (perfbench/tracer.py) wraps grmjacobi
functions by name and reads their arguments and results; installing it
here and running every traced layer makes a renamed function, parameter
or result field fail the suite instead of the traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["verify", "--p", "3", "--m", "2", "--only", "dual-difference"],
    ["scan", "--bound", "100"],
    ["design", "--p", "3", "--m", "2", "--l", "6", "--t", "3"],
    ["jacobi", "--p", "3", "--m", "2", "--t-size", "3"],
]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import grmjacobi.cli as cli
from tracer import Tracer, layer_metrics

tracer = Tracer()
tracer.install()
codes = []
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(tracer.run_root(cli.main, argv))
tracer.write(sys.argv[2])
print(json.dumps({"codes": codes, "metrics": layer_metrics([sys.argv[2]])}))
"""


def test_tracer_installs_and_records(tmp_path):
    out = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(out), json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(COMMANDS)
    names = {json.loads(line)[0] for line in out.read_text().splitlines()[1:]}
    assert {"cli.main", "checks.dual-difference", "jacobi.dual_jacobi", "jacobi.binom_conv"} <= names
    metrics = report["metrics"]
    for counter in ("conjecture.shells", "designs.subsets", "jacobi.codewords"):
        assert metrics.get(counter, 0) > 0, counter
