"""tools/replay_golden.py: every verify-census command, in a fresh
interpreter with a random hash seed, matches its golden digest."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "replay_golden.py"


def test_one_round_matches_the_golden_digests():
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--runs", "1"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8 of 8 commands matched their golden digests\n"


def test_a_mismatch_exits_1(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("replay_golden", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "replay", lambda argv, seed: (0, "0" * 64, ""))
    assert tool.main(["--runs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "0 of 16 commands matched their golden digests\n"
    assert err.count("\n") == 16 and "PYTHONHASHSEED=" in err
