"""tools/replay_golden.py: its count of matching commands and its exit
status.  Its replay, which runs one command in a fresh interpreter, is
run on every verify-census command by tests/test_golden.py."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "replay_golden.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("replay_golden", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_round_of_matching_digests_exits_0(monkeypatch, capsys):
    tool = load_tool()
    golden = json.loads(tool.GOLDEN.read_text())["workloads"][tool.WORKLOAD]
    commands = tool.WORKLOADS[tool.WORKLOAD].commands
    digests = {tuple(argv): entry["sha256"] for argv, entry in zip(commands, golden)}
    seeds = []
    monkeypatch.setattr(
        tool, "replay", lambda argv, seed: seeds.append(seed) or (0, digests[tuple(argv)], "")
    )
    assert tool.main(["--runs", "1"]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("8 of 8 commands matched their golden digests\n", "")
    assert len(seeds) == 8


def test_a_mismatch_exits_1(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "replay", lambda argv, seed: (0, "0" * 64, ""))
    assert tool.main(["--runs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "0 of 16 commands matched their golden digests\n"
    assert err.count("\n") == 16 and "PYTHONHASHSEED=" in err
