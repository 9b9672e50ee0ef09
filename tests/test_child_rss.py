"""tools/child_rss.py: a command's time, peak RSS and stdout digest, each
run in a fresh interpreter forked from a small parent."""

import hashlib
import importlib.util
import re
import shutil
from pathlib import Path

from grmjacobi.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "child_rss.py"
REPORT = re.compile(
    r"enum --p 2 --m 2 \(2 runs\): wall ([0-9.]+) s, cpu ([0-9.]+) s \(minimum\); "
    r"peak RSS ([0-9.]+) MiB \(maximum\); stdout sha256 ([0-9a-f]{64})\n"
)


def load_tool():
    spec = importlib.util.spec_from_file_location("child_rss", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_enum_reports_its_child_alone(capsys):
    assert main(["enum", "--p", "2", "--m", "2"]) == 0
    expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert load_tool().main(["enum", "--p", "2", "--m", "2", "--runs", "2"]) == 0
    out, err = capsys.readouterr()
    match = REPORT.fullmatch(out)
    assert match and err == "", (out, err)
    wall, cpu, rss = map(float, match.groups()[:3])
    assert 0 < cpu and 0 < wall < 30
    # an interpreter and a small code: a few MiB
    assert 4 < rss < 100
    assert match[4] == expected


def test_the_tree_is_byte_compiled_before_it_runs(tmp_path, monkeypatch, capsys):
    # with PYTHONDONTWRITEBYTECODE set, no run writes the bytecode cache itself
    tool = load_tool()
    package = tmp_path / "src" / "grmjacobi"
    shutil.copytree(
        tool.ROOT / "src" / "grmjacobi", package, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert tool.main(["enum", "--p", "2", "--m", "2", "--runs", "1"]) == 0
    capsys.readouterr()
    assert any((package / "__pycache__").glob("cli.*.pyc"))


def test_differing_stdouts_exit_1(monkeypatch, capsys):
    tool = load_tool()
    outs = iter([b"a", b"b", b"a"])
    monkeypatch.setattr(tool, "measure", lambda command: (0, 1.0, 1.0, 10.0, next(outs)))
    assert tool.main(["enum", "--p", "2", "--m", "2", "--runs", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith(f"stdout sha256 {hashlib.sha256(b'a').hexdigest()}\n")
    assert err == f"run 2: exit 0, stdout sha256 {hashlib.sha256(b'b').hexdigest()}\n"


def test_a_two_worker_pass_holds_no_more_than_one_worker():
    # each worker draws its own range of the C(32, 4) = 35,960 quads, so
    # no process lists them; a list of them would add about 3 MiB
    tool = load_tool()
    command = ["verify", "--p", "2", "--m", "5", "--only", "design-quads", "--workers"]
    (code_1, *_, peak_1, out_1), (code_2, *_, peak_2, out_2) = (
        tool.measure(command + [workers]) for workers in ("1", "2")
    )
    assert code_1 == code_2 == 0 and out_1 == out_2
    assert peak_2 <= peak_1 + 1.5, (peak_1, peak_2)
