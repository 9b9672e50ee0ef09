"""Stdout digests of commands that the benchmark's workloads do not run
(those are in test_golden.py): the codeword scans behind `enum`, the
brute-force `design` route, the dual checks and the default `verify` grid.
Each sha256 was recorded before the scans were merged into
GrmCode.value_rows, so a change that moves these bytes fails here."""

import hashlib

import pytest

from grmjacobi.cli import main

DIGESTS = {
    "enum --p 3 --m 2 --l 6":
        "d0683658d1f64ff7d4d97447eff734b6b1bbe7a26a91833a5239510689554e5a",
    "enum --p 2 --k 2 --m 2 --l 16 --output pretty":
        "1f4c059dab237319a0979bcb65c8cb65929cd72f0f73d086a93b5ee702cc8b1d",
    "design --p 3 --m 2 --l 6 --t 4 --method brute":
        "20e9e3305cdad908d60ecb4d4fc57703bd94def58fcbb2ae7cde0bc719fc2511",
    "design --p 2 --k 2 --m 2 --l 12 --t 3 --workers 2":
        "a7d579f3f8d8369e6a9f5173c7d47624219b75155c5d76d6163c3a6a4fce4191",
    "verify --p 7 --m 2 --only dual-transform --only dual-enumerator --only weight-enumerator":
        "3c3ab559d2d31b1ca30315762d88a768369324ffcca9eec792bf5745ddfd1181",
    "verify":
        "bc6bdea2d87e97dd0f847c7217e857b65f49679082f4da515a01433d1823284b",
    "verify --workers 2":
        "bc6bdea2d87e97dd0f847c7217e857b65f49679082f4da515a01433d1823284b",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_matches_recorded_digest(capsys, command):
    assert main(command.split()) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == DIGESTS[command]
