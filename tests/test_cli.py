import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest

import grmjacobi
from grmjacobi import Field, GrmCode, conjecture
from grmjacobi.cli import build_parser, main, parse_bound, parse_points


@pytest.fixture(scope="module")
def schema():
    text = resources.files("grmjacobi.data").joinpath("output-schema.json").read_text()
    return json.loads(text)


def validate(instance, schema, ref):
    jsonschema.validate(
        instance, {"$ref": f"#/$defs/{ref}", "$defs": schema["$defs"]}
    )


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------


def test_parse_points():
    assert parse_points("(0,0);(0,1)", 2) == ((0, 0), (0, 1))
    assert parse_points("(2)", 1) == ((2,),)
    with pytest.raises(ValueError):
        parse_points("(0,0);(0,0)", 2)  # repeated
    with pytest.raises(ValueError):
        parse_points("(0,0,0)", 2)  # wrong arity
    with pytest.raises(ValueError):
        parse_points("0,0", 2)  # no parentheses


def test_parse_bound():
    assert parse_bound("1e7") == 10**7
    assert parse_bound("1e9") == 10**9
    assert parse_bound("10000") == 10000
    assert parse_bound("2.5e6") == 2_500_000
    assert parse_bound("9007199254740993") == 9007199254740993  # 2^53 + 1
    assert parse_bound("1e400") == 10**400
    assert parse_bound("1e4299") == 10**4299  # 4300 digits, the most allowed
    # mantissa or exponent strings longer than CPython's int/str limit
    assert parse_bound("1" + "0" * 5000 + "e-4990") == 10**10
    assert parse_bound("1e+" + "0" * 5000 + "3") == 1000
    for bad in ("-3", "inf", "nan", "abc", "1.5", "1e-3", "0", "", "0e99999999",
                "1e4300", "1e99999999", "1" + "0" * 5000, "1" + "0" * 5000 + "1e-1",
                "1e" + "9" * 5000, "1e-" + "9" * 5000):
        with pytest.raises(ValueError):
            parse_bound(bad)


def test_scan_bound_defaults_to_the_scans_own():
    assert parse_bound(build_parser().parse_args(["scan"]).bound) == conjecture.DEFAULT_BOUND


# ---------------------------------------------------------
# jacobi command
# ---------------------------------------------------------


def test_jacobi_class_selector_both_methods(capsys, schema):
    code, out, _ = run_cli(
        capsys, ["jacobi", "--p", "3", "--k", "1", "--m", "2", "--t-size", "2", "--method", "both"]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "jacobiOutput")
    (entry,) = payload["results"]
    assert entry["diff"] == []
    assert entry["brute"] == entry["closed"]


def test_jacobi_explicit_points_match_class_route(capsys):
    code, out, _ = run_cli(
        capsys,
        ["jacobi", "--p", "3", "--m", "2", "--points", "(0,0);(0,1)", "--method", "both"],
    )
    assert code == 0
    explicit = json.loads(out)["results"][0]
    code, out, _ = run_cli(
        capsys, ["jacobi", "--p", "3", "--m", "2", "--t-size", "2"]
    )
    assert code == 0
    by_class = json.loads(out)["results"][0]
    assert explicit["closed"] == by_class["closed"]
    assert explicit["diff"] == []


def test_jacobi_all_quad_classes(capsys, schema):
    code, out, _ = run_cli(
        capsys, ["jacobi", "--p", "5", "--m", "2", "--t-size", "4", "--method", "both"]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "jacobiOutput")
    labels = {entry["class"] for entry in payload["results"]}
    assert labels == {
        "t4-rank2-collinear-triple",
        "t4-rank2-generic",
        "t4-rank1",
    }
    assert all(entry["diff"] == [] for entry in payload["results"])


def test_jacobi_rank2_subcases(capsys):
    code, out, _ = run_cli(
        capsys,
        ["jacobi", "--p", "3", "--m", "2", "--t-size", "4", "--rank", "2", "--method", "both"],
    )
    assert code == 0
    labels = [e["class"] for e in json.loads(out)["results"]]
    assert labels == ["t4-rank2-collinear-triple", "t4-rank2-generic"]


def test_jacobi_subcase_alone_narrows_the_classes(capsys):
    code, out, _ = run_cli(
        capsys, ["jacobi", "--p", "3", "--m", "2", "--t-size", "4", "--subcase", "generic"]
    )
    assert code == 0
    assert [e["class"] for e in json.loads(out)["results"]] == ["t4-rank2-generic"]


def test_jacobi_selector_that_keeps_no_class_exit_1(capsys):
    for argv in (["--t-size", "3", "--subcase", "generic"], ["--t-size", "2", "--rank", "2"]):
        code, out, err = run_cli(capsys, ["jacobi", "--p", "3", "--m", "2", *argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_jacobi_bad_points_exit_1(capsys):
    code, _, err = run_cli(
        capsys, ["jacobi", "--p", "3", "--m", "2", "--points", "(0,0);(0,0)"]
    )
    assert code == 1 and "error" in err


def test_jacobi_unreachable_class_exit_1(capsys):
    code, _, err = run_cli(
        capsys, ["jacobi", "--p", "3", "--m", "2", "--t-size", "4", "--rank", "1"]
    )
    assert code == 1 and "witness" in err


def test_jacobi_pretty_output(capsys):
    code, out, _ = run_cli(
        capsys,
        ["jacobi", "--p", "3", "--m", "2", "--t-size", "2", "--output", "pretty"],
    )
    assert code == 0
    assert "diff: EMPTY" in out


# ---------------------------------------------------------
# design command
# ---------------------------------------------------------


def test_design_not_3_design(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        ["design", "--p", "3", "--k", "1", "--m", "2", "--l", "6", "--t", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "designOutput")
    assert payload["agree"] is True
    report = payload["reports"]["jacobi"]
    assert report["is_t_design"] is False
    assert {c["lambda"] for c in report["classes"]} == {"6", "4"}
    gen = payload["generalized_params"]
    assert (gen["v"], gen["k"]) == (9, 6)
    assert [c["lambda"] for c in gen["classes"]] == ["6", "4"]


def test_design_trivial_flag(capsys, schema):
    code, out, _ = run_cli(
        capsys, ["design", "--p", "3", "--m", "2", "--l", "9", "--t", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "designOutput")
    assert payload["reports"]["jacobi"]["trivial"] is True


def test_design_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        ["design", "--p", "3", "--m", "2", "--l", "6", "--t", "3", "--output", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,m,l,t,class,lambda,verdict"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[4] for r in rows} == {"t3-rank2", "t3-rank1"}
    assert all(r[6] == "not-3-design" for r in rows)


def test_design_jacobi_route_needs_no_enumeration(capsys, schema):
    # GF(64)^4: C(2^24, 4) subsets, far beyond the work budget, yet the
    # closed-form census answers at once; the brute-force route refuses
    argv = ["design", "--p", "2", "--k", "6", "--m", "4", "--l", "16515072", "--t", "4"]
    start = time.monotonic()
    code, out, _ = run_cli(capsys, argv + ["--method", "jacobi"])
    assert time.monotonic() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "designOutput")
    report = payload["reports"]["jacobi"]
    assert len(report["classes"]) == 4 and report["is_t_design"] is False
    assert sum(c["subsets"] for c in report["classes"]) == comb(64**4, 4)
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv + ["--method", "both"])
    assert time.monotonic() - start < 1.0
    assert code == 1 and out == "" and "budget" in err


@pytest.mark.parametrize("field", ["class_counts", "block_count"])
def test_design_routes_disagree_on_sizes_exit_2(capsys, monkeypatch, field):
    # the lambdas and the verdict still agree: only a size comparison sees it
    honest = grmjacobi.cli.design_check_jacobi

    def skewed(code, ell, t):
        report = honest(code, ell, t)
        if field == "block_count":
            return report._replace(block_count=report.block_count + 1)
        cls = next(iter(report.class_counts))
        return report._replace(class_counts={**report.class_counts, cls: 0})

    monkeypatch.setattr(grmjacobi.cli, "design_check_jacobi", skewed)
    code, out, _ = run_cli(capsys, ["design", "--p", "3", "--m", "2", "--l", "6", "--t", "3"])
    assert code == 2
    assert json.loads(out)["agree"] is False


def test_design_empty_shell_exit_1(capsys):
    code, _, err = run_cli(
        capsys, ["design", "--p", "3", "--m", "2", "--l", "5", "--t", "2"]
    )
    assert code == 1 and "empty" in err


# ---------------------------------------------------------
# verify command
# ---------------------------------------------------------


def test_a_61_bit_prime_field_answers_at_once(capsys):
    start = time.perf_counter()
    argv = ["jacobi", "--p", str(2**61 - 1), "--m", "1", "--t-size", "2", "--method", "closed"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["n"] == 2**61 - 1
    assert time.perf_counter() - start < 1
    # a prime beyond the exact Miller-Rabin range gets one error line
    code, out, err = run_cli(capsys, ["enum", "--p", str(2**89 - 1), "--m", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "proves primality" in err


def test_verify_single_check_non_prime_field(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--only", "weight-enumerator", "--p", "2", "--k", "2", "--m", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "verifyOutput")
    assert payload["failures"] == 0
    assert payload["results"][0]["status"] == "PASS"


def test_verify_quad_count_check_q5(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--only", "count-tables-quads", "--p", "5", "--k", "1", "--m", "2"],
    )
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_verify_unknown_check_exit_1(capsys):
    code, _, err = run_cli(capsys, ["verify", "--only", "bogus"])
    assert code == 1 and "unknown checks" in err


def test_verify_k_without_p_and_m_exit_1(capsys):
    # it used to run the default grid and ignore K
    code, out, err = run_cli(capsys, ["verify", "--k", "2", "--only", "weight-enumerator"])
    assert (code, out) == (1, "")
    assert err == "error: --k needs --p and --m\n"


def test_verify_p_and_m_without_k_means_k_1(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--p", "2", "--m", "2", "--only", "weight-enumerator"])
    assert code == 0
    assert json.loads(out)["results"][0]["q"] == 2


def test_verify_pretty(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--only", "support-scalars", "--p", "3", "--m", "2", "--output", "pretty"],
    )
    assert code == 0
    assert out.startswith("PASS")


# ---------------------------------------------------------
# scan command
# ---------------------------------------------------------


def test_scan_jsonl(capsys, schema):
    code, out, _ = run_cli(capsys, ["scan", "--bound", "1e4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 10
    for line in lines:
        validate(json.loads(line), schema, "scanRecord")
    records = [json.loads(line) for line in lines]
    assert all(r["verdict"] in ("CONFIRMED", "SKIPPED") for r in records)
    assert any(r["verdict"] == "CONFIRMED" for r in records)


def test_scan_deterministic_across_workers(capsys):
    code1, out1, _ = run_cli(capsys, ["scan", "--bound", "1e4", "--workers", "1"])
    code2, out2, _ = run_cli(capsys, ["scan", "--bound", "1e4", "--workers", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


class RecordingStream(io.StringIO):
    """A stdout that tells what has been flushed from what is only written."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


def test_scan_streams_each_record_as_its_pair_finishes(monkeypatch):
    stream = RecordingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    seen = []  # (records flushed, nothing unflushed) as each pair starts
    real = conjecture.scan_pair

    def watched(q, m):
        seen.append((stream.flushed.count("\n"), stream.getvalue() == stream.flushed))
        return real(q, m)

    monkeypatch.setattr(conjecture, "scan_pair", watched)
    assert main(["scan", "--bound", "1e4", "--workers", "1"]) == 0
    pairs = conjecture.scan_pairs(10**4)
    assert seen == [(k, True) for k in range(len(pairs))]
    assert stream.flushed == stream.getvalue() and stream.flushed.count("\n") == len(pairs)


def test_scan_counterexample_exit_2_after_every_record(capsys, monkeypatch):
    real = conjecture.scan_pair

    def forged(q, m):
        res = real(q, m)
        if (q, m) == (3, 2):
            return res._replace(verdict=conjecture.COUNTEREXAMPLE, counterexample=(3, 0))
        return res

    monkeypatch.setattr(conjecture, "scan_pair", forged)
    code, out, _ = run_cli(capsys, ["scan", "--bound", "1e4"])
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert code == 2 and len(verdicts) == len(conjecture.scan_pairs(10**4))
    assert verdicts.count("COUNTEREXAMPLE") == 1 and verdicts[1] == "COUNTEREXAMPLE"


def test_scan_error_midway_keeps_the_records_written(capsys, monkeypatch):
    real = conjecture.scan_pair

    def failing(q, m):
        if (q, m) == (5, 1):
            raise RuntimeError("internal error")
        return real(q, m)

    monkeypatch.setattr(conjecture, "scan_pair", failing)
    with pytest.raises(RuntimeError):
        main(["scan", "--bound", "1e4"])
    written = [(r["q"], r["m"]) for r in map(json.loads, capsys.readouterr().out.splitlines())]
    pairs = conjecture.scan_pairs(10**4)
    assert written == pairs[: pairs.index((5, 1))]


def test_scan_exits_1_without_traceback_when_the_reader_goes_away():
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "grmjacobi.cli", "scan", "--bound", "1e8"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert json.loads(proc.stdout.readline())["q"] == 3
        proc.stdout.close()  # `scan | head -n 1`; the whole scan takes minutes
        assert proc.wait(timeout=30) == 1
        assert "Traceback" not in proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_scan_early_stop_ends_its_workers_at_once():
    # `scan --workers 2 | head -n 2`: the pool is terminated, running pairs
    # included, so no worker outlives the command
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "grmjacobi.cli", "scan", "--bound", "1e8", "--workers", "2"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        for _ in range(2):
            json.loads(proc.stdout.readline())
        proc.stdout.close()
        assert proc.wait(timeout=20) == 1
        assert "Traceback" not in proc.stderr.read().decode()
        with pytest.raises(ProcessLookupError):  # nothing is left in its session
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, 9)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stderr.close()


def test_scan_sigterm_exits_143_and_ends_its_workers():
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "grmjacobi.cli", "scan", "--bound", "1e8", "--workers", "2"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        for _ in range(2):
            json.loads(proc.stdout.readline())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 143
        assert "Traceback" not in proc.stderr.read().decode()
        with pytest.raises(ProcessLookupError):  # no worker is left in its session
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, 9)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_main_restores_the_sigterm_handler(capsys):
    before = signal.getsignal(signal.SIGTERM)
    run_cli(capsys, ["scan", "--bound", "100"])
    assert signal.getsignal(signal.SIGTERM) is before


def test_main_runs_outside_the_main_thread(capsys):
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(["scan", "--bound", "100"])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]


def test_scan_bound_beyond_the_pair_budget_exit_1(capsys):
    for bound in ("1e13", "1e400"):
        start = time.monotonic()
        code, out, err = run_cli(capsys, ["scan", "--bound", bound])
        assert time.monotonic() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


def test_scan_bad_bound_exit_1(capsys):
    for bound in ("12", "inf", "1e99999999"):
        start = time.monotonic()
        code, _, err = run_cli(capsys, ["scan", "--bound", bound])
        assert time.monotonic() - start < 1.0
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------
# enum command
# ---------------------------------------------------------


def test_enum_distribution_and_shell(capsys, schema):
    code, out, _ = run_cli(
        capsys, ["enum", "--p", "3", "--m", "2", "--l", "6"]
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema, "enumOutput")
    assert payload["weights"] == [
        {"weight": 0, "count": "1"},
        {"weight": 6, "count": "24"},
        {"weight": 9, "count": "2"},
    ]
    assert len(payload["shell"]["codewords"]) == 24


def test_enum_scans_the_code_once(capsys, monkeypatch):
    # one Field.dot per functional and point of RM_3(1, 2), 9 x 9, also
    # when the shell of --l comes with the weight distribution
    honest, calls = Field.dot, []

    def counting(self, u, v):
        calls.append(None)
        return honest(self, u, v)

    monkeypatch.setattr(Field, "dot", counting)
    for argv in (["enum", "--p", "3", "--m", "2"], ["enum", "--p", "3", "--m", "2", "--l", "6"]):
        calls.clear()
        assert run_cli(capsys, argv)[0] == 0
        assert len(calls) == 81


def test_enum_refuses_a_weight_out_of_range_before_any_scan(capsys, monkeypatch):
    monkeypatch.setattr(GrmCode, "value_rows", lambda self: pytest.fail("code scanned"))
    code, out, err = run_cli(capsys, ["enum", "--p", "3", "--m", "2", "--l", "10"])
    assert code == 1 and out == ""
    assert err == "error: weight 10 out of range [0, 9]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--p", "7", "--m", "9"],
        ["design", "--p", "7", "--m", "6", "--l", "100842", "--t", "2", "--method", "brute"],
        ["jacobi", "--p", "2", "--k", "40", "--m", "1", "--t-size", "2"],
        ["design", "--p", "7", "--m", "4", "--l", "2058", "--t", "3", "--method", "both"],
    ],
)
def test_work_beyond_budget_exit_1(capsys, argv):
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv)
    assert time.monotonic() - start < 2.0
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


# ---------------------------------------------------------
# usage errors and determinism
# ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--p", "3", "--m", "2", "--l", "6", "--t", "2"],
        ["verify", "--p", "2", "--m", "2", "--only", "jacobi-pairs"],
        ["scan", "--bound", "1e4"],
    ],
)
def test_workers_below_one_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--workers", "0"])
    assert code == 1 and out == ""
    assert err == "error: worker count must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobi", "--p", "3", "--m", "2", "--t-size", "2"],
        ["enum", "--p", "3", "--m", "2"],
    ],
)
def test_workers_only_where_a_pool_runs(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--workers", "2"])
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: unrecognized arguments: --workers 2"


def test_missing_required_flag_exit_1(capsys):
    code, _, err = run_cli(capsys, ["jacobi", "--m", "2"])
    assert code == 1


@pytest.mark.parametrize("command", ["jacobi", "verify", "enum"])
def test_csv_output_only_on_design(capsys, command):
    argv = [command, "--p", "2", "--m", "2", "--output", "csv"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: argument --output: invalid choice")


def test_missing_t_selector_exit_1(capsys):
    code, _, err = run_cli(capsys, ["jacobi", "--p", "3", "--m", "2"])
    assert code == 1 and "--t-size" in err


def test_repeated_runs_byte_identical(capsys):
    argv = ["design", "--p", "3", "--m", "2", "--l", "6", "--t", "3"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_only_verify_loads_the_checks():
    # a fresh interpreter, so that no earlier test has imported them
    script = (
        "import sys\n"
        "from grmjacobi.cli import main\n"
        "code = main(['design', '--p', '3', '--m', '2', '--l', '6', '--t', '3'])\n"
        "print('grmjacobi.checks' in sys.modules, code, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stderr.split() == ["False", "0"]


def test_a_command_loads_no_threading():
    # -S: a site-packages .pth file may import threading before main runs
    script = (
        "import sys\n"
        "from grmjacobi.cli import main\n"
        "code = main(['design', '--p', '3', '--m', '2', '--l', '6', '--t', '3'])\n"
        "print('threading' in sys.modules, code, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stderr.split() == ["False", "0"]
