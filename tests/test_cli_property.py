"""Command lines built at random from the CLI's grammar, with small and
hostile values, run through cli.main in this process at one worker under a
small work budget: whatever the input, main returns 0, 1 or 2 within its
alarm, raises nothing, and an exit 1 prints exactly one `error:` line."""

import signal

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from grmjacobi import grm
from grmjacobi.checks import CHECKS
from grmjacobi.cli import main

from conftest import SMALL_CODES

ALARM_S = 20

HOSTILE = ["-1", "0", str(10**30), "1e400", "2.5", "x", ""]
small = st.integers(-1, 9).map(str)
numbers = st.one_of(small, small, small, st.sampled_from(HOSTILE))
digits = st.integers(0, 3).map(str)
points = st.one_of(
    st.lists(st.lists(digits, min_size=1, max_size=3), min_size=1, max_size=5).map(
        lambda pts: ";".join("(" + ",".join(p) + ")" for p in pts)
    ),
    st.sampled_from(["(0,0", "0,0", "(a)", "((1))", ";", "", "(0);(0)", "(-1)", "(9,9)"]),
)


def flag(name, values):
    """[name, value], or, one time in four, nothing."""
    given = values.map(lambda v: [name, v])
    return st.one_of(given, given, given, st.just([]))


def code_flags():
    return st.one_of(
        # a small code: a subset pass of verify has no budget of its own yet
        st.sampled_from(SMALL_CODES).map(
            lambda code: [["--p", str(code[0])], ["--k", str(code[1])], ["--m", str(code[2])]]
        ),
        st.tuples(flag("--p", numbers), flag("--k", numbers), flag("--m", numbers)),
        # large extension degrees over a line
        st.tuples(
            st.just(["--p", "2"]),
            st.sampled_from(["12", "16", "40", "100", "300", str(10**30)]).map(lambda k: ["--k", k]),
            st.just(["--m", "1"]),
        ),
        # a prime on either side of the limit of the exact primality test
        st.tuples(
            st.sampled_from([str(2**61 - 1), str(2**89 - 1)]).map(lambda p: ["--p", p]),
            st.just(["--m", "1"]),
        ),
    ).map(lambda parts: [a for part in parts for a in part])


workers = flag("--workers", st.sampled_from(["1", "0", "-1", "x"]))
outputs = flag("--output", st.sampled_from(["json", "pretty", "csv", "x"]))
commands = st.one_of(
    st.tuples(
        st.just(["jacobi"]),
        code_flags(),
        st.one_of(
            points.map(lambda pts: ["--points", pts]),
            st.tuples(
                flag("--t-size", numbers),
                flag("--rank", numbers),
                flag("--subcase", st.sampled_from(["generic", "collinear-triple", "x"])),
            ).map(lambda parts: [a for part in parts for a in part]),
        ),
        flag("--method", st.sampled_from(["brute", "closed", "both", "x"])),
        outputs,
    ),
    st.tuples(
        st.just(["design"]),
        code_flags(),
        flag("--l", numbers),
        flag("--t", numbers),
        flag("--method", st.sampled_from(["jacobi", "brute", "both", "x"])),
        outputs,
        workers,
    ),
    st.tuples(
        st.just(["verify"]),
        code_flags(),
        st.lists(st.sampled_from([*CHECKS, "x"]), max_size=3).map(
            lambda names: [a for name in names for a in ("--only", name)]
        ),
        workers,
    ),
    # not the default bound 1e7: a scan's pairs have no budget yet
    st.tuples(st.just(["scan", "--bound"]), numbers.map(lambda v: [v]), workers),
    st.tuples(st.just(["enum"]), code_flags(), flag("--l", numbers), outputs),
    st.just([["frobnicate"]]),
).map(lambda parts: [a for part in parts for a in part])


def _alarm(signum, frame):
    raise TimeoutError(f"a call outlived its {ALARM_S} s alarm")


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(grm, "WORK_BUDGET", 2 * 10**5)


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    phases=[Phase.generate, Phase.shrink],  # no explain phase: it traces every line
)
@given(commands)
def test_every_command_line_exits_0_1_or_2(small_budget, capsys, argv):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    if code == 1:
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, (argv, err)
