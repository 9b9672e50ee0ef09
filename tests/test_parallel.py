import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grmjacobi
from grmjacobi._parallel import run_chunks, spans


def test_spans_cover_the_range_contiguously_and_are_bounded():
    for count in (*range(10), 84, 1820):
        for workers in (1, 2, 3, 10**6):
            ranges = spans(count, workers)
            assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(count))
            assert all(lo <= hi for lo, hi in ranges)
            assert 1 <= len(ranges) <= 4 * workers
            assert all(lo < hi for lo, hi in ranges) or ranges == [(0, 0)]
        assert spans(count, 1) == [(0, count)]


def test_cli_import_does_not_load_the_process_pool():
    # Every command starts a fresh interpreter: the import, and a one-worker
    # run that never starts a worker, load neither the worker machinery
    # nor the modules behind dataclasses.
    probe = """if True:
        import contextlib, io, sys
        heavy = ("dataclasses", "inspect", "ast", "multiprocessing", "pickle", "selectors")
        import grmjacobi.cli
        print(sorted(set(heavy) & set(sys.modules)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = grmjacobi.cli.main(["verify", "--p", "2", "--k", "1", "--m", "2"])
        print(code, sorted(set(heavy) & set(sys.modules)))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n0 []\n"


@pytest.fixture
def no_child_left():
    """Fails the test if a worker process outlives it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_size_is_capped_by_the_cpu_count(monkeypatch, no_child_left):
    forks = []
    honest = os.fork

    def counting():
        pid = honest()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    items = list(range(1820))
    chunks = [items[lo:hi] for lo, hi in spans(len(items), 10**6)]
    assert list(run_chunks(sum, chunks, 10**6)) == [sum(chunk) for chunk in chunks]
    assert len(forks) == min(len(chunks), os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pids = set(run_chunks(lambda _: os.getpid(), chunks, 10**6))
    assert len(pids) == 1 and os.getpid() not in pids
    assert pids == {forks[-1]}


def test_run_chunks_is_lazy_at_one_worker():
    calls = []

    def fn(a):
        calls.append(a)
        return -a

    results = run_chunks(fn, [1, 2, 3], 1)
    assert calls == []
    assert next(results) == -1 and calls == [1]
    assert list(results) == [-2, -3] and calls == [1, 2, 3]


def test_results_come_in_input_order_when_later_tasks_finish_first(no_child_left):
    def fn(a):
        time.sleep(0.3 if a == 0 else 0)
        return a, time.monotonic()

    results = list(run_chunks(fn, [0, 1, 2, 3], 2))
    assert [a for a, _ in results] == [0, 1, 2, 3]
    assert results[0][1] > results[3][1]  # the first task finished last


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_a_slow_chunk_does_not_hold_up_the_others(no_child_left):
    # each child draws its next chunk when it is free, so while one runs
    # the slow chunk the other runs all three fast ones; a fixed split
    # would queue chunk 2 behind chunk 0
    def fn(a):
        time.sleep(0.5 if a == 0 else 0)
        return time.monotonic()

    slow, *fast = run_chunks(fn, [0, 1, 2, 3], 2)
    assert max(fast) < slow


def test_closing_run_chunks_early_cancels_pending_work(tmp_path, no_child_left):
    def fn(a):
        (tmp_path / str(a)).touch()
        if a > 1:
            time.sleep(60)
        return a

    def started():
        return sorted(p.name for p in tmp_path.iterdir())

    results = run_chunks(fn, [1, 2, 3, 4], 2)
    assert next(results) == 1
    start = time.monotonic()
    while started() != ["1", "2", "3"] and time.monotonic() - start < 10:
        time.sleep(0.01)
    results.close()  # 2 and 3 are running, 4 is queued
    assert time.monotonic() - start < 10
    assert started() == ["1", "2", "3"]


def test_an_error_on_either_side_shuts_the_pool_down(no_child_left):
    def fn(a):
        if a == 0:
            return 1 // a
        time.sleep(60 if a > 1 else 0)
        return a

    start = time.monotonic()
    with pytest.raises(ZeroDivisionError):  # raised by fn, through the iterator
        list(run_chunks(fn, [1, 0, 2, 3], 2))
    with pytest.raises(KeyError):  # raised by the caller, which drops the iterator
        for _ in run_chunks(fn, [1, 2, 3], 2):
            raise KeyError("caller stops")
    assert time.monotonic() - start < 10


def test_a_child_that_dies_without_its_result_raises(no_child_left):
    def fn(a):
        if a == 1:
            os._exit(3)
        return a

    with pytest.raises(RuntimeError, match="exited before returning a result"):
        list(run_chunks(fn, [0, 1, 2], 2))


def _parent_handler(signum, frame):
    raise AssertionError("a worker ran its parent's SIGTERM handler")


def test_workers_take_the_default_sigterm_action(no_child_left):
    # the CLI handles SIGTERM; its forked workers must not, so that a
    # SIGTERM sent to the whole process group ends them at once
    previous = signal.signal(signal.SIGTERM, _parent_handler)
    try:
        seen = list(run_chunks(signal.getsignal, [signal.SIGTERM] * 2, 2))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert seen == [signal.SIG_DFL] * 2
