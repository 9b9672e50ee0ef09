"""Deterministic worker helpers.

Work is split into contiguous chunks up front and results are merged in
chunk order (or by commutative integer sums), so every output is identical
whatever the worker count.  A worker count of 1 runs inline with no
process.

run_chunks is lazy and ordered: it yields each result in input order as
soon as that result and all before it are done, so a caller can stream
them out.  Above one worker it forks its worker processes itself: each
child inherits fn and the argument list, so nothing but a task index goes
to it, and it sends back each result pickled over its own pipe.  A
caller that stops early (closes the iterator, or lets an exception pass
through it) kills and reaps every child, running chunks included.
"""

from __future__ import annotations

import os
import signal
from typing import Iterator

_INT_BYTES = 8  # a task index, or the length of a pickled result


def spans(count: int, workers: int) -> list[tuple[int, int]]:
    """[(0, count)] at one worker; otherwise at most 4 * workers contiguous
    index ranges (lo, hi) that cover range(count), so a slow range does not
    leave others idle."""
    parts = 1 if workers <= 1 else max(1, min(4 * workers, count))
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def run_chunks(fn, args_list: list, workers: int) -> Iterator:
    """Yield fn(a) for each element a of args_list, in input order, from
    min(workers, len(args_list), os.cpu_count()) forked processes.  At one
    worker each fn(a) runs inline when its result is asked for.

    Each child gets its next task index as soon as it has sent a result,
    so a slow chunk does not hold up the others.  An exception raised by
    fn in a child is raised here; a child that ends without sending its
    result raises RuntimeError."""
    if workers <= 1 or len(args_list) <= 1:
        yield from map(fn, args_list)
        return
    # imported here, so that a one-worker run never loads them
    import pickle
    import selectors

    task_pipes: dict[int, int] = {}  # pid -> write end, while tasks may follow
    result_pipes: dict[int, int] = {}  # pid -> read end
    running: dict[int, int] = {}  # pid -> index of the task it was last sent
    selector = None
    try:
        for _ in range(min(workers, len(args_list), os.cpu_count() or 1)):
            task_read, task_write = os.pipe()
            result_read, result_write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_read, task_write, result_read, result_write):
                    os.close(fd)
                raise
            if pid == 0:
                # keep no end of another child's pipes, so each sees the
                # parent's close, and the parent each child's exit
                for fd in (*task_pipes.values(), *result_pipes.values(), task_write, result_read):
                    os.close(fd)
                _serve(fn, args_list, task_read, result_write, pickle.dumps)
            os.close(task_read)
            os.close(result_write)
            task_pipes[pid], result_pipes[pid] = task_write, result_read
        selector = selectors.DefaultSelector()
        tasks = iter(range(len(args_list)))
        for pid, fd in result_pipes.items():
            if _send_task(pid, task_pipes, tasks, running):
                selector.register(fd, selectors.EVENT_READ, pid)
        done: dict[int, object] = {}
        for index in range(len(args_list)):
            while index not in done:
                for key, _ in selector.select():
                    pid = key.data
                    size = int.from_bytes(_read_exactly(key.fd, _INT_BYTES, pid), "little")
                    ok, value = pickle.loads(_read_exactly(key.fd, size, pid))
                    if not ok:
                        raise value
                    done[running.pop(pid)] = value
                    if not _send_task(pid, task_pipes, tasks, running):
                        selector.unregister(key.fd)
            yield done.pop(index)
    finally:
        if selector is not None:
            selector.close()
        for fd in (*task_pipes.values(), *result_pipes.values()):
            os.close(fd)
        for pid in running:  # stopped early: its result is not wanted
            os.kill(pid, signal.SIGKILL)
        for pid in result_pipes:  # every other child exits on its closed task pipe
            os.waitpid(pid, 0)


def _send_task(pid: int, task_pipes: dict, tasks, running: dict) -> bool:
    """Send child pid the next task index and return True, or, when none
    is left, close its task pipe, so that it exits, and return False."""
    index = next(tasks, None)
    if index is None:
        os.close(task_pipes.pop(pid))
        return False
    running[pid] = index
    os.write(task_pipes[pid], index.to_bytes(_INT_BYTES, "little"))
    return True


def _read_exactly(fd: int, size: int, pid: int) -> bytes:
    """size bytes from a child's result pipe; RuntimeError at its end."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise RuntimeError(f"worker process {pid} exited before returning a result")
        data += chunk
    return bytes(data)


def _serve(fn, args_list, task_read: int, result_write: int, dumps) -> None:
    """The body of a child: run each task index read from task_read and
    write (True, result) or (False, exception), pickled and prefixed by its
    length, to result_write, until the task pipe closes.  Never returns."""
    status = 1
    try:
        # the parent kills a child only to stop it at once
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        while header := os.read(task_read, _INT_BYTES):
            try:
                message = dumps((True, fn(args_list[int.from_bytes(header, "little")])))
            except Exception as exc:
                message = dumps((False, exc))
            view = memoryview(len(message).to_bytes(_INT_BYTES, "little") + message)
            while view:
                view = view[os.write(result_write, view) :]
        status = 0
    finally:
        os._exit(status)
