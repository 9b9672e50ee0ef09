"""Deterministic worker-pool helpers.

Work is split into contiguous chunks up front and results are merged in
chunk order (or by commutative integer sums), so every output is identical
whatever the worker count.  A worker count of 1 runs inline with no pool.

run_chunks is lazy and ordered: it yields each result in input order as
soon as that result and all before it are done, so a caller can stream
them out.  A caller that stops early (closes the iterator, or lets an
exception pass through it) terminates the pool, running chunks included.
"""

from __future__ import annotations

import os
import signal
from typing import Iterator


def split(items, workers: int) -> list:
    """Contiguous slices of items: one at one worker, otherwise at most
    4 * workers, so a slow slice does not leave the other workers idle."""
    count = 1 if workers <= 1 else max(1, min(4 * workers, len(items)))
    return [items[len(items) * i // count : len(items) * (i + 1) // count] for i in range(count)]


def run_chunks(fn, args_list: list, workers: int) -> Iterator:
    """Yield fn(a) for each element a of args_list, in input order, from
    at most min(workers, len(args_list), os.cpu_count()) processes.  At
    one worker each fn(a) runs inline when its result is asked for."""
    if workers <= 1 or len(args_list) <= 1:
        yield from map(fn, args_list)
        return
    # imported here, so that a one-worker run never loads the pool machinery
    import multiprocessing

    processes = min(workers, len(args_list), os.cpu_count() or 1)
    # workers drop the parent's SIGTERM handler, so terminate() ends them at once
    pool = multiprocessing.Pool(processes, signal.signal, (signal.SIGTERM, signal.SIG_DFL))
    try:
        yield from pool.imap(fn, args_list)
    finally:
        # after the last result the workers are idle; after an early stop
        # the queued and the running calls are dropped alike
        pool.terminate()
        pool.join()
