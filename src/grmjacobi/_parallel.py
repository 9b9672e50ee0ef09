"""Deterministic worker-pool helpers.

Work is split into contiguous chunks up front and results are merged in
chunk order (or by commutative integer sums), so every output is identical
whatever the worker count.  A worker count of 1 runs inline with no pool.
"""

from __future__ import annotations

import os

ENV_WORKERS = "GRMJACOBI_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the GRMJACOBI_WORKERS env var, else 1."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        workers = int(raw) if raw else 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def split(items, workers: int) -> list:
    """Contiguous slices of items: one at one worker, otherwise at most
    4 * workers, so a slow slice does not leave the other workers idle."""
    count = 1 if workers <= 1 else max(1, min(4 * workers, len(items)))
    return [items[len(items) * i // count : len(items) * (i + 1) // count] for i in range(count)]


def run_chunks(fn, args_list: list, workers: int) -> list:
    """Apply fn to each element of args_list, preserving input order, in
    at most min(workers, len(args_list), os.cpu_count()) processes."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    # imported here, so that a one-worker run never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor

    processes = min(workers, len(args_list), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, args_list))
