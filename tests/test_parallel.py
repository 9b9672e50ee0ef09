import os
import subprocess
import sys
from pathlib import Path

import grmjacobi
from grmjacobi._parallel import split


def test_split_is_contiguous_and_bounded():
    for n in range(10):
        items = list(range(n))
        for workers in (1, 2, 3):
            chunks = split(items, workers)
            assert [x for chunk in chunks for x in chunk] == items
            assert len(chunks) <= 4 * workers
        assert len(split(items, 1)) == 1


def test_cli_import_does_not_load_the_process_pool():
    # a one-worker run never starts a pool, so it should not pay for the import
    probe = "import sys, grmjacobi.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
