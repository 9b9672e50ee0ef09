"""The package's public names: the same 48 as when `grmjacobi/__init__.py`
imported every module, each resolved on first use to its defining
module's object, and nothing loaded until one is used."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import grmjacobi

ROOT = Path(__file__).resolve().parent.parent

# module -> the names the package exports from it
EXPORTS = {
    "field": ["Field"],
    "grm": [
        "CLASSES", "COLLINEAR_TRIPLE", "GENERIC", "Codeword", "GrmCode", "TClass",
        "class_witness", "classes_of_size", "classify_T", "closed_class_census",
        "reachable_classes", "t_class_census", "translate_T",
    ],
    "jacobi": [
        "CountTables", "JacobiPolynomial", "a_from_b", "closed_form_a", "closed_form_b",
        "closed_weight_distribution", "count_tables", "difference_degrees", "dual_jacobi",
        "dual_rank_difference_identity", "jacobi_brute_force", "jacobi_closed_form",
        "jacobi_from_a", "rank_difference_identity",
    ],
    "designs": [
        "DesignReport", "GeneralizedDesignParams", "count_blocks_containing",
        "design_check_bruteforce", "design_check_jacobi", "generalized_design_params",
    ],
    "conjecture": [
        "CONFIRMED", "COUNTEREXAMPLE", "SKIPPED", "ScanResult", "ShellCheck",
        "conjecture_scan", "dual_diff_coefficient", "dual_weight_enumerator", "scan_pairs",
    ],
}


def fresh(script: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


def test_all_lists_every_module_and_name():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) + len(EXPORTS) == 48
    assert grmjacobi.__all__ == sorted([*EXPORTS, *names])


def test_each_name_is_its_defining_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"grmjacobi.{module}")
        assert getattr(grmjacobi, module) is home
        for name in names:
            assert getattr(grmjacobi, name) is getattr(home, name), name


def test_dir_lists_every_name():
    assert set(grmjacobi.__all__) <= set(dir(grmjacobi))
    assert "__version__" in dir(grmjacobi)


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(grmjacobi, "no_such_name")


def test_import_alone_loads_no_module_of_the_package():
    proc = fresh(
        "import sys, grmjacobi\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'grmjacobi'))\n"
    )
    assert proc.stdout.split() == ["grmjacobi"], proc.stderr


def test_readmes_star_import_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    example = next(b for b in blocks if b.startswith("from grmjacobi import *"))
    proc = fresh(example)
    assert proc.returncode == 0, proc.stderr
