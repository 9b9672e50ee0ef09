"""Exact Jacobi polynomials, t-design checks, and dual-shell scans for
first-order generalized Reed-Muller codes over any prime-power field.

The public names load their modules on first use (PEP 562), so importing
the package, or the CLI before it has parsed a flag, compiles and runs
none of them."""

import importlib

_EXPORTS = {
    "field": ("Field",),
    "grm": (
        "CLASSES",
        "COLLINEAR_TRIPLE",
        "GENERIC",
        "Codeword",
        "GrmCode",
        "TClass",
        "class_witness",
        "classes_of_size",
        "classify_T",
        "closed_class_census",
        "reachable_classes",
        "t_class_census",
        "translate_T",
    ),
    "jacobi": (
        "CountTables",
        "JacobiPolynomial",
        "a_from_b",
        "closed_form_a",
        "closed_form_b",
        "closed_weight_distribution",
        "count_tables",
        "difference_degrees",
        "dual_jacobi",
        "dual_rank_difference_identity",
        "jacobi_brute_force",
        "jacobi_closed_form",
        "jacobi_from_a",
        "rank_difference_identity",
    ),
    "designs": (
        "DesignReport",
        "GeneralizedDesignParams",
        "count_blocks_containing",
        "design_check_bruteforce",
        "design_check_jacobi",
        "generalized_design_params",
    ),
    "conjecture": (
        "CONFIRMED",
        "COUNTEREXAMPLE",
        "SKIPPED",
        "ScanResult",
        "ShellCheck",
        "conjecture_scan",
        "dual_diff_coefficient",
        "dual_weight_enumerator",
        "scan_pairs",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
