"""Exact Jacobi polynomials, t-design checks, and dual-shell scans for
first-order generalized Reed-Muller codes over any prime-power field."""

from .field import Field
from .grm import (
    CLASSES,
    COLLINEAR_TRIPLE,
    GENERIC,
    Codeword,
    GrmCode,
    TClass,
    class_witness,
    classes_of_size,
    classify_T,
    closed_class_census,
    reachable_classes,
    t_class_census,
    translate_T,
)
from .jacobi import (
    CountTables,
    JacobiPolynomial,
    a_from_b,
    closed_form_a,
    closed_form_b,
    closed_weight_distribution,
    count_tables,
    difference_degrees,
    dual_jacobi,
    dual_rank_difference_identity,
    jacobi_brute_force,
    jacobi_closed_form,
    jacobi_from_a,
    rank_difference_identity,
)
from .designs import (
    DesignReport,
    GeneralizedDesignParams,
    count_blocks_containing,
    design_check_bruteforce,
    design_check_jacobi,
    generalized_design_params,
)
from .conjecture import (
    CONFIRMED,
    COUNTEREXAMPLE,
    SKIPPED,
    ScanResult,
    ShellCheck,
    conjecture_scan,
    dual_diff_coefficient,
    dual_weight_enumerator,
    scan_pairs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
