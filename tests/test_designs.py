from itertools import combinations
from math import comb

import pytest

from grmjacobi import (
    COLLINEAR_TRIPLE,
    GENERIC,
    Field,
    GrmCode,
    TClass,
    count_blocks_containing,
    design_check_bruteforce,
    design_check_jacobi,
    generalized_design_params,
)
from grmjacobi import designs, grm
from grmjacobi.checks import run_checks
from grmjacobi.designs import route_disagreement
from grmjacobi.grm import BudgetExceeded

from conftest import SMALL_CODES, get_code


# ---------------------------------------------------------
# Pair designs
# ---------------------------------------------------------


def test_middle_shell_is_2_design_with_lambda_10(code_3_2):
    jac = design_check_jacobi(code_3_2, 6, 2)
    blk = design_check_bruteforce(code_3_2, 6, 2)
    for report in (jac, blk):
        assert report.is_t_design and not report.trivial
        assert report.lambdas() == (10,)
        assert report.block_count == 24
        assert sum(report.class_counts.values()) == 36
    assert jac.lambda_by_class == blk.lambda_by_class


def test_full_shell_is_flagged_trivial(code_3_2):
    report = design_check_bruteforce(code_3_2, 9, 2)
    assert report.trivial and report.is_t_design
    assert report.lambdas() == (2,)  # the q-1 repeated full blocks


@pytest.mark.parametrize("p,k,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)])
def test_every_nontrivial_shell_is_a_2_design(p, k, m):
    code = get_code(p, k, m)
    ell = (code.q - 1) * code.q ** (code.m - 1)
    jac = design_check_jacobi(code, ell, 2)
    blk = design_check_bruteforce(code, ell, 2)
    assert jac.is_t_design and blk.is_t_design
    assert jac.lambda_by_class == blk.lambda_by_class


# ---------------------------------------------------------
# Triple designs
# ---------------------------------------------------------


def test_not_a_3_design_at_q3_m2(code_3_2):
    jac = design_check_jacobi(code_3_2, 6, 3)
    blk = design_check_bruteforce(code_3_2, 6, 3)
    for report in (jac, blk):
        assert not report.is_t_design
        assert report.lambda_by_class[TClass(3, 2)] == 6
        assert report.lambda_by_class[TClass(3, 1)] == 4
    assert jac.lambda_by_class == blk.lambda_by_class


def test_binary_shells_are_3_designs():
    # over GF(2) the rank-1 triple class is empty, so one count remains
    code = get_code(2, 1, 3)
    jac = design_check_jacobi(code, 4, 3)
    blk = design_check_bruteforce(code, 4, 3)
    assert jac.is_t_design and blk.is_t_design
    assert jac.lambdas() == blk.lambdas() == (1,)


@pytest.mark.parametrize("p,k,m", [(3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)])
def test_no_3_design_when_q_at_least_3(p, k, m):
    code = get_code(p, k, m)
    ell = (code.q - 1) * code.q ** (code.m - 1)
    jac = design_check_jacobi(code, ell, 3)
    blk = design_check_bruteforce(code, ell, 3)
    assert not jac.is_t_design and not blk.is_t_design
    assert jac.lambda_by_class == blk.lambda_by_class
    assert len(jac.lambdas()) == 2


# ---------------------------------------------------------
# Quadruple designs and double counting
# ---------------------------------------------------------


@pytest.mark.parametrize("p,k,m", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_routes_agree_for_quads(p, k, m):
    code = get_code(p, k, m)
    ell = (code.q - 1) * code.q ** (code.m - 1)
    if ell < 4:
        pytest.skip("middle shell smaller than 4")
    jac = design_check_jacobi(code, ell, 4)
    blk = design_check_bruteforce(code, ell, 4)
    assert jac.lambda_by_class == blk.lambda_by_class
    assert jac.is_t_design == blk.is_t_design
    # the chunked two-worker brute-force route merges to the same report
    assert design_check_bruteforce(code, ell, 4, workers=2) == blk


@pytest.mark.parametrize("t", [2, 3, 4])
def test_double_counting(code_3_2, t):
    ell = 6
    report = design_check_bruteforce(code_3_2, ell, t)
    total = sum(
        report.lambda_by_class[cls] * count for cls, count in report.class_counts.items()
    )
    assert total == report.block_count * comb(ell, t)


def test_brute_force_design_evaluates_each_functional_once(monkeypatch):
    # one scan of the code: a Field.dot per functional and point, q^m x n
    code = GrmCode(Field(3), 2)
    calls = []
    dot = Field.dot
    monkeypatch.setattr(Field, "dot", lambda self, u, v: calls.append(1) or dot(self, u, v))
    assert design_check_bruteforce(code, 6, 3).block_count == 24
    assert len(calls) == 9 * 9


@pytest.mark.parametrize("route", ["design", "verify"])
def test_a_one_worker_full_pass_draws_each_subset_as_it_classifies_it(monkeypatch, route):
    # the kernel reads the combinations as they come, with no list of them
    # first: when it profiles a prefix's subsets it has drawn at most one
    # more, the first of the next prefix, which ends the group
    drawn = profiled = 0
    honest = grm._leaf_profiles

    def counting_combinations(*args):
        nonlocal drawn
        for sub in combinations(*args):
            drawn += 1
            yield sub

    def checking(sweep, prefix, start, stop):
        nonlocal profiled
        profiled += stop - start
        assert profiled <= drawn <= profiled + 1
        return honest(sweep, prefix, start, stop)

    monkeypatch.setattr(grm, "combinations", counting_combinations)
    monkeypatch.setattr(grm, "_leaf_profiles", checking)
    if route == "design":
        design_check_bruteforce(get_code(3, 1, 2), 6, 3)
    else:
        (result,) = run_checks(pairs=((3, 1, 2),), only=["jacobi-triples"])
        assert (result.status, result.detail) == ("PASS", "full sweep over 84 subsets")
    assert profiled == drawn == 84


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sample_of_every_subset_gives_the_sweeps_profiles(workers):
    code = get_code(2, 2, 2)
    masks, _ = designs.block_masks(code, 12, 4)
    listed = list(combinations(range(code.n), 4))
    expected = list(grm.subset_pass(code, 4, len(listed), True, masks, workers).items())
    assert len(expected) == 3  # the three quad classes of GF(4)^2
    assert list(grm.subset_pass(code, 4, listed, True, masks, workers).items()) == expected


def test_count_blocks_containing_matches_report(code_3_2):
    shell = code_3_2.shell(6)
    report = design_check_bruteforce(code_3_2, 6, 3)
    pts = code_3_2.points()
    from grmjacobi import classify_T

    for T in (((0, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (2, 0))):
        cls = classify_T(code_3_2, T)
        assert count_blocks_containing(code_3_2, shell, T) == report.lambda_by_class[cls]


# ---------------------------------------------------------
# Errors
# ---------------------------------------------------------


def test_empty_shell_rejected(code_3_2):
    with pytest.raises(ValueError):
        design_check_jacobi(code_3_2, 5, 2)
    with pytest.raises(ValueError):
        design_check_bruteforce(code_3_2, 5, 2)


def test_bad_t_rejected(code_3_2):
    with pytest.raises(ValueError):
        design_check_jacobi(code_3_2, 6, 5)


def _message(check, *args) -> str:
    with pytest.raises(ValueError) as err:
        check(*args)
    return str(err.value)


@pytest.mark.parametrize("p,k,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)])
def test_block_count_matches_enumerated_shell(p, k, m):
    # the Jacobi route counts blocks from the closed-form weight
    # distribution; brute force enumerates the shell and keeps the errors
    code = get_code(p, k, m)
    for ell in range(-1, code.n + 2):
        if 0 <= ell <= code.n and code.shell(ell):
            assert design_check_jacobi(code, ell, 2).block_count == len(code.shell(ell))
        else:
            assert _message(design_check_jacobi, code, ell, 2) == _message(
                design_check_bruteforce, code, ell, 2
            )
    for t in (1, 5):
        assert _message(design_check_jacobi, code, -1, t) == _message(
            design_check_bruteforce, code, -1, t
        )


@pytest.mark.parametrize("p,k,m", SMALL_CODES)
def test_shells_lighter_than_t_have_lambda_0_on_both_routes(p, k, m):
    # the Jacobi route reads lambda off a term whose y-exponent ell - t is
    # negative, so absent; brute force finds no block through t positions
    code = get_code(p, k, m)
    for t in (2, 3, 4):
        for ell in range(min(t, code.n + 1)):
            if code.shell(ell):
                via_jacobi = design_check_jacobi(code, ell, t)
                via_blocks = design_check_bruteforce(code, ell, t)
                assert route_disagreement(via_jacobi, via_blocks) is None, (ell, t)
                assert set(via_jacobi.lambda_by_class.values()) <= {0}, (ell, t)


def test_budget_guard(monkeypatch, code_3_2):
    # C(9, 3) = 84 triples x 24 blocks
    monkeypatch.setattr(grm, "WORK_BUDGET", 84 * 24 - 1)
    with pytest.raises(BudgetExceeded):
        design_check_bruteforce(code_3_2, 6, 3)
    monkeypatch.setattr(grm, "WORK_BUDGET", 84 * 24)
    assert design_check_bruteforce(code_3_2, 6, 3).block_count == 24


def test_budget_refuses_before_enumerating_the_shell(monkeypatch):
    code = GrmCode(Field(3), 2)  # a private instance: its scan is patched
    monkeypatch.setattr(code, "value_rows", lambda: pytest.fail("code scanned"))
    monkeypatch.setattr(grm, "WORK_BUDGET", 36 * 24 - 1)
    with pytest.raises(
        BudgetExceeded,
        match=r"^C\(9, 2\) subsets x 24 blocks = 864 exceeds the work budget 863$",
    ):
        design_check_bruteforce(code, 6, 2)


# ---------------------------------------------------------
# Generalized design parameters
# ---------------------------------------------------------


def test_generalized_params_t3_q3_m2(code_3_2):
    params = generalized_design_params(code_3_2, 6, 3)
    assert (params.v, params.k) == (9, 6)
    assert params.lambdas() == (6, 4)
    assert params.applicable()


def test_generalized_params_t3_q5_m2():
    params = generalized_design_params(get_code(5, 1, 2), 20, 3)
    assert (params.v, params.k) == (25, 20)
    assert params.lambdas() == (60, 56)


def test_generalized_params_t4_q3_m3_flags_impossible_class():
    code = get_code(3, 1, 3)
    params = generalized_design_params(code, 18, 4)
    by_class = {c.tclass: c for c in params.classes}
    rank1 = by_class[TClass(4, 1)]
    assert rank1.lam == -2  # the formula goes negative at q = 3
    assert not rank1.nonempty  # and indeed no rank-1 quadruple exists
    assert not params.applicable()


def test_generalized_params_t4_q4_m3_applicable():
    code = get_code(2, 2, 3)
    params = generalized_design_params(code, 48, 4)
    assert params.applicable()
    assert params.lambdas() == (78, 69, 81, 45)
    order = [c.tclass for c in params.classes]
    assert order == [
        TClass(4, 3),
        TClass(4, 2, COLLINEAR_TRIPLE),
        TClass(4, 2, GENERIC),
        TClass(4, 1),
    ]


def test_jacobi_report_lists_its_classes_in_table_order():
    report = design_check_jacobi(get_code(2, 2, 3), 48, 4).to_json_dict()
    labels = [c["class"] for c in report["classes"]]
    assert labels == [cls.label() for cls in grm.classes_of_size(4)]


def test_generalized_params_validation(code_3_2):
    with pytest.raises(ValueError):
        generalized_design_params(code_3_2, 9, 3)  # not the middle shell
    with pytest.raises(ValueError):
        generalized_design_params(code_3_2, 6, 2)  # unsupported t
