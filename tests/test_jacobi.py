import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from grmjacobi import (
    COLLINEAR_TRIPLE,
    GENERIC,
    JacobiPolynomial,
    TClass,
    a_from_b,
    classes_of_size,
    classify_T,
    closed_form_a,
    closed_form_b,
    count_tables,
    difference_degrees,
    dual_jacobi,
    dual_rank_difference_identity,
    jacobi_brute_force,
    jacobi_closed_form,
    jacobi_from_a,
    rank_difference_identity,
)
from grmjacobi import Field, GrmCode, grm, jacobi
from grmjacobi.grm import BudgetExceeded, _row_sums, translate_T
from grmjacobi.jacobi import binom_conv

from conftest import SMALL_CODES, get_code


def subsets(code, t, count=None, seed=11):
    pts = code.points()
    sets = [tuple(pts[i] for i in sub) for sub in combinations(range(code.n), t)]
    if count is None or len(sets) <= count:
        return sets
    return random.Random(seed).sample(sets, count)


# ---------------------------------------------------------
# Brute force basics
# ---------------------------------------------------------


def test_empty_T_gives_weight_enumerator(code_3_2):
    jac = jacobi_brute_force(code_3_2, ())
    assert jac == JacobiPolynomial(
        0, 9, {(0, 0, 9, 0): 1, (0, 0, 3, 6): 24, (0, 0, 0, 9): 2}
    )
    assert jac == jacobi_brute_force(code_3_2, (), full_scan=True)


def test_single_point_preserves_code_size(code_3_2):
    for point in code_3_2.points():
        jac = jacobi_brute_force(code_3_2, (point,))
        assert jac.evaluate(1, 1, 1, 1) == 27


def test_fast_path_equals_full_scan():
    for p, k, m in ((3, 1, 2), (2, 2, 2), (2, 1, 3)):
        code = get_code(p, k, m)
        for t in (0, 1, 2, 3, 4):
            for T in subsets(code, t, count=8, seed=t + 1):
                fast = jacobi_brute_force(code, T)
                slow = jacobi_brute_force(code, T, full_scan=True)
                assert fast == slow


def test_brute_force_builds_columns_once_in_the_caller(monkeypatch, code_3_2):
    T = ((0, 0), (1, 0), (0, 1))
    one = jacobi_brute_force(code_3_2, T)
    calls = []
    honest = GrmCode.value_mask

    def counting(self, u):
        calls.append(u)
        return honest(self, u)

    monkeypatch.setattr(GrmCode, "value_mask", counting)
    assert jacobi_brute_force(code_3_2, T) == one
    assert calls == list(T)


def test_enumerations_refuse_beyond_budget(monkeypatch, code_3_2):
    T = ((0, 0), (1, 0), (0, 1))
    # 3 points x 9 functional values, or 27 codewords x 9 positions
    monkeypatch.setattr(grm, "WORK_BUDGET", 3 * 9 - 1)
    for run in (count_tables, jacobi_brute_force):
        with pytest.raises(BudgetExceeded, match="^3 points x 9 functional values = 27 "):
            run(code_3_2, T)
    monkeypatch.setattr(grm, "WORK_BUDGET", 3 * 9)
    assert count_tables(code_3_2, T).t == 3
    with pytest.raises(BudgetExceeded, match="^27 codewords x 9 positions = 243 "):
        jacobi_brute_force(code_3_2, T, full_scan=True)


def test_the_tally_asks_for_its_masks_too(monkeypatch):
    # over GF(128) a mask holds q * n = 16384 bits, 256 words, for n = 128
    # functional values
    code = GrmCode(Field(2, 7), 1)
    T = ((1,), (2,))
    monkeypatch.setattr(grm, "WORK_BUDGET", 2 * 256 - 1)
    for run in (count_tables, jacobi_brute_force):
        with pytest.raises(BudgetExceeded, match="^2 masks x 256 words = 512 "):
            run(code, T)
    monkeypatch.setattr(grm, "WORK_BUDGET", 2 * 256)
    assert count_tables(code, T).t == 2


def test_brute_force_large_code():
    from grmjacobi import Field, GrmCode, TClass

    code = GrmCode(Field(2), 12)
    zero = tuple(0 for _ in range(12))
    e0 = tuple(1 if i == 0 else 0 for i in range(12))
    e1 = tuple(1 if i == 1 else 0 for i in range(12))
    jac = jacobi_brute_force(code, (zero, e0, e1))
    assert jac == jacobi_closed_form(code, TClass(3, 2))


@st.composite
def code_and_points(draw):
    code = get_code(*draw(st.sampled_from(SMALL_CODES)))
    indices = draw(st.lists(st.integers(0, code.n - 1), max_size=5, unique=True))
    pts = code.points()
    return code, tuple(pts[i] for i in indices)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(code_and_points())
def test_brute_force_agrees_with_every_route(case):
    code, T = case
    brute = jacobi_brute_force(code, T)
    assert brute == jacobi_brute_force(code, T, full_scan=True)
    assert brute == jacobi_from_a(count_tables(code, T).a, code.q, code.m, len(T))
    if 2 <= len(T) <= 4:
        assert brute == jacobi_closed_form(code, classify_T(code, T))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(code_and_points(), st.data())
def test_tally_row_sums_do_not_change_under_translation(case, data):
    # each functional's values on T + v are its values on T shifted by a
    # constant, so the values it takes on exactly i points are permuted
    # and their number b_i is kept
    code, T = case
    v = data.draw(st.sampled_from(code.points()))
    row_sums = _row_sums(code, T)
    shifted = translate_T(code.field, T, v)
    assert _row_sums(code, shifted) == row_sums
    assert count_tables(code, T).b == row_sums


def counted_row_sums(code, T):
    """b[i] counts the pairs of a functional and a value it takes on
    exactly i points of T, one functional at a time by Field.dot."""
    b = [0] * (len(T) + 1)
    for c in code.codewords():
        if not c.b:
            values = [code.field.dot(c.lam, u) for u in T]
            for v in code.field.elements():
                b[values.count(v)] += 1
    return tuple(b)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SMALL_CODES), st.data())
def test_tally_row_sums_equal_a_count_per_functional(case, data):
    code = get_code(*case)
    t = data.draw(st.integers(0, min(7, code.n)))
    indices = data.draw(st.lists(st.integers(0, code.n - 1), min_size=t, max_size=t, unique=True))
    T = tuple(code.point(i) for i in indices)
    assert _row_sums(code, T) == counted_row_sums(code, T)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SMALL_CODES), st.data())
def test_tally_lane_sets_hold_the_lanes_that_i_masks_hold(case, data):
    # the sweep kernel ANDs each set with a point's value mask, so the
    # sets' sizes, which the row sums check, do not cover it
    code = get_code(*case)
    t = data.draw(st.integers(0, min(7, code.n)))
    indices = data.draw(st.lists(st.integers(0, code.n - 1), min_size=t, max_size=t, unique=True))
    masks = [code.value_mask(code.point(i)) for i in indices]
    expected = [0] * t
    for bit in range(code.size):
        held = sum(mask >> bit & 1 for mask in masks)
        if held:
            expected[held - 1] |= 1 << bit
    assert grm._lanes(masks, t) == expected


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(code_and_points())
def test_dual_transform_is_an_involution(case):
    code, T = case
    jac = jacobi_brute_force(code, T)
    dual = dual_jacobi(jac, code.size, code.q)
    assert dual_jacobi(dual, code.q**code.n // code.size, code.q) == jac


def test_brute_force_input_validation(code_3_2):
    with pytest.raises(ValueError):
        jacobi_brute_force(code_3_2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        jacobi_brute_force(code_3_2, ((9, 9),))


# ---------------------------------------------------------
# Closed forms
# ---------------------------------------------------------


def test_pair_polynomial_q3_m2(code_3_2):
    expected = JacobiPolynomial(
        2,
        9,
        {
            (2, 0, 7, 0): 1,
            (2, 0, 1, 6): 2,
            (1, 1, 2, 5): 12,
            (0, 2, 3, 4): 10,
            (0, 2, 0, 7): 2,
        },
    )
    assert jacobi_closed_form(code_3_2, TClass(2, 1)) == expected
    for T in subsets(code_3_2, 2):
        assert jacobi_brute_force(code_3_2, T) == expected


def test_triple_coefficients_q3_m2(code_3_2):
    rank2 = jacobi_closed_form(code_3_2, TClass(3, 2))
    rank1 = jacobi_closed_form(code_3_2, TClass(3, 1))
    assert rank2.coefficient(0, 3, 3, 3) == 6
    assert rank1.coefficient(0, 3, 3, 3) == 4


@pytest.mark.parametrize("p,k,m", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_equivalence_all_T_sizes_2_to_4(p, k, m):
    code = get_code(p, k, m)
    for t in (2, 3, 4):
        if code.n < t:
            continue
        for T in subsets(code, t):
            cls = classify_T(code, T)
            assert jacobi_brute_force(code, T) == jacobi_closed_form(code, cls), (t, T)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4)])
def test_equivalence_over_larger_extension_fields(p, k):
    # length-q codes over GF(8), GF(9), GF(16): every class here is rank 1
    code = get_code(p, k, 1)
    for t in (2, 3, 4):
        for T in subsets(code, t, count=30, seed=t):
            cls = classify_T(code, T)
            assert cls.rank == 1
            assert jacobi_brute_force(code, T) == jacobi_closed_form(code, cls)


def test_rank2_quads_match_their_own_polynomial_only(code_3_2):
    generic_T = ((0, 0), (1, 0), (0, 1), (1, 1))
    collinear_T = ((0, 0), (1, 0), (0, 1), (2, 0))
    generic = jacobi_closed_form(code_3_2, TClass(4, 2, GENERIC))
    collinear = jacobi_closed_form(code_3_2, TClass(4, 2, COLLINEAR_TRIPLE))
    assert jacobi_brute_force(code_3_2, generic_T) == generic
    assert jacobi_brute_force(code_3_2, generic_T) != collinear
    assert jacobi_brute_force(code_3_2, collinear_T) == collinear


def test_closed_form_a_admits_exactly_the_class_table():
    for cls in grm.CLASSES:
        assert len(closed_form_a(cls, 4, 3)) == cls.t + 1
    for cls in (TClass(4, 2), TClass(3, 2, GENERIC), TClass(5, 1)):
        with pytest.raises(ValueError):
            closed_form_a(cls, 4, 3)
    with pytest.raises(ValueError, match="rank 3"):
        closed_form_a(TClass(4, 3), 4, 2)


def test_closed_form_validation(code_3_2):
    with pytest.raises(ValueError):
        jacobi_closed_form(code_3_2, TClass(5, 1))
    with pytest.raises(ValueError):
        jacobi_closed_form(code_3_2, TClass(4, 3))  # rank 3 needs m >= 3
    with pytest.raises(ValueError):
        jacobi_closed_form(code_3_2, TClass(4, 2))  # sub-case required
    with pytest.raises(ValueError):
        jacobi_closed_form(code_3_2, TClass(3, 2, GENERIC))  # stray sub-case
    with pytest.raises(ValueError):
        # |T| exceeds the code length
        jacobi_closed_form(get_code(3, 1, 1), TClass(4, 1))


# ---------------------------------------------------------
# Count tables
# ---------------------------------------------------------


def test_count_tables_pair_example(code_3_2):
    tables = count_tables(code_3_2, ((0, 0), (0, 1)))
    assert tables.b == (12, 12, 3)
    assert tables.a == (2, 12, 10)


def test_count_tables_triple_examples(code_3_2):
    rank2 = count_tables(code_3_2, ((0, 0), (1, 0), (0, 1)))
    assert rank2.b == (8, 12, 6, 1)
    rank1 = count_tables(code_3_2, ((0, 0), (1, 0), (2, 0)))
    assert rank1.b == (6, 18, 0, 3)
    assert rank1.a == (2, 0, 18, 4)


def test_count_tables_column_sums(code_3_2):
    for T in subsets(code_3_2, 3, count=10):
        tables = count_tables(code_3_2, T)
        assert sum(tables.b) == 9 * 3  # every (functional, value) pair once
        assert sum(tables.a) == 27 - 3


def test_count_tables_translates_first(code_3_2):
    # same tables whether or not T contains the zero point
    with_zero = count_tables(code_3_2, ((0, 0), (1, 0), (0, 1)))
    shifted = count_tables(code_3_2, ((2, 2), (0, 2), (2, 0)))
    assert with_zero.b == shifted.b and with_zero.a == shifted.a


def test_count_tables_checks_its_points():
    for code, T in (
        (get_code(3, 1, 2), ((0, 0), (3, 0))),  # 3 is not an element of GF(3)
        (get_code(2, 2, 2), ((5, 0),)),  # nor 5 of GF(4)
        (get_code(3, 1, 2), ((0, 1), (0, 1))),
        (get_code(3, 1, 2), ((0, 1, 0),)),
    ):
        with pytest.raises(ValueError):
            count_tables(code, T)


def test_count_tables_of_the_empty_set(code_3_2):
    tables = count_tables(code_3_2, ())
    assert sum(tables.b) == 9 * 3
    assert tables.b == (27,) and tables.a == (24,)


def test_closed_b_is_the_b_that_a_from_b_maps_to_closed_a():
    # a_from_b reverses b and shifts two entries, so it is one-to-one: where
    # a profile's a matches the closed a, its b matches the closed b too,
    # and count_mismatch's "b" branch fires only if the two closed forms
    # disagree.  Both are formulas, so q runs over integers, prime powers
    # or not.  No line of GF(2)^m holds three points, so the rank-1 triple
    # starts at q = 3 (at q = 2 its formula's a_3 is -1).
    for cls in classes_of_size(2) + classes_of_size(3):
        for q in range(3 if cls == TClass(3, 1) else 2, 14):
            for m in range(cls.rank, 7):
                b = closed_form_b(cls, q, m)
                assert a_from_b(b, cls.t, q) == closed_form_a(cls, q, m), (cls, q, m)


def test_closed_b_vectors_match_enumeration():
    for p, k, m in ((3, 1, 2), (2, 2, 2), (5, 1, 2)):
        code = get_code(p, k, m)
        for t in (2, 3):
            for T in subsets(code, t, count=25, seed=t):
                cls = classify_T(code, T)
                tables = count_tables(code, T)
                assert tables.b == closed_form_b(cls, code.q, code.m)
                assert tables.a == closed_form_a(cls, code.q, code.m)


def test_a_from_b_examples():
    assert a_from_b((12, 12, 3), 2, 3) == (2, 12, 10)
    assert a_from_b((6, 18, 0, 3), 3, 3) == (2, 0, 18, 4)
    with pytest.raises(RuntimeError):
        a_from_b((0, 0, 0), 2, 3)  # would go negative
    with pytest.raises(ValueError):
        a_from_b((1, 2), 2, 3)  # wrong length


def test_count_table_route_equals_brute_force(code_3_2):
    for t in (2, 3, 4):
        for T in subsets(code_3_2, t, count=20, seed=t + 40):
            assembled = jacobi_from_a(count_tables(code_3_2, T).a, 3, 2, t)
            assert assembled == jacobi_brute_force(code_3_2, T)


# ---------------------------------------------------------
# Assembly
# ---------------------------------------------------------


def test_jacobi_from_a_assembles_pair_polynomial(code_3_2):
    assert jacobi_from_a((2, 12, 10), 3, 2, 2) == jacobi_closed_form(
        code_3_2, TClass(2, 1)
    )


def test_jacobi_from_a_degenerate_t0():
    # with t = 0 the assembly is weight-enumerator shaped
    assert jacobi_from_a((24,), 3, 2, 0) == JacobiPolynomial(
        0, 9, {(0, 0, 9, 0): 1, (0, 0, 3, 6): 24, (0, 0, 0, 9): 2}
    )


def test_jacobi_from_a_evaluation_is_code_size():
    for t, a in ((2, (2, 12, 10)), (3, (0, 6, 12, 6))):
        jac = jacobi_from_a(a, 3, 2, t)
        assert jac.evaluate(1, 1, 1, 1) == 1 + sum(a) + 2


def test_jacobi_from_a_rejects_negative_exponents():
    with pytest.raises(ValueError):
        # q=2, m=1, t=2: the i=0 stratum would need x^(1-2)
        jacobi_from_a((1, 0, 0), 2, 1, 2)


# ---------------------------------------------------------
# Dual transform
# ---------------------------------------------------------


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(-50, 50).filter(bool))
def test_jacobi_from_a_is_injective(delta):
    # verify compares a-vectors in place of polynomials: sound because each
    # a_i has a monomial of its own, or no polynomial at all (a stratum
    # with a negative exponent must be empty)
    for p, k, m in ((3, 1, 2), (2, 2, 2), (2, 1, 3)):
        code = get_code(p, k, m)
        q = code.q
        for cls in (c for t in (2, 3, 4) for c in grm.reachable_classes(code, t)):
            a = closed_form_a(cls, q, m)
            closed = jacobi_from_a(a, q, m, cls.t)
            for i in range(cls.t + 1):
                changed = a[:i] + (a[i] + delta,) + a[i + 1:]
                if q ** (m - 1) < cls.t - i:
                    with pytest.raises(ValueError, match="negative exponent"):
                        jacobi_from_a(changed, q, m, cls.t)
                else:
                    assert jacobi_from_a(changed, q, m, cls.t) != closed, (q, m, cls, i)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 40), st.integers(1, 30), st.integers(0, 40))
@example(0, 1, 0)
@example(0, 7, 40)
@example(40, 7, 0)
@example(5, 30, 5)
def test_binom_conv_equals_direct_double_sum(a, alpha, b):
    direct = [
        sum(
            comb(a, i) * alpha**i * comb(b, j - i) * (-1) ** (j - i)
            for i in range(max(0, j - b), min(a, j) + 1)
        )
        for j in range(a + b + 1)
    ]
    assert list(binom_conv(a, alpha, b)) == direct


def test_dual_of_even_weight_code_is_repetition(code_2_2):
    primal = jacobi_brute_force(code_2_2, (), full_scan=True)
    assert primal == JacobiPolynomial(0, 4, {(0, 0, 4, 0): 1, (0, 0, 2, 2): 6, (0, 0, 0, 4): 1})
    dual = dual_jacobi(primal, 8, 2)
    assert dual == JacobiPolynomial(0, 4, {(0, 0, 4, 0): 1, (0, 0, 0, 4): 1})


@pytest.mark.parametrize("p,k,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_dual_eval_and_involution(p, k, m):
    code = get_code(p, k, m)
    q = code.q
    dual_size = q**code.n // code.size
    for T in subsets(code, 2, count=4) + [()]:
        jac = jacobi_brute_force(code, T)
        dual = dual_jacobi(jac, code.size, q)
        assert dual.evaluate(1, 1, 1, 1) == dual_size
        assert dual_jacobi(dual, dual_size, q) == jac


def test_dual_transform_refuses_beyond_budget(monkeypatch, code_2_2):
    primal = jacobi_brute_force(code_2_2, (), full_scan=True)
    # window products: 1 for w^0 z^0, then 5 + 12 + 5 for x^4, x^2 y^2 and
    # y^4; and 1 x 5 products per term
    monkeypatch.setattr(grm, "WORK_BUDGET", 37)
    monkeypatch.setattr(jacobi, "binom_conv", lambda *a: pytest.fail("convolved"))
    with pytest.raises(
        BudgetExceeded, match="^convolution and product steps over 3 terms = 38 exceeds"
    ):
        dual_jacobi(primal, 8, 2)
    monkeypatch.undo()
    monkeypatch.setattr(grm, "WORK_BUDGET", 38)
    assert dual_jacobi(primal, 8, 2).evaluate(1, 1, 1, 1) == 2


def test_dual_division_check():
    jac = JacobiPolynomial(0, 4, {(0, 0, 4, 0): 1, (0, 0, 2, 2): 6, (0, 0, 0, 4): 1})
    with pytest.raises(ValueError):
        dual_jacobi(jac, 7, 2)  # 7 does not divide the transform


# ---------------------------------------------------------
# Coefficient access and serialization
# ---------------------------------------------------------


def test_coefficient_queries(code_3_2):
    jac = jacobi_closed_form(code_3_2, TClass(2, 1))
    assert jac.coefficient(0, 2, 3, 4) == 10
    assert jac.coefficient(1, 1, 3, 4) == 0  # absent monomial
    assert jac.coefficient(2, 0, 7, 0) == 1  # the zero codeword


def test_bihomogeneity_enforced():
    with pytest.raises(ValueError):
        JacobiPolynomial(2, 9, {(1, 0, 7, 0): 1})
    with pytest.raises(ValueError):
        JacobiPolynomial(2, 9, {(2, 0, 6, 0): 1})
    with pytest.raises(ValueError):
        JacobiPolynomial(2, 9, {(2, 0, -1, 8): 1})


def test_zero_coefficients_dropped():
    jac = JacobiPolynomial(2, 9, {(2, 0, 7, 0): 0, (0, 2, 0, 7): 3})
    assert (2, 0, 7, 0) not in jac.terms


def test_records_roundtrip_and_order(code_3_2):
    jac = jacobi_closed_form(code_3_2, TClass(3, 2))
    records = jac.to_records()
    assert all(isinstance(r["coeff"], str) for r in records)
    assert records[0]["e_w"] == 3  # highest w-degree first
    # records are JSON-stable
    assert json.dumps(records) == json.dumps(jac.to_records())


def test_subtraction_and_difference_identity(code_3_2):
    rank2 = jacobi_brute_force(code_3_2, ((0, 0), (1, 0), (0, 1)))
    rank1 = jacobi_brute_force(code_3_2, ((0, 0), (1, 0), (2, 0)))
    diff = rank2 - rank1
    assert diff == rank_difference_identity(3, 2)
    # spelled out: -q^(m-2)(q-1) x^(q^(m-1)-3) y^((q-1)q^(m-1)-3) (wy-xz)^3
    assert diff == JacobiPolynomial(
        3,
        9,
        {
            (3, 0, 0, 6): -2,
            (2, 1, 1, 5): 6,
            (1, 2, 2, 4): -6,
            (0, 3, 3, 3): 2,
        },
    )


def test_difference_identity_rejects_small_parameters():
    with pytest.raises(ValueError):
        rank_difference_identity(3, 1)
    with pytest.raises(ValueError):
        rank_difference_identity(2, 2)  # q^(m-1) < 3
    with pytest.raises(ValueError):
        rank_difference_identity(2, 3)  # q = 2 has no rank-1 triple
    with pytest.raises(ValueError):
        dual_rank_difference_identity(2, 3)


@pytest.mark.parametrize("q,m", [(3, 2), (4, 2), (3, 3), (5, 3), (9, 4)])
def test_difference_degrees_fill_the_length(q, m):
    a, b = difference_degrees(q, m)
    assert (a, b) == (q ** (m - 1) - 3, (q - 1) * q ** (m - 1) - 3)
    assert min(a, b) >= 0 and a + b + 6 == q**m
