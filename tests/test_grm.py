import pickle
from functools import cache
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from grmjacobi import (
    COLLINEAR_TRIPLE,
    GENERIC,
    Codeword,
    TClass,
    class_witness,
    classify_T,
    reachable_classes,
    t_class_census,
    translate_T,
)
from grmjacobi import Field, GrmCode, grm
from grmjacobi.checks import DEFAULT_PAIRS
from grmjacobi.grm import BudgetExceeded, _census_chunk, closed_class_census
from grmjacobi.designs import block_masks
from grmjacobi.jacobi import closed_weight_distribution, jacobi_brute_force

from conftest import SMALL_CODES, get_code
from test_acceptance import ACCEPTANCE_PAIRS


# ---------------------------------------------------------
# Coordinates and codewords
# ---------------------------------------------------------


def test_point_order_q2_m2(code_2_2):
    assert code_2_2.points() == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_point_order_q3_m1():
    code = get_code(3, 1, 1)
    assert code.points() == [(0,), (1,), (2,)]


def test_point_order_q3_m2(code_3_2):
    pts = code_3_2.points()
    assert len(pts) == 9
    assert pts[0] == (0, 0) and pts[-1] == (2, 2)
    assert all(code_3_2.point_index(p) == i for i, p in enumerate(pts))


def test_codeword_counts(code_2_2, code_3_2):
    assert sum(1 for _ in code_2_2.codewords()) == 8
    words = list(code_3_2.codewords())
    assert len(words) == 27
    constants = [c for c in words if not any(c.lam)]
    assert len(constants) == 3


def test_weight_distribution_matches_three_shell_pattern(code_3_2):
    assert code_3_2.weight_distribution() == closed_weight_distribution(3, 2)
    assert closed_weight_distribution(3, 2) == {0: 1, 6: 24, 9: 2}


def test_weights_and_supports(code_3_2):
    rows = dict(code_3_2.value_rows())
    zero = Codeword((0, 0), 0)
    const = Codeword((0, 0), 2)
    affine = Codeword((1, 0), 1)
    assert rows[zero] == [0] * 9
    assert rows[const] == [2] * 9
    assert [i for i, v in enumerate(rows[affine]) if v] == [
        i for i, p in enumerate(code_3_2.points()) if (p[0] + 1) % 3 != 0
    ]


@pytest.mark.parametrize("p,k,m", SMALL_CODES)
def test_value_rows_equal_evaluation_at_each_position(p, k, m):
    code = get_code(p, k, m)
    scanned = list(code.value_rows())
    assert [c for c, _ in scanned] == list(code.codewords())
    for c, row in scanned:
        assert row == [code.evaluate(c, u) for u in code.points()]


def test_shells(code_3_2):
    assert len(code_3_2.shell(6)) == 24
    assert len(code_3_2.shell(9)) == 2
    assert code_3_2.shell(5) == []
    with pytest.raises(ValueError):
        code_3_2.shell(10)


def test_codeword_scans_refuse_beyond_budget(monkeypatch, code_3_2):
    # 27 codewords x 9 positions
    monkeypatch.setattr(grm, "WORK_BUDGET", 27 * 9 - 1)
    with pytest.raises(BudgetExceeded, match="^27 codewords x 9 positions = 243 "):
        code_3_2.weight_distribution()
    scans = (
        lambda: list(code_3_2.value_rows()),
        lambda: code_3_2.shell(6),
        lambda: jacobi_brute_force(code_3_2, ((0, 0),), full_scan=True),
        # C(9, 2) pairs x 2 blocks fits; the scan of the code does not
        lambda: block_masks(code_3_2, 9, 2),
    )
    for scan in scans:
        with pytest.raises(BudgetExceeded, match="^27 codewords x 9 positions = 243 "):
            scan()
    monkeypatch.setattr(grm, "WORK_BUDGET", 27 * 9)
    assert len(code_3_2.shell(6)) == 24


@pytest.mark.parametrize("p,k,m", SMALL_CODES)
def test_functional_values_equal_dot_products(p, k, m):
    code = get_code(p, k, m)
    lams = [c.lam for c in code.codewords() if c.b == 0]
    for u in code.points():
        assert code.functional_values(u) == [code.field.dot(lam, u) for lam in lams]


def test_functional_values_memo_is_bounded(monkeypatch):
    code = GrmCode(Field(3), 2)
    u, v, w = code.points()[1:4]
    # room for two columns of 9 values, not three
    monkeypatch.setattr(grm, "WORK_BUDGET", 2 * 9)
    first = code.functional_values(u)
    assert code.functional_values(u) is first
    code.functional_values(v)
    assert list(code._columns) == [u, v]
    code.functional_values(w)
    assert list(code._columns) == [w]
    assert code.functional_values(u) == first
    # a column larger than the budget is never kept
    monkeypatch.setattr(grm, "WORK_BUDGET", 8)
    code.functional_values(v)
    assert code._columns == {}


def test_pickled_code_carries_no_memo():
    code = GrmCode(Field(3), 2)
    column = code.functional_values((1, 2))
    clone = pickle.loads(pickle.dumps(code))
    assert clone._columns == {} and list(code._columns) == [(1, 2)]
    assert clone.functional_values((1, 2)) == column


# ---------------------------------------------------------
# Classification
# ---------------------------------------------------------


def test_classify_examples(code_3_2):
    assert classify_T(code_3_2, ((0, 0), (1, 0), (2, 0))) == TClass(3, 1)
    assert classify_T(code_3_2, ((0, 0), (1, 0), (0, 1))) == TClass(3, 2)
    assert classify_T(code_3_2, ((0, 0), (1, 0))) == TClass(2, 1)
    # dependency (1, 1, -1): no zero coefficient, and 1 + 1 - 1 != 0
    assert classify_T(code_3_2, ((0, 0), (1, 0), (0, 1), (1, 1))) == TClass(4, 2, GENERIC)
    assert classify_T(code_3_2, ((0, 0), (1, 0), (0, 1), (2, 0))) == TClass(
        4, 2, COLLINEAR_TRIPLE
    )


def test_classify_errors(code_3_2):
    with pytest.raises(ValueError):
        classify_T(code_3_2, (((0, 0)),))  # |T| = 1
    with pytest.raises(ValueError):
        classify_T(code_3_2, tuple(code_3_2.points()[:5]))  # |T| = 5
    with pytest.raises(ValueError):
        classify_T(code_3_2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        classify_T(code_3_2, ((0, 0), (3, 0)))  # out of range


def test_q2_triples_never_have_rank_1():
    for m in (2, 3):
        code = get_code(2, 1, m)
        census = t_class_census(code, 3)
        assert TClass(3, 1) not in census
        assert set(census) == {TClass(3, 2)}


def test_triple_census_q3_m2(code_3_2):
    # AG(2,3) has 12 lines of 3 points each: 12 collinear triples
    census = t_class_census(code_3_2, 3)
    assert census == {TClass(3, 1): 12, TClass(3, 2): 72}


def test_quad_census_q3_m2(code_3_2):
    # a 4-set with a collinear triple = line (12) plus an outside point (6);
    # two distinct collinear triples cannot share a 4-set, so no overcount
    census = t_class_census(code_3_2, 4)
    assert census == {
        TClass(4, 2, COLLINEAR_TRIPLE): 72,
        TClass(4, 2, GENERIC): 54,
    }


def test_quad_census_q2_m3():
    # AG(3,2): the 14 affine planes are the only rank-2 4-sets
    code = get_code(2, 1, 3)
    census = t_class_census(code, 4)
    assert census == {TClass(4, 3): 56, TClass(4, 2, GENERIC): 14}


def test_census_limit_guard(monkeypatch, code_3_2):
    monkeypatch.setattr(grm, "WORK_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        t_class_census(code_3_2, 4)
    # the budget caps the C(8, 3) = 56 subsets through zero, not all
    # C(9, 4) = 126 subsets
    monkeypatch.setattr(grm, "WORK_BUDGET", 55)
    with pytest.raises(BudgetExceeded, match=r"^C\(8, 3\) subsets through zero = 56 "):
        t_class_census(code_3_2, 4)
    monkeypatch.setattr(grm, "WORK_BUDGET", 56)
    assert sum(t_class_census(code_3_2, 4).values()) == 126
    with pytest.raises(ValueError):
        t_class_census(code_3_2, 5)


@pytest.mark.parametrize("p,k,m", sorted(set(DEFAULT_PAIRS) | set(ACCEPTANCE_PAIRS)))
@pytest.mark.parametrize("t", [2, 3, 4])
def test_census_equals_full_enumeration(p, k, m, t):
    # q = 2 includes subsets fixed by a translation (pairs, and the affine
    # planes among the 4-sets), where the n/t scaling must still hold
    code = get_code(p, k, m)
    expected = _census_chunk(code, combinations(range(code.n), t))
    assert t_class_census(code, t) == expected
    assert closed_class_census(code.q, code.m, t) == expected


@pytest.mark.parametrize("p,k,m", SMALL_CODES + [(7, 1, 2), (2, 1, 4), (2, 2, 3), (2, 1, 5)])
def test_closed_census_equals_census_through_zero(p, k, m):
    code = get_code(p, k, m)
    for t in (2, 3, 4):
        assert closed_class_census(code.q, code.m, t) == t_class_census(code, t)


@pytest.mark.parametrize("q,m", [(2, 1), (3, 1), (4, 1), (2, 6), (9, 3), (64, 4), (125, 2)])
def test_closed_census_sizes_are_positive_and_sum_to_all_subsets(q, m):
    for t in (2, 3, 4):
        census = closed_class_census(q, m, t)
        assert all(size > 0 for size in census.values())
        assert sum(census.values()) == comb(q**m, t)
    with pytest.raises(ValueError):
        closed_class_census(q, m, 5)


def test_class_table_orders_every_size_like_the_closed_census():
    for t in (2, 3, 4):
        assert grm.classes_of_size(t) == tuple(closed_class_census(4, 3, t))
    assert sum(map(grm.classes_of_size, (2, 3, 4)), ()) == grm.CLASSES
    for t in (1, 5):
        with pytest.raises(ValueError, match=r"\|T\| must be in \[2, 4\]"):
            grm.classes_of_size(t)


def test_witnesses_match_census_reachability(monkeypatch):
    monkeypatch.setattr(grm, "WORK_BUDGET", 10**5)
    for p, k, m in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 1, 3)):
        code = get_code(p, k, m)
        for t in (2, 3, 4):
            if code.n < t:
                continue
            census = set(t_class_census(code, t))
            assert census == set(reachable_classes(code, t))


def test_witness_classifies_as_requested(code_3_2):
    for cls in reachable_classes(code_3_2, 4):
        witness = class_witness(code_3_2, cls)
        assert classify_T(code_3_2, witness) == cls
    assert class_witness(code_3_2, TClass(4, 1)) is None  # needs q >= 4
    assert class_witness(code_3_2, TClass(4, 3)) is None  # needs m >= 3


def test_rank1_quads_need_q_at_least_4():
    assert class_witness(get_code(5, 1, 2), TClass(4, 1)) is not None
    assert class_witness(get_code(2, 2, 2), TClass(4, 1)) is not None
    assert class_witness(get_code(3, 1, 3), TClass(4, 1)) is None


def test_collinear_triple_subcase_empty_at_q2():
    code = get_code(2, 1, 3)
    assert class_witness(code, TClass(4, 2, COLLINEAR_TRIPLE)) is None
    assert class_witness(code, TClass(4, 2, GENERIC)) is not None


# ---------------------------------------------------------
# Translation
# ---------------------------------------------------------


def test_translate_identity_and_singleton(code_3_2):
    f = code_3_2.field
    T = ((0, 0), (1, 2))
    assert translate_T(f, T, (0, 0)) == T
    assert translate_T(f, ((1, 2),), (2, 2)) == ((0, 1),)


def test_classification_invariant_under_translation(code_3_2):
    f = code_3_2.field
    points = code_3_2.points()
    for T in combinations(points[:6], 3):
        expected = classify_T(code_3_2, T)
        for v in points:
            assert classify_T(code_3_2, translate_T(f, T, v)) == expected


@st.composite
def code_points_shift(draw):
    code = get_code(*draw(st.sampled_from(SMALL_CODES)))
    pts = code.points()
    size = draw(st.integers(2, min(4, code.n)))
    indices = draw(st.lists(st.integers(0, code.n - 1), min_size=size, max_size=size, unique=True))
    order = draw(st.permutations(range(size)))
    shift = pts[draw(st.integers(0, code.n - 1))]
    return code, tuple(pts[i] for i in indices), order, shift


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(code_points_shift())
def test_class_is_invariant_under_order_and_translation(case):
    code, T, order, shift = case
    expected = classify_T(code, T)
    assert classify_T(code, tuple(T[i] for i in order)) == expected
    assert classify_T(code, translate_T(code.field, T, shift)) == expected


# ---------------------------------------------------------
# Classification against an elimination-free oracle
# ---------------------------------------------------------


@cache
def _lam_values(code):
    """point -> [lam(point) for every functional lam], by Field.dot."""
    lams = list(product(range(code.q), repeat=code.m))
    return {u: [code.field.dot(lam, u) for lam in lams] for u in code.points()}


def _oracle_rank(code, values, S) -> int:
    # The functionals constant on S are those with lam(u - u_0) = 0 for all
    # u in S: a subspace of dimension m - rank(S).
    constant = sum(1 for col in zip(*(values[u] for u in S)) if len(set(col)) == 1)
    rank = code.m
    while code.q ** (code.m - rank) < constant:
        rank -= 1
    assert code.q ** (code.m - rank) == constant
    return rank


def _oracle_class(code, values, T) -> TClass:
    t, rank = len(T), _oracle_rank(code, values, T)
    if t == 4 and rank == 2:
        collinear = any(_oracle_rank(code, values, S) == 1 for S in combinations(T, 3))
        return TClass(t, rank, COLLINEAR_TRIPLE if collinear else GENERIC)
    return TClass(t, rank)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(code_points_shift())
def test_classify_equals_oracle(case):
    code, T, _, _ = case
    assert classify_T(code, T) == _oracle_class(code, _lam_values(code), T)


@pytest.mark.parametrize("p,k", [(2, 2), (5, 1)])
def test_classify_equals_oracle_on_every_plane_quad(p, k):
    # every 4-subset of GF(4)^2 and GF(5)^2
    code = get_code(p, k, 2)
    values = _lam_values(code)
    for T in combinations(code.points(), 4):
        assert classify_T(code, T) == _oracle_class(code, values, T), T
