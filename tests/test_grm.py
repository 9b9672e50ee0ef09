import json
import os
import pickle
import random
from collections import Counter
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
from grmjacobi.checks import DEFAULT_PAIRS, sample_subsets
from grmjacobi.cli import main
from grmjacobi.grm import BudgetExceeded, closed_class_census, subset_pass
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


def test_point_index_reads_the_digits_without_the_point_list():
    code = GrmCode(Field(3), 20)
    rng = random.Random(20)
    for i in (0, 1, code.n - 1, *(rng.randrange(code.n) for _ in range(200))):
        assert code.point_index(code.point(i)) == i
    assert code._points is None


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


def dot_product_mask(code, u):
    """value_mask(u) from one Field.dot per functional."""
    lams = [c.lam for c in code.codewords() if c.b == 0]
    return sum(1 << (code.field.dot(lam, u) * code.n + j) for j, lam in enumerate(lams))


@pytest.mark.parametrize("p,k,m", SMALL_CODES)
def test_functional_values_equal_dot_products(p, k, m):
    # the value masks hold the functional values: bit v*n + j set when
    # functional j takes the value v
    code = get_code(p, k, m)
    for u in code.points():
        assert code.value_mask(u) == dot_product_mask(code, u)


@pytest.mark.parametrize("field,m", [(Field(2, 8), 1), (Field(2), 9), (Field(3), 5), (Field(257), 1)])
def test_value_masks_of_larger_codes_equal_dot_products(field, m):
    # GF(256) has the largest field tables, and GF(257) none
    code = GrmCode(field, m)
    for i in range(0, code.n, max(1, code.n // 40)):
        u = code.point(i)
        assert code.value_mask(u) == dot_product_mask(code, u)


def test_functional_values_memo_is_bounded(monkeypatch):
    # the memo of value masks: 4 words each for RM_2(1, 7)
    code = GrmCode(Field(2), 7)
    u, v, w = code.points()[1:4]
    assert code.mask_words == 4
    # room for two masks, not three
    monkeypatch.setattr(grm, "WORK_BUDGET", 2 * 4)
    first = code.value_mask(u)
    assert code.value_mask(u) is first
    code.value_mask(v)
    assert list(code._masks) == [u, v]
    code.value_mask(w)
    assert list(code._masks) == [w]
    assert code.value_mask(u) == first
    # a mask larger than the budget is never kept
    monkeypatch.setattr(grm, "WORK_BUDGET", 3)
    code.value_mask(v)
    assert code._masks == {}


def test_a_code_length_beyond_its_limit_is_refused_at_once():
    # q^m is computed for every code: 2 bits of q = 2 times m up to 2^20 bits
    assert GrmCode(Field(2), grm.LENGTH_BITS // 2).n == 2 ** (grm.LENGTH_BITS // 2)
    for m in (grm.LENGTH_BITS // 2 + 1, 10**30):
        with pytest.raises(ValueError, match="has more than 1048576 bits"):
            GrmCode(Field(3), m)


def test_a_two_worker_verify_never_pickles_the_code(monkeypatch, capsys):
    # the workers are forked and inherit the code; only results are pickled
    def refuse(self, protocol):
        raise AssertionError("a GrmCode was pickled")

    monkeypatch.setattr(GrmCode, "__reduce_ex__", refuse)
    with pytest.raises(AssertionError, match="was pickled"):
        pickle.dumps(GrmCode(Field(2), 1))
    assert main(["verify", "--p", "2", "--k", "2", "--m", "2", "--workers", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


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
    expected = dict(
        Counter(classify_T(code, tuple(map(code.point, sub))) for sub in combinations(range(code.n), t))
    )
    assert t_class_census(code, t) == expected
    assert closed_class_census(code.q, code.m, t) == expected


@pytest.mark.parametrize("p,k,m", SMALL_CODES + [(7, 1, 2), (2, 1, 4), (2, 2, 3), (2, 1, 5)])
def test_closed_census_equals_census_through_zero(p, k, m):
    code = get_code(p, k, m)
    for t in (2, 3, 4):
        assert closed_class_census(code.q, code.m, t) == t_class_census(code, t)


# ---------------------------------------------------------
# The subset pass
# ---------------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3])
def test_above_one_worker_the_parent_never_draws_the_subsets(monkeypatch, workers):
    code = get_code(3, 1, 2)
    parent = os.getpid()
    expected = subset_pass(code, 3, 84, tally=True)

    def drawing(*args):
        assert os.getpid() != parent, "the parent drew the subsets"
        return combinations(*args)

    monkeypatch.setattr(grm, "combinations", drawing)
    got = subset_pass(code, 3, 84, tally=True, workers=workers)
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("source", ["full", "sampled", "census"])
def test_a_pass_does_not_depend_on_the_worker_count(source):
    code = get_code(3, 1, 2)
    masks, _ = block_masks(code, 6, 4)
    sample = sample_subsets(code.n, 4, 50)
    subsets, count = {
        "full": (comb(code.n, 4), comb(code.n, 4)),
        "sampled": (sample, len(sample)),
        "census": (comb(code.n - 1, 3), comb(code.n - 1, 3)),
    }[source]
    one, *more = (
        list(subset_pass(code, 4, subsets, True, masks, workers).items())
        for workers in (1, 2, 3)
    )
    assert all(profiles == one for profiles in more)
    assert sum(size for _, (_, size) in one) == count


def merged(parts, tally: bool, masks) -> dict:
    """Profiles of consecutive spans merged in order, with b dropped unless
    tally and blocks unless masks are given: what one pass without them
    records."""
    profiles = {}
    for part in parts:
        for (cls, b, blocks), (first, size) in part.items():
            key = (cls, b if tally else None, None if masks is None else blocks)
            profiles.setdefault(key, [first, 0])[1] += size
    return profiles


@pytest.mark.parametrize("p,k,m", SMALL_CODES)
def test_the_prefix_kernel_equals_the_per_subset_pass(p, k, m):
    # _pass_chunk, which classifies and tallies each subset on its own, is
    # the oracle, run once per span with the tally and the block masks on.
    # Every span but the first starts mid-prefix when n > t.
    code = get_code(p, k, m)
    for t in range(2, min(4, code.n) + 1):
        total = comb(code.n, t)
        masks, _ = block_masks(code, (code.q - 1) * code.q ** (code.m - 1), t)
        cuts = sorted({0, 1, total // 3, total // 2, total - 1, total})
        spans = list(zip(cuts, cuts[1:]))
        oracles = [grm._pass_chunk(code, t, None, True, masks, span) for span in spans]
        for tally, given in product((False, True), (None, masks)):
            sweep = grm._sweep_state(code, t, tally, given)
            assert sweep is not None
            for span, oracle in zip(spans, oracles):
                got = grm._sweep_chunk(sweep, span)
                assert list(got.items()) == list(merged([oracle], tally, given).items())
                # the profiles hold the shared class objects
                assert {id(cls) for cls, _, _ in got} <= set(map(id, grm.CLASSES))
            expected = merged(oracles, tally, given)
            for workers in (1, 2):
                got = subset_pass(code, t, total, tally, given, workers)
                assert list(got.items()) == list(expected.items())


def test_only_a_sweep_whose_line_table_fits_runs_the_kernel(monkeypatch):
    code = get_code(3, 1, 2)
    assert grm._sweep_state(code, 3, True, None) is not None
    swept = list(subset_pass(code, 3, 84, True).items())
    # a sample runs _pass_chunk, even one that lists the whole sweep
    triples = list(combinations(range(9), 3))
    with monkeypatch.context() as patch:
        patch.setattr(grm, "_sweep_chunk", lambda *a: pytest.fail("the kernel ran"))
        assert list(subset_pass(code, 3, triples, True).items()) == swept
        sample = sample_subsets(9, 3, 50)
        expected = grm._pass_chunk(code, 3, sample, True, None, (0, 50))
        assert list(subset_pass(code, 3, sample, True).items()) == list(expected.items())
    # 9 x 9 pairs and 12 lines of one word each
    lines = {mask for row in grm._line_table(code) for mask in row if mask}
    assert len(lines) == grm._line_count(code.q, code.n) == 12
    monkeypatch.setattr(grm, "WORK_BUDGET", 9 * 9 + 12 - 1)
    assert grm._sweep_state(code, 3, True, None) is None
    assert grm._sweep_state(code, 2, True, None) is not None
    expected = grm._pass_chunk(code, 3, None, True, None, (0, 84))
    assert list(subset_pass(code, 3, 84, True).items()) == list(expected.items()) == swept


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
