"""Dual enumerator, difference coefficients, and the scan.

The independent oracle here is an explicit dual code: for small (q, m) the
dual is enumerated as the kernel of the generator rows, so MacWilliams
arithmetic and design verdicts can be checked against plain counting.
"""

from itertools import combinations, product

import pytest

from grmjacobi import (
    CONFIRMED,
    SKIPPED,
    GrmCode,
    Field,
    conjecture_scan,
    dual_diff_coefficient,
    dual_jacobi,
    dual_rank_difference_identity,
    dual_weight_enumerator,
    jacobi_brute_force,
    scan_pairs,
)
from grmjacobi.conjecture import prime_power, scan_pair
from grmjacobi.grm import BudgetExceeded

from conftest import get_code


def explicit_dual_words(code: GrmCode):
    """All words orthogonal to every codeword, by kernel enumeration."""
    f = code.field
    pts = code.points()
    rows = [[1] * code.n] + [[p[i] for p in pts] for i in range(code.m)]
    words = []
    for v in product(range(code.q), repeat=code.n):
        if all(
            _dot(f, v, row) == 0 for row in rows
        ):
            words.append(v)
    return words


def _dot(f, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = f.add(acc, f.mul(a, b))
    return acc


# ---------------------------------------------------------
# Dual weight enumerator
# ---------------------------------------------------------


def test_dual_enumerator_q2_m2_is_repetition():
    assert dual_weight_enumerator(2, 2) == {0: 1, 4: 1}


def test_dual_enumerator_against_explicit_dual_q3_m2(code_3_2):
    words = explicit_dual_words(code_3_2)
    assert len(words) == 3**6
    dist = {}
    for v in words:
        w = sum(1 for x in v if x)
        dist[w] = dist.get(w, 0) + 1
    assert dual_weight_enumerator(3, 2) == dist


def test_dual_enumerator_against_explicit_dual_q2_m3():
    code = get_code(2, 1, 3)
    words = explicit_dual_words(code)
    dist = {}
    for v in words:
        w = sum(1 for x in v if x)
        dist[w] = dist.get(w, 0) + 1
    assert dual_weight_enumerator(2, 3) == dist


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (7, 2)])
def test_dual_enumerator_size_and_min_weight(q, m):
    enum = dual_weight_enumerator(q, m)
    assert sum(enum.values()) == q ** (q**m - m - 1)
    assert enum.get(1, 0) == 0  # no weight-1 dual words at these pairs
    assert all(c > 0 for c in enum.values())


def test_dual_enumerator_matches_transform_route(code_3_2):
    primal = jacobi_brute_force(code_3_2, (), full_scan=True)
    transformed = dual_jacobi(primal, code_3_2.size, 3)
    got = {ey: c for (_, _, _, ey), c in transformed.terms.items()}
    assert got == dual_weight_enumerator(3, 2)


# ---------------------------------------------------------
# Difference coefficients
# ---------------------------------------------------------


def test_diff_coefficient_single_term_case():
    assert dual_diff_coefficient(3, 2, 3) == -2


def test_diff_coefficient_range_checks():
    with pytest.raises(ValueError):
        dual_diff_coefficient(3, 2, 2)
    with pytest.raises(ValueError):
        dual_diff_coefficient(3, 2, 10)
    with pytest.raises(ValueError):
        dual_diff_coefficient(3, 1, 3)  # needs q^(m-1) >= 3
    with pytest.raises(ValueError):
        dual_diff_coefficient(2, 3, 3)  # q = 2 has no rank-1 triple


@pytest.mark.parametrize("p,k,m", [(3, 1, 2), (2, 2, 2), (5, 1, 2)])
def test_diff_coefficient_equals_full_dual_expansion(p, k, m):
    code = get_code(p, k, m)
    q = code.q
    from grmjacobi import TClass, class_witness

    t_rank2 = class_witness(code, TClass(3, 2))
    t_rank1 = class_witness(code, TClass(3, 1))
    lhs = dual_jacobi(jacobi_brute_force(code, t_rank2), code.size, q) - dual_jacobi(
        jacobi_brute_force(code, t_rank1), code.size, q
    )
    assert lhs == dual_rank_difference_identity(q, m)
    n = code.n
    for ell in range(3, n + 1):
        assert dual_diff_coefficient(q, m, ell) == lhs.coefficient(0, 3, n - ell, ell - 3)


def test_diff_coefficient_vanishes_only_at_top_weights_q3_m2():
    values = {ell: dual_diff_coefficient(3, 2, ell) for ell in range(3, 10)}
    assert values == {3: -2, 4: 6, 5: -6, 6: 2, 7: 0, 8: 0, 9: 0}


def test_top_dual_shells_can_be_3_designs(code_3_2):
    """Why the scan verdict stops at l = q^m - 3: right above that range
    the identity says nothing, and these shells genuinely are 3-designs."""
    words = explicit_dual_words(code_3_2)
    for ell, expected_lambda in ((7, 90), (8, 36)):
        blocks = [
            frozenset(i for i, x in enumerate(v) if x)
            for v in words
            if sum(1 for x in v if x) == ell
        ]
        assert blocks  # nonempty shell
        counts = {
            sum(1 for b in blocks if set(sub) <= b)
            for sub in combinations(range(9), 3)
        }
        assert counts == {expected_lambda}  # every triple in equally many blocks


# ---------------------------------------------------------
# Scan
# ---------------------------------------------------------


def test_prime_power():
    assert prime_power(9) == (3, 2)
    assert prime_power(32) == (2, 5)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_scan_pairs_cover_expected_set():
    pairs = scan_pairs(10**4)
    assert (3, 1) in pairs and (3, 2) in pairs and (4, 1) in pairs
    assert (5, 1) in pairs and (7, 1) in pairs and (8, 1) in pairs and (9, 1) in pairs
    assert all(q ** (2 * m) < 10**4 for q, m in pairs)
    assert (2, 1) not in pairs and (2, 2) not in pairs  # q >= 3 only
    assert pairs == sorted(pairs)


def test_scan_refuses_a_bound_beyond_its_pair_budget_at_the_call():
    with pytest.raises(BudgetExceeded, match="trial divisors"):
        conjecture_scan(10**13)
    with pytest.raises(BudgetExceeded):
        scan_pairs(10**400)


def test_scan_pair_q3_m2_confirmed():
    res = scan_pair(3, 2)
    assert res.verdict == CONFIRMED
    assert res.counterexample is None
    in_range = {s.ell: s.diff_coeff for s in res.checked_shells if s.in_range}
    assert in_range == {3: -2, 4: 6, 5: -6, 6: 2}
    out = [(s.ell, s.nonempty, s.diff_coeff) for s in res.checked_shells if not s.in_range]
    assert out == [(7, True, 0), (8, True, 0), (9, True, 0)]


@pytest.mark.parametrize(
    "q,m", [(q, m) for q, m in scan_pairs(10**5) if m >= 2]
)
def test_scan_coefficients_equal_direct_sum(q, m):
    res = scan_pair(q, m)
    in_range = [s for s in res.checked_shells if s.in_range]
    assert [s.ell for s in in_range] == list(range(3, q**m - 2))
    for s in in_range:
        assert s.diff_coeff == dual_diff_coefficient(q, m, s.ell)


def test_scan_pair_builds_no_code(monkeypatch):
    # a pair that reaches the shells has q >= 3 and m >= 2, where both
    # triple classes occur, so no code is built to look for witnesses
    monkeypatch.setattr(GrmCode, "__init__", lambda *a: pytest.fail("code built"))
    for q, m in ((3, 2), (4, 2), (3, 3), (8, 2)):
        assert scan_pair(q, m).verdict == CONFIRMED


def test_scan_pair_m1_is_skipped():
    res = scan_pair(5, 1)
    assert res.verdict == SKIPPED
    assert "rank 2" in res.reason


def test_m1_dual_shells_are_3_designs_which_is_why_m1_is_skipped():
    # at q = 4, m = 1 every triple class coincides, so the dual weight-3
    # shell satisfies the design criterion; the scan must not claim
    # otherwise, hence the SKIPPED verdict at m = 1
    code = GrmCode(Field(2, 2), 1)
    coeffs = set()
    for sub in combinations(range(4), 3):
        T = tuple(code.points()[i] for i in sub)
        dual = dual_jacobi(jacobi_brute_force(code, T), code.size, 4)
        coeffs.add(dual.coefficient(0, 3, 1, 0))  # z^3 x^(4-3) y^(3-3)
    assert len(coeffs) == 1 and coeffs.pop() > 0


def test_scan_small_bound_verdicts():
    results = list(conjecture_scan(10**4))
    assert results == sorted(results, key=lambda r: (r.q, r.m))
    for res in results:
        if res.m == 1:
            assert res.verdict == SKIPPED
        else:
            assert res.verdict == CONFIRMED, (res.q, res.m)
            # spot-check the stated verdict logic
            bad = [
                s
                for s in res.checked_shells
                if s.in_range and s.nonempty and s.diff_coeff == 0
            ]
            assert not bad


def test_scan_worker_count_is_immaterial():
    assert list(conjecture_scan(10**4)) == list(conjecture_scan(10**4, workers=3))


def test_scan_bound_validation():
    with pytest.raises(ValueError):
        conjecture_scan(80)


def test_scan_result_serialization():
    rec = scan_pair(3, 2).to_json_dict()
    assert rec["q"] == 3 and rec["m"] == 2 and rec["verdict"] == CONFIRMED
    assert rec["shells_checked"] == 4
    assert rec["shells_nonempty"] == 4
    assert rec["shells_out_of_range_nonempty"] == 3
    skipped = scan_pair(7, 1).to_json_dict()
    assert "reason" in skipped


def test_counterexample_record_shape():
    # no real counterexample exists in range, so build the record directly
    from grmjacobi import ScanResult, ShellCheck

    res = ScanResult(
        q=3,
        m=2,
        verdict="COUNTEREXAMPLE",
        checked_shells=(ShellCheck(4, True, 0, True),),
        counterexample=(4, 0),
    )
    rec = res.to_json_dict()
    assert rec["counterexample"] == {"l": 4, "coeff": "0"}
