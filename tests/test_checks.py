from dataclasses import replace

import pytest

from grmjacobi import Field, GrmCode, checks, designs, grm, jacobi
from grmjacobi.checks import CHECKS, run_checks


def test_full_registry_passes_at_q3_m2():
    results = run_checks(pairs=((3, 1, 2),))
    assert len(results) == len(CHECKS)
    assert [r.name for r in results] == list(CHECKS)
    assert all(r.status == "PASS" for r in results), [
        (r.name, r.status, r.detail) for r in results if r.status != "PASS"
    ]


def test_registry_at_non_prime_field():
    results = run_checks(pairs=((2, 2, 2),), only=["weight-enumerator", "jacobi-pairs", "dual-enumerator"])
    assert all(r.status == "PASS" for r in results)
    assert {r.q for r in results} == {4}


def test_checks_skip_when_hypothesis_fails():
    results = run_checks(pairs=((2, 1, 3),), only=["difference-identity"])
    assert results[0].status == "SKIP"  # needs q >= 3


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_checks(only=["no-such-check"])


def test_results_are_worker_count_invariant():
    only = ["jacobi-triples", "count-tables-triples", "design-triples"]
    one = run_checks(pairs=((3, 1, 2),), only=only, workers=1)
    two = run_checks(pairs=((3, 1, 2),), only=only, workers=2)
    assert [r.to_json_dict() for r in one] == [r.to_json_dict() for r in two]


def test_design_check_skips_beyond_budget(monkeypatch):
    # C(9, 3) = 84 triples x 24 blocks at (3, 1, 2); the brute-force route
    # refuses before either route enumerates anything
    monkeypatch.setattr(grm, "WORK_BUDGET", 84 * 24 - 1)
    monkeypatch.setattr(GrmCode, "shell", lambda self, ell: pytest.fail("shell enumerated"))
    monkeypatch.setattr(designs, "closed_class_census", lambda *a: pytest.fail("census ran"))
    (result,) = run_checks(pairs=((3, 1, 2),), only=["design-triples"])
    assert (result.status, result.detail) == ("SKIP", "beyond brute-force budget")


@pytest.mark.parametrize(
    "field,detail",
    [("class_counts", "census disagreement"), ("block_count", "block count disagreement")],
)
def test_design_check_fails_when_routes_disagree(monkeypatch, field, detail):
    honest = checks.design_check_jacobi

    def skewed(code, ell, t):
        report = honest(code, ell, t)
        if field == "block_count":
            return replace(report, block_count=report.block_count + 1)
        cls = next(iter(report.class_counts))
        return replace(report, class_counts={**report.class_counts, cls: 0})

    monkeypatch.setattr(checks, "design_check_jacobi", skewed)
    (result,) = run_checks(pairs=((3, 1, 2),), only=["design-triples"])
    assert (result.status, result.detail) == ("FAIL", detail)
    assert set(result.counterexample) == {"jacobi", "blocks"}


def test_quad_census_fails_when_closed_sizes_disagree(monkeypatch):
    # the same classes with one size off: only a size comparison sees it
    honest = checks.closed_class_census

    def skewed(q, m, t):
        census = honest(q, m, t)
        cls = next(iter(census))
        return {**census, cls: census[cls] + 1}

    monkeypatch.setattr(checks, "closed_class_census", skewed)
    (result,) = run_checks(pairs=((3, 1, 2),), only=["jacobi-quads"])
    assert (result.status, result.detail) == ("FAIL", "closed census mismatch")
    assert set(result.counterexample) == {"census", "closed"}


def test_points_are_checked_at_the_public_entries_only(monkeypatch):
    # the enumerations build T from distinct indices into code.points(),
    # so they skip the check that classify_T and jacobi_brute_force make
    checked = []
    honest = GrmCode.require_points

    def counting(self, points):
        checked.append(points)
        honest(self, points)

    monkeypatch.setattr(GrmCode, "require_points", counting)
    only = ["jacobi-quads", "count-tables-triples", "design-triples"]
    results = run_checks(pairs=((3, 1, 2),), only=only)
    assert [r.status for r in results] == ["PASS"] * 3
    assert checked == []
    code = GrmCode(Field(3), 2)
    points = ((0, 0), (0, 1), (1, 2))
    assert grm.classify_T(code, points) == grm.TClass(3, 2)
    assert jacobi.jacobi_brute_force(code, points).evaluate(1, 1, 1, 1) == 27
    assert checked == [points, points]
    with pytest.raises(ValueError, match="distinct"):
        grm.classify_T(code, ((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="does not lie in V"):
        jacobi.jacobi_brute_force(code, ((0, 0), (0, 3)))


@pytest.mark.parametrize("pair", [(3, 1, 2), (2, 2, 2)])
def test_every_enumerating_check_skips_beyond_the_budget(monkeypatch, pair):
    # classify-invariance classifies a fixed sample and enumerates nothing
    monkeypatch.setattr(grm, "WORK_BUDGET", 1)
    results = run_checks(pairs=(pair,))
    assert len(results) == len(CHECKS)
    assert {r.name: r.status for r in results if r.status != "SKIP"} == {
        "classify-invariance": "PASS"
    }


def test_sampled_checks_never_build_the_point_list(monkeypatch):
    # 2^11 points: C(2048, 2) pairs is beyond the full sweep, so jacobi-pairs
    # samples too; each sampled index is decoded into its point on its own
    monkeypatch.setattr(GrmCode, "points", lambda self: pytest.fail("points() built"))
    only = ["count-route", "translation-invariance", "classify-invariance", "jacobi-pairs"]
    results = run_checks(pairs=((2, 1, 11),), only=only)
    assert [r.status for r in results] == ["PASS"] * 4
    assert results[-1].detail == "sampled sweep over 10000 subsets"


@pytest.mark.parametrize("p,k,m", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1)])
def test_point_decodes_the_point_list(p, k, m):
    code = GrmCode(Field(p, k), m)
    assert [code.point(i) for i in range(code.n)] == code.points()
