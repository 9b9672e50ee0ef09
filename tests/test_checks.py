import json
import time
from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from grmjacobi import Field, GrmCode, checks, designs, grm, jacobi
from grmjacobi.checks import CHECKS, run_checks
from grmjacobi.cli import main


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
    monkeypatch.setattr(GrmCode, "value_rows", lambda self: pytest.fail("code scanned"))
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
            return report._replace(block_count=report.block_count + 1)
        cls = next(iter(report.class_counts))
        return report._replace(class_counts={**report.class_counts, cls: 0})

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


def test_sampled_checks_draw_from_more_positions_than_a_range_holds():
    # RM_{7^7}(1, 5) has 7^35 > sys.maxsize positions; the tallies are
    # beyond the budget, classification is not
    names = ["count-route", "translation-invariance", "classify-invariance"]
    results = run_checks(pairs=((7, 7, 5),), only=names)
    assert [r.status for r in results] == ["SKIP", "SKIP", "PASS"]


def test_dual_transform_skips_beyond_its_budget():
    # RM_2(1, 10): the full scan fits, the transform of its dual's
    # 511-term enumerator does not
    start = time.perf_counter()
    (result,) = run_checks(pairs=((2, 1, 10),), only=["dual-transform"])
    assert (result.status, result.detail) == ("SKIP", "beyond brute-force budget")
    assert time.perf_counter() - start < 10


def test_dual_enumerator_asks_the_budget_before_the_enumerator(monkeypatch):
    # RM_343(1, 3): the dual enumerator has no budget of its own and would
    # hold q^m + 1 huge counts, so the check's budgeted full scan must
    # refuse the code first
    monkeypatch.setattr(grm, "WORK_BUDGET", 10**6)
    monkeypatch.setattr(
        checks, "dual_weight_enumerator", lambda q, m: pytest.fail("enumerator built")
    )
    (result,) = run_checks(pairs=((7, 3, 3),), only=["dual-enumerator"])
    assert (result.status, result.detail) == ("SKIP", "beyond brute-force budget")


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


SUBSET_CHECKS = [name for name in CHECKS if name.split("-")[-1] in ("pairs", "triples", "quads")]


def test_each_subset_is_classified_once_per_run(monkeypatch):
    # 36 + 84 + 126 subsets, 56 quads through zero for the census and two
    # quad witnesses: 304 classifications, where one pass per check made 796.
    # The sweeps and the census classify in the prefix kernel, each prefix
    # + (d,) once; the witness lookup calls _classify.
    honest, honest_leaves = grm._classify, grm._leaf_profiles
    seen = {}
    stage = ["sweep"]  # or the census or witness lookup that is running

    def counting(code, points):
        seen.setdefault(stage[-1], []).append(points)
        return honest(code, points)

    def counting_leaves(sweep, prefix, start, stop):
        code = sweep[0]
        for d in range(start, stop):
            seen.setdefault(stage[-1], []).append(tuple(map(code.point, prefix + (d,))))
        return honest_leaves(sweep, prefix, start, stop)

    def staged(name, fn, *args):
        stage.append(name)
        try:
            return fn(*args)
        finally:
            stage.pop()

    monkeypatch.setattr(grm, "_classify", counting)
    monkeypatch.setattr(grm, "_leaf_profiles", counting_leaves)
    for name in ("t_class_census", "reachable_classes"):
        monkeypatch.setattr(checks, name, partial(staged, name, getattr(checks, name)))
    results = run_checks(pairs=((3, 1, 2),), only=SUBSET_CHECKS)
    assert [r.status for r in results] == ["PASS"] * 9
    assert sum(map(len, seen.values())) == 304
    assert len(seen["t_class_census"]) == 56 and len(seen["reachable_classes"]) == 2
    swept = Counter(seen["sweep"])
    assert len(swept) == 36 + 84 + 126 and set(swept.values()) == {1}


def test_one_pool_per_subset_size(monkeypatch):
    honest = grm.run_chunks
    chunks = []

    def counting(fn, args_list, workers):
        if workers > 1:  # the class census runs its pass at one worker
            chunks.append(len(args_list))
        return honest(fn, args_list, workers)

    monkeypatch.setattr(grm, "run_chunks", counting)
    results = run_checks(pairs=((2, 2, 2),), workers=2)
    assert all(r.status != "FAIL" for r in results)
    assert len(chunks) == 3 and min(chunks) > 1


def test_only_the_requested_compares_run(monkeypatch):
    monkeypatch.setattr(checks, "count_tables", lambda *a: pytest.fail("count tables ran"))
    monkeypatch.setattr(GrmCode, "shell", lambda self, ell: pytest.fail("shell enumerated"))
    (result,) = run_checks(pairs=((3, 1, 2),), only=["jacobi-quads"])
    assert result.status == "PASS"
    monkeypatch.undo()
    monkeypatch.setattr(grm, "_row_sums", lambda *a: pytest.fail("tally ran"))
    monkeypatch.setattr(jacobi, "_row_sums", lambda *a: pytest.fail("tally ran"))
    # a full sweep tallies through the value masks, read only for a tally
    monkeypatch.setattr(GrmCode, "value_mask", lambda *a: pytest.fail("tally ran"))
    (result,) = run_checks(pairs=((3, 1, 2),), only=["design-quads"])
    assert result.status == "PASS"


def test_a_design_refusal_skips_only_the_design_check(monkeypatch):
    # C(9, 3) x 24 blocks is one past the budget; the tally's 3 x 9 is not
    monkeypatch.setattr(grm, "WORK_BUDGET", 84 * 24 - 1)
    only = ["jacobi-triples", "count-tables-triples", "design-triples"]
    results = run_checks(pairs=((3, 1, 2),), only=only)
    assert [(r.status, r.detail) for r in results] == [
        ("PASS", "full sweep over 84 subsets"),
        ("PASS", "full sweep over 84 subsets"),
        ("SKIP", "beyond brute-force budget"),
    ]


def test_one_tally_refusal_skips_both_tallied_checks(monkeypatch):
    asked = []

    def refusing(code, t):
        asked.append(t)
        raise grm.BudgetExceeded("no tally")

    monkeypatch.setattr(checks, "require_tally_budget", refusing)
    only = ["jacobi-triples", "count-tables-triples", "design-triples"]
    results = run_checks(pairs=((3, 1, 2),), only=only)
    assert asked == [3]
    assert [(r.status, r.detail) for r in results] == [
        ("SKIP", "beyond brute-force budget"),
        ("SKIP", "beyond brute-force budget"),
        ("PASS", "shell 6 is not a 3-design; lambdas (4, 6)"),
    ]


def test_a_skewed_b_vector_fails_only_count_tables(monkeypatch):
    honest = checks.closed_form_b

    def skewed(cls, q, m):
        b = honest(cls, q, m)
        return (b[0] + 1,) + b[1:]

    monkeypatch.setattr(checks, "closed_form_b", skewed)
    only = ["jacobi-pairs", "count-tables-pairs", "design-pairs"]
    results = run_checks(pairs=((3, 1, 2),), only=only)
    assert [r.status for r in results] == ["PASS", "FAIL", "PASS"]
    assert results[1].counterexample["kind"] == "b"


def test_a_class_that_does_not_determine_the_count_fails_verify(monkeypatch, capsys):
    # every triple called rank 2: the collinear ones lie in other blocks
    honest = grm._leaf_profiles

    def all_rank_2(sweep, prefix, start, stop):
        row = honest(sweep, prefix, start, stop)
        return [(grm.TClass(3, 2), b, blocks) for _, b, blocks in row]

    monkeypatch.setattr(grm, "_leaf_profiles", all_rank_2)
    code = GrmCode(Field(3), 2)
    with pytest.raises(designs.CountNotDetermined, match="does not determine the count"):
        designs.design_check_bruteforce(code, 6, 3)
    assert main(["verify", "--p", "3", "--m", "2", "--only", "design-triples"]) == 2
    (record,) = json.loads(capsys.readouterr().out)["results"]
    assert (record["status"], record["detail"]) == ("FAIL", "class does not determine the count")
    assert record["counterexample"] == {"class": "t3-rank2", "counts": [4, 6]}


def test_support_scalars_reports_the_first_counterexample(monkeypatch):
    # (2, 0) . (1, 1) read off by one: the first word whose multiple loses
    # its support is (lam, b) = ((1, 0), 0) with alpha = 2
    honest = Field.dot

    def corrupted(self, u, v):
        value = honest(self, u, v)
        return self.add(value, 1) if (tuple(u), tuple(v)) == ((2, 0), (1, 1)) else value

    monkeypatch.setattr(Field, "dot", corrupted)
    (result,) = run_checks(pairs=((3, 1, 2),), only=["support-scalars"])
    assert result.status == "FAIL"
    assert result.counterexample == {"lam": [1, 0], "b": 0, "alpha": 2}


def test_each_swept_subset_is_tallied_once(monkeypatch):
    # jacobi- and count-tables- checks of one size share one tally per
    # subset; neither reads it through count_tables
    honest = grm._leaf_profiles
    calls = []

    def counting(sweep, prefix, start, stop):
        row = honest(sweep, prefix, start, stop)
        for d, (_, b, _) in zip(range(start, stop), row):
            if b is not None:
                calls.append(prefix + (d,))
        return row

    monkeypatch.setattr(grm, "_leaf_profiles", counting)
    for module in (checks, jacobi):
        monkeypatch.setattr(module, "count_tables", lambda *a: pytest.fail("count tables ran"))
    results = run_checks(pairs=((3, 1, 2),), only=["jacobi-triples", "count-tables-triples"])
    assert [r.status for r in results] == ["PASS", "PASS"]
    assert len(calls) == 84 and len(set(calls)) == 84


TRIPLES_3_2 = list(combinations(range(9), 3))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("perturbed,first", [((70,), 70), ((70, 30), 30), ((70, 23), 23)])
def test_the_first_failing_subset_is_reported(monkeypatch, workers, perturbed, first):
    # At two workers the 84 triples of (3, 1, 2) run in 8 chunks, and
    # triples 23, 30 and 70 lie in chunks 2, 2 and 6.  Triples 30 and 70
    # are both of rank 2, so their perturbed profiles are one; 23 is
    # collinear.  The pool forks, so the workers see the patched kernel.
    targets = {TRIPLES_3_2[j] for j in perturbed}
    honest = grm._leaf_profiles

    def perturbed_tally(sweep, prefix, start, stop):
        row = honest(sweep, prefix, start, stop)
        for d, (cls, b, blocks) in zip(range(start, stop), row):
            if prefix + (d,) in targets:  # one (functional, value) moved from b_0 to b_1
                row[d - start] = (cls, (b[0] - 1, b[1] + 1) + b[2:], blocks)
        return row

    monkeypatch.setattr(grm, "_leaf_profiles", perturbed_tally)
    only = ["jacobi-triples", "count-tables-triples"]
    results = run_checks(pairs=((3, 1, 2),), only=only, workers=workers)
    assert [r.status for r in results] == ["FAIL", "FAIL"]
    assert [r.counterexample["T"] for r in results] == [list(TRIPLES_3_2[first])] * 2
