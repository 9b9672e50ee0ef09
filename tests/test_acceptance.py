"""Acceptance suite: one test per criterion, exact integer equality
throughout, with a printed PASS line each (run with -s to see them).

The whole report is built twice, with one worker and with two, and the
two serialized reports must be byte-identical (criterion 10).  Wall-clock
budgets are checked on the single-worker build.
"""

import json
import random
import time
from itertools import combinations
from math import comb

import pytest

from grmjacobi import (
    Field,
    GrmCode,
    JacobiPolynomial,
    TClass,
    class_witness,
    classify_T,
    closed_weight_distribution,
    conjecture_scan,
    count_blocks_containing,
    design_check_bruteforce,
    design_check_jacobi,
    dual_diff_coefficient,
    dual_jacobi,
    generalized_design_params,
    jacobi_brute_force,
    rank_difference_identity,
    t_class_census,
)
from grmjacobi.checks import count_mismatch, first_mismatch, jacobi_mismatch, sample_subsets
from grmjacobi.cli import parse_bound
from grmjacobi.grm import subset_pass

# (p, k, m) for (q, m) in {(2,2), (2,3), (3,2), (3,3), (4,2), (5,2)}
ACCEPTANCE_PAIRS = (
    (2, 1, 2),
    (2, 1, 3),
    (3, 1, 2),
    (3, 1, 3),
    (2, 2, 2),
    (5, 1, 2),
)
# size-4 sweeps at these (q, m) use 10^4 sampled subsets plus an
# exhaustive class census instead of the full subset sweep
SAMPLED_QUAD = {(3, 3), (5, 2)}
QUAD_SAMPLE_SIZE = 10_000
SCAN_BOUND = 10**7

NOT_3_DESIGN_PAIRS = {(3, 2): (6, 4), (4, 2): (24, 21), (5, 2): (60, 56), (3, 3): (22, 16)}

_CODES: dict[tuple[int, int, int], GrmCode] = {}


def code_for(p, k, m) -> GrmCode:
    key = (p, k, m)
    if key not in _CODES:
        _CODES[key] = GrmCode(Field(p, k), m)
    return _CODES[key]


def pair_key(code: GrmCode) -> str:
    return f"q{code.q}_m{code.m}"


def census_json(census) -> dict:
    return {cls.label(): census[cls] for cls in sorted(census, key=lambda c: c.label())}


def sweep(code: GrmCode, t: int, subsets, compare, workers: int) -> list[dict]:
    """The first mismatch of one compare over subset_pass(code, t,
    subsets), as a one-item list; [] when there is none."""
    profiles = subset_pass(code, t, subsets, tally=True, workers=workers)
    mismatch = first_mismatch(code, profiles, compare)
    return [] if mismatch is None else [mismatch]


def quad_subsets(code: GrmCode):
    """(subsets, count, mode) of the quad sweep, subsets as subset_pass
    takes it."""
    if (code.q, code.m) in SAMPLED_QUAD:
        sample = sample_subsets(code.n, 4, QUAD_SAMPLE_SIZE)
        return sample, len(sample), "sampled"
    return comb(code.n, 4), comb(code.n, 4), "full"


# ---------------------------------------------------------------------
# report builder (criteria 1..9); excluded from the report: wall times
# ---------------------------------------------------------------------


def build_report(workers: int) -> tuple[dict, dict]:
    report: dict = {}
    timings: dict = {}

    # criterion 1: enumerated weight distribution equals the three-shell form
    t0 = time.perf_counter()
    c1 = {}
    for p, k, m in ACCEPTANCE_PAIRS:
        code = code_for(p, k, m)
        got = code.weight_distribution()
        expected = closed_weight_distribution(code.q, code.m)
        c1[pair_key(code)] = {
            "distribution": {str(w): got[w] for w in sorted(got)},
            "matches": got == expected,
        }
    report["criterion_1"] = c1
    timings["criterion_1"] = time.perf_counter() - t0

    # criterion 2: brute-force vs closed-form Jacobi equivalence
    t0 = time.perf_counter()
    c2 = {}
    for p, k, m in ACCEPTANCE_PAIRS:
        code = code_for(p, k, m)
        entry = {}
        for t in (2, 3):
            count = comb(code.n, t)
            mism = sweep(code, t, count, jacobi_mismatch, workers=workers)
            entry[f"t{t}"] = {"mode": "full", "checked": count, "mismatches": mism}
        if code.n >= 4:
            subs, count, mode = quad_subsets(code)
            mism = sweep(code, 4, subs, jacobi_mismatch, workers=workers)
            census = t_class_census(code, 4)
            listed = subs if mode == "sampled" else combinations(range(code.n), 4)
            sampled_classes = sorted(
                {
                    classify_T(code, tuple(code.points()[i] for i in sub)).label()
                    for sub in listed
                }
            )
            entry["t4"] = {
                "mode": mode,
                "checked": count,
                "mismatches": mism,
                "census": census_json(census),
                "classes_in_sample": sampled_classes,
            }
        c2[pair_key(code)] = entry
    report["criterion_2"] = c2
    timings["criterion_2"] = time.perf_counter() - t0

    # criterion 3: enumerated count tables match the closed-form vectors
    t0 = time.perf_counter()
    c3 = {}
    for p, k, m in ACCEPTANCE_PAIRS:
        code = code_for(p, k, m)
        entry = {}
        for t in (2, 3):
            count = comb(code.n, t)
            entry[f"t{t}"] = {
                "checked": count,
                "mismatches": sweep(code, t, count, count_mismatch, workers=workers),
            }
        if code.n >= 4:
            subs, count, mode = quad_subsets(code)
            entry["t4"] = {
                "mode": mode,
                "checked": count,
                "mismatches": sweep(code, 4, subs, count_mismatch, workers=workers),
            }
        c3[pair_key(code)] = entry
    report["criterion_3"] = c3
    timings["criterion_3"] = time.perf_counter() - t0

    # criterion 4: every nonempty nontrivial shell is a 2-design, both routes
    t0 = time.perf_counter()
    c4 = {}
    for p, k, m in ACCEPTANCE_PAIRS:
        code = code_for(p, k, m)
        ell = (code.q - 1) * code.q ** (code.m - 1)
        jac = design_check_jacobi(code, ell, 2)
        blk = design_check_bruteforce(code, ell, 2, workers=workers)
        c4[pair_key(code)] = {
            "l": ell,
            "is_2_design": jac.is_t_design and blk.is_t_design,
            "lambda": str(jac.lambdas()[0]),
            "routes_agree": jac.lambda_by_class == blk.lambda_by_class,
            "blocks": blk.block_count,
            "subsets": sum(blk.class_counts.values()),
        }
    report["criterion_4"] = c4
    timings["criterion_4"] = time.perf_counter() - t0

    # criterion 5: the middle shell is not a 3-design; the two counts match
    # the generalized-parameter formulas; both routes agree
    t0 = time.perf_counter()
    c5 = {}
    for p, k, m in ACCEPTANCE_PAIRS:
        code = code_for(p, k, m)
        if (code.q, code.m) not in NOT_3_DESIGN_PAIRS:
            continue
        ell = (code.q - 1) * code.q ** (code.m - 1)
        jac = design_check_jacobi(code, ell, 3)
        blk = design_check_bruteforce(code, ell, 3, workers=workers)
        params = generalized_design_params(code, ell, 3)
        c5[pair_key(code)] = {
            "l": ell,
            "is_3_design": jac.is_t_design or blk.is_t_design,
            "lambdas": [str(v) for v in jac.lambdas()],
            "formula_lambdas": [str(v) for v in sorted(params.lambdas(), )],
            "routes_agree": jac.lambda_by_class == blk.lambda_by_class,
        }
    report["criterion_5"] = c5
    timings["criterion_5"] = time.perf_counter() - t0

    # criterion 6: difference identity, exact expansion
    t0 = time.perf_counter()
    c6 = {}
    for p, k, m in ((3, 1, 2), (5, 1, 2)):
        code = code_for(p, k, m)
        t_rank2 = class_witness(code, TClass(3, 2))
        t_rank1 = class_witness(code, TClass(3, 1))
        diff = jacobi_brute_force(code, t_rank2) - jacobi_brute_force(code, t_rank1)
        identity = rank_difference_identity(code.q, code.m)
        c6[pair_key(code)] = {
            "equal": diff == identity,
            "terms": identity.to_records(),
        }
    report["criterion_6"] = c6
    timings["criterion_6"] = time.perf_counter() - t0

    # criterion 7: dual transform
    t0 = time.perf_counter()
    c7 = {}
    rm2 = code_for(2, 1, 2)
    fixed = dual_jacobi(jacobi_brute_force(rm2, (), full_scan=True), rm2.size, 2)
    c7["fixed_case"] = {
        "dual_terms": fixed.to_records(),
        "is_repetition_enumerator": fixed
        == JacobiPolynomial(0, 4, {(0, 0, 4, 0): 1, (0, 0, 0, 4): 1}),
    }
    for p, k, m in ACCEPTANCE_PAIRS:
        code = code_for(p, k, m)
        q = code.q
        dual_size = q**code.n // code.size
        primal = jacobi_brute_force(code, (), full_scan=True)
        dual = dual_jacobi(primal, code.size, q)
        pair_T = class_witness(code, TClass(2, 1))
        jac = jacobi_brute_force(code, pair_T)
        jac_dual = dual_jacobi(jac, code.size, q)
        c7[pair_key(code)] = {
            "dual_eval_is_dual_size": dual.evaluate(1, 1, 1, 1) == dual_size,
            "dual_size": str(dual_size),
            "double_transform_identity": dual_jacobi(dual, dual_size, q) == primal
            and dual_jacobi(jac_dual, dual_size, q) == jac,
        }
    report["criterion_7"] = c7
    timings["criterion_7"] = time.perf_counter() - t0

    # criterion 8: the scan at bound 10^7
    t0 = time.perf_counter()
    results = list(conjecture_scan(SCAN_BOUND, workers=workers))
    m1 = [r for r in results if r.m == 1]
    m2 = [r for r in results if r.m >= 2]
    scan_32 = next(r for r in results if (r.q, r.m) == (3, 2))
    code32 = code_for(3, 1, 2)
    lhs = dual_jacobi(
        jacobi_brute_force(code32, class_witness(code32, TClass(3, 2))), 27, 3
    ) - dual_jacobi(
        jacobi_brute_force(code32, class_witness(code32, TClass(3, 1))), 27, 3
    )
    cross = all(
        shell.diff_coeff == lhs.coefficient(0, 3, 9 - shell.ell, shell.ell - 3)
        and shell.diff_coeff == dual_diff_coefficient(3, 2, shell.ell)
        for shell in scan_32.checked_shells
    )
    report["criterion_8"] = {
        "bound": SCAN_BOUND,
        "pairs_m2": [[r.q, r.m] for r in m2],
        "verdicts_m2": sorted({r.verdict for r in m2}),
        "skipped_m1": len(m1),
        "m1_all_skipped": all(r.verdict == "SKIPPED" for r in m1),
        "counterexamples": [[r.q, r.m] for r in results if r.verdict == "COUNTEREXAMPLE"],
        "q3_m2_coefficients_match_dual_transform": cross,
        "full_bound_flag_accepted": parse_bound("1e9") == 10**9,
    }
    timings["criterion_8"] = time.perf_counter() - t0

    # criterion 9: generalized 4-design parameters where all four classes
    # exist and the formulas are nonnegative; the census decides the pair
    t0 = time.perf_counter()
    candidates = [(2, 2, 3), (3, 1, 3)]  # (q, m) = (4, 3) and the (3, 3) control
    c9 = {}
    for p, k, m in candidates:
        code = code_for(p, k, m)
        ell = (code.q - 1) * code.q ** (code.m - 1)
        params = generalized_design_params(code, ell, 4)
        entry = {
            "l": ell,
            "classes": params.to_json_dict()["classes"],
            "applicable": params.applicable(),
        }
        if params.applicable():
            shell = code.shell(ell)
            rng = random.Random(520_2025)
            subsets = [class_witness(code, cp.tclass) for cp in params.classes]
            pts = code.points()
            for sub in sample_subsets(code.n, 4, 150, seed=rng.randrange(2**30)):
                subsets.append(tuple(pts[i] for i in sub))
            lam_by_class = {cp.tclass: cp.lam for cp in params.classes}
            checked = 0
            matches = True
            seen = set()
            for T in subsets:
                cls = classify_T(code, T)
                seen.add(cls)
                count = count_blocks_containing(code, shell, T)
                matches = matches and count == lam_by_class[cls]
                checked += 1
            entry["sampled_subsets"] = checked
            entry["all_classes_sampled"] = len(seen) == 4
            entry["counts_match_formulas"] = matches
        else:
            census = t_class_census(code, 4)
            entry["census"] = census_json(census)
            entry["rank1_class_empty"] = TClass(4, 1) not in census
        c9[pair_key(code)] = entry
    report["criterion_9"] = c9
    timings["criterion_9"] = time.perf_counter() - t0

    return report, timings


@pytest.fixture(scope="module")
def built():
    report, timings = build_report(workers=1)
    return report, timings


def _pass(line: str):
    print(f"ACCEPTANCE {line}: PASS")


# ---------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------


def test_criterion_1_weight_enumerator(built):
    report, timings = built
    assert all(entry["matches"] for entry in report["criterion_1"].values())
    assert report["criterion_1"]["q3_m2"]["distribution"] == {"0": 1, "6": 24, "9": 2}
    assert timings["criterion_1"] < 1.0, f"took {timings['criterion_1']:.2f}s"
    _pass("1 weight-enumerator")


def test_criterion_2_jacobi_equivalence(built):
    report, timings = built
    for pair, entry in report["criterion_2"].items():
        for t_key, data in entry.items():
            assert data["mismatches"] == [], (pair, t_key)
        if "t4" in entry:
            assert set(entry["t4"]["classes_in_sample"]) == set(entry["t4"]["census"]), pair
    assert report["criterion_2"]["q3_m3"]["t4"]["mode"] == "sampled"
    assert report["criterion_2"]["q5_m2"]["t4"]["mode"] == "sampled"
    assert report["criterion_2"]["q3_m3"]["t4"]["checked"] == QUAD_SAMPLE_SIZE
    assert report["criterion_2"]["q4_m2"]["t4"]["mode"] == "full"
    assert timings["criterion_2"] < 600.0
    _pass("2 closed-form-equivalence")


def test_criterion_3_count_tables(built):
    report, timings = built
    for pair, entry in report["criterion_3"].items():
        for t_key, data in entry.items():
            assert data["mismatches"] == [], (pair, t_key)
    _pass("3 count-tables")


def test_criterion_4_two_designs(built):
    report, _ = built
    for pair, entry in report["criterion_4"].items():
        assert entry["is_2_design"], pair
        assert entry["routes_agree"], pair
    q3 = report["criterion_4"]["q3_m2"]
    assert q3["lambda"] == "10" and q3["blocks"] == 24 and q3["subsets"] == 36
    _pass("4 two-designs")


def test_criterion_5_not_three_designs(built):
    report, _ = built
    assert set(report["criterion_5"]) == {"q3_m2", "q4_m2", "q5_m2", "q3_m3"}
    for pair, entry in report["criterion_5"].items():
        assert not entry["is_3_design"], pair
        assert entry["routes_agree"], pair
        assert entry["lambdas"] == entry["formula_lambdas"], pair
    expected = {
        "q3_m2": ["4", "6"],
        "q4_m2": ["21", "24"],
        "q5_m2": ["56", "60"],
        "q3_m3": ["16", "22"],
    }
    for pair, lams in expected.items():
        assert report["criterion_5"][pair]["lambdas"] == lams
    _pass("5 not-three-designs")


def test_criterion_6_difference_identity(built):
    report, _ = built
    assert all(entry["equal"] for entry in report["criterion_6"].values())
    assert set(report["criterion_6"]) == {"q3_m2", "q5_m2"}
    _pass("6 difference-identity")


def test_criterion_7_dual_transform(built):
    report, _ = built
    assert report["criterion_7"]["fixed_case"]["is_repetition_enumerator"]
    for pair in ("q2_m2", "q2_m3", "q3_m2", "q3_m3", "q4_m2", "q5_m2"):
        entry = report["criterion_7"][pair]
        assert entry["dual_eval_is_dual_size"], pair
        assert entry["double_transform_identity"], pair
    _pass("7 dual-transform")


def test_criterion_8_conjecture_scan(built):
    report, timings = built
    entry = report["criterion_8"]
    assert entry["verdicts_m2"] == ["CONFIRMED"]
    assert entry["counterexamples"] == []
    assert entry["m1_all_skipped"]
    assert entry["q3_m2_coefficients_match_dual_transform"]
    assert entry["full_bound_flag_accepted"]
    assert [3, 2] in entry["pairs_m2"] and [53, 2] in entry["pairs_m2"]
    assert len(entry["pairs_m2"]) == 40
    assert timings["criterion_8"] < 900.0
    _pass("8 conjecture-scan")


def test_criterion_9_generalized_four_designs(built):
    report, _ = built
    q4 = report["criterion_9"]["q4_m3"]
    assert q4["applicable"]
    assert [c["lambda"] for c in q4["classes"]] == ["78", "69", "81", "45"]
    assert q4["all_classes_sampled"] and q4["counts_match_formulas"]
    q3 = report["criterion_9"]["q3_m3"]
    assert not q3["applicable"]
    assert q3["rank1_class_empty"]
    rank1 = next(c for c in q3["classes"] if c["class"] == "t4-rank1")
    assert rank1["lambda"] == "-2" and rank1["nonempty"] is False
    _pass("9 generalized-four-designs")


def test_criterion_10_determinism_across_workers(built):
    report1, _ = built
    report2, _ = build_report(workers=2)
    bytes1 = json.dumps(report1, sort_keys=True).encode()
    bytes2 = json.dumps(report2, sort_keys=True).encode()
    assert bytes1 == bytes2
    _pass("10 determinism")
