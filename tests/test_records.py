"""The result records: immutable, picklable, readable by field name, and
serialized field by field."""

import pickle

import pytest

from grmjacobi import grm
from grmjacobi.checks import CheckResult
from grmjacobi.conjecture import ScanResult, ShellCheck
from grmjacobi.designs import ClassParams, DesignReport, GeneralizedDesignParams
from grmjacobi.jacobi import CountTables, JacobiPolynomial

T3_RANK2, T3_RANK1 = grm.TClass(3, 2), grm.TClass(3, 1)

RECORDS = [
    (CheckResult, dict(name="jacobi-pairs", q=3, m=2, status="FAIL", detail="1 of 36",
                       counterexample={"T": [[0, 0], [0, 1]]})),
    (ShellCheck, dict(ell=4, nonempty=True, diff_coeff=-6, in_range=True)),
    (ScanResult, dict(q=3, m=2, verdict="COUNTEREXAMPLE",
                      checked_shells=(ShellCheck(4, True, -6, True), ShellCheck(9, True, 0, False)),
                      reason=None, counterexample=(4, -6))),
    (DesignReport, dict(q=3, m=2, ell=6, t=3, method="jacobi",
                        lambda_by_class={T3_RANK2: 2, T3_RANK1: 0},
                        class_counts={T3_RANK2: 72, T3_RANK1: 12},
                        block_count=144, is_t_design=False, trivial=False)),
    (ClassParams, dict(tclass=T3_RANK1, lam=None, nonempty=True)),
    (GeneralizedDesignParams, dict(v=9, k=6, t=3, classes=(
        ClassParams(T3_RANK2, 2, True), ClassParams(T3_RANK1, None, True)))),
    (CountTables, dict(t=2, q=3, b=(6, 6, 6), a=(2, 12, 12))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_fields_are_frozen_and_pickle(cls, fields):
    rec = cls(**fields)
    assert rec._fields == tuple(fields)
    for name, value in fields.items():
        assert getattr(rec, name) == value
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_record_defaults():
    assert CheckResult("weight-enumerator", 2, 1, "PASS") == CheckResult(
        "weight-enumerator", 2, 1, "PASS", "", None
    )
    assert ScanResult(4, 2, "SKIPPED") == ScanResult(4, 2, "SKIPPED", (), None, None)


def test_record_json():
    fixed = {cls.__name__: cls(**fields) for cls, fields in RECORDS}
    assert fixed["CheckResult"].to_json_dict() == {
        "check": "jacobi-pairs", "q": 3, "m": 2, "status": "FAIL", "detail": "1 of 36",
        "counterexample": {"T": [[0, 0], [0, 1]]},
    }
    assert CheckResult("dual-transform", 3, 1, "SKIP", "needs m >= 2").to_json_dict() == {
        "check": "dual-transform", "q": 3, "m": 1, "status": "SKIP", "detail": "needs m >= 2",
    }
    assert fixed["ScanResult"].to_json_dict() == {
        "q": 3, "m": 2, "verdict": "COUNTEREXAMPLE", "shells_checked": 1,
        "shells_nonempty": 1, "shells_out_of_range_nonempty": 1,
        "counterexample": {"l": 4, "coeff": "-6"},
    }
    assert ScanResult(4, 2, "SKIPPED", reason="q is not a prime power >= 3").to_json_dict() == {
        "q": 4, "m": 2, "verdict": "SKIPPED", "shells_checked": 0, "shells_nonempty": 0,
        "shells_out_of_range_nonempty": 0, "reason": "q is not a prime power >= 3",
    }
    assert fixed["DesignReport"].lambdas() == (0, 2)
    assert fixed["DesignReport"].to_json_dict() == {
        "q": 3, "m": 2, "l": 6, "t": 3, "method": "jacobi",
        "classes": [
            {"class": "t3-rank2", "lambda": "2", "subsets": 72},
            {"class": "t3-rank1", "lambda": "0", "subsets": 12},
        ],
        "block_count": 144, "is_t_design": False, "trivial": False,
    }
    assert fixed["GeneralizedDesignParams"].lambdas() == (2, None)
    assert fixed["GeneralizedDesignParams"].to_json_dict() == {
        "v": 9, "k": 6, "t": 3,
        "classes": [
            {"class": "t3-rank2", "lambda": "2", "nonempty": True},
            {"class": "t3-rank1", "lambda": None, "nonempty": True},
        ],
        "applicable": False,
    }


def test_jacobi_polynomial_cleans_and_checks_its_terms():
    jac = JacobiPolynomial(2, 9, {(2, 0, 7, 0): 1, (1, 1, 3, 4): 0, (0, 2, 0, 7): 2})
    assert jac.terms == {(2, 0, 7, 0): 1, (0, 2, 0, 7): 2}
    assert JacobiPolynomial(2, 9).terms == {}
    with pytest.raises(ValueError, match=r"^negative exponent in term \(2, 0, -1, 8\)$"):
        JacobiPolynomial(2, 9, {(2, 0, -1, 8): 1})
    with pytest.raises(
        ValueError, match=r"^term \(1, 0, 7, 0\) breaks bi-homogeneity for t=2, n=9$"
    ):
        JacobiPolynomial(2, 9, {(1, 0, 7, 0): 1})


def test_jacobi_polynomial_equality_and_hash():
    jac = JacobiPolynomial(2, 9, {(2, 0, 7, 0): 1, (0, 2, 0, 7): 2})
    assert jac == JacobiPolynomial(2, 9, {(2, 0, 7, 0): 1, (0, 2, 0, 7): 2, (1, 1, 3, 4): 0})
    assert jac != JacobiPolynomial(2, 9, {(2, 0, 7, 0): 1})
    assert jac != JacobiPolynomial(3, 9)
    assert jac != (2, 9, jac.terms)
    with pytest.raises(TypeError):
        hash(jac)
    assert (jac - jac).terms == {}
    assert jac - jac == JacobiPolynomial(2, 9)
    assert pickle.loads(pickle.dumps(jac)) == jac
    assert repr(jac) == "JacobiPolynomial(t=2, n=9, terms={(2, 0, 7, 0): 1, (0, 2, 0, 7): 2})"
