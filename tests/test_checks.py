import pytest

from grmjacobi.checks import CHECKS, run_checks


def test_full_registry_passes_at_q3_m2():
    results = run_checks(pairs=((3, 1, 2),))
    assert len(results) == len(CHECKS)
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
    only = ["jacobi-triples", "count-tables-triples"]
    one = run_checks(pairs=((3, 1, 2),), only=only, workers=1)
    two = run_checks(pairs=((3, 1, 2),), only=only, workers=2)
    assert [r.to_json_dict() for r in one] == [r.to_json_dict() for r in two]
