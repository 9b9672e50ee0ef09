import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grmjacobi.field import Field, _is_irreducible, _poly_mod, is_prime, least_irreducible

SMALL_PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


# ---------------------------------------------------------
# Construction and modulus choice
# ---------------------------------------------------------


def test_prime_field_needs_no_modulus():
    f = Field(2)
    assert (f.p, f.k, f.q) == (2, 1, 2)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    assert Field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_f9_modulus_is_lex_least():
    # independent oracle: a quadratic over GF(3) is irreducible iff it has
    # no root; exhaust all monic quadratics in ascending-tuple order
    candidates = []
    for c0, c1 in product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            candidates.append((c0, c1, 1))
    assert candidates[0] == (1, 0, 1)  # x^2 + 1
    assert Field(3, 2).modulus == (1, 0, 1)


def test_f8_modulus_matches_root_free_oracle():
    candidates = []
    for c0, c1, c2 in product(range(2), repeat=3):
        # cubics over GF(2): reducible iff they have a linear factor
        if all((x**3 + c2 * x * x + c1 * x + c0) % 2 != 0 for x in range(2)):
            candidates.append((c0, c1, c2, 1))
    assert Field(2, 3).modulus == candidates[0]


def _irreducible_by_trial_division(poly, p):
    """Oracle: no monic divisor of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not _poly_mod(poly, list(tail) + [1], p):
                return False
    return True


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_ben_or_test_equals_trial_division(p, k):
    for tail in product(range(p), repeat=k):
        poly = list(tail) + [1]
        assert _is_irreducible(poly, p) == _irreducible_by_trial_division(poly, p), poly


@pytest.mark.parametrize(
    "p,k",
    [(2, k) for k in range(2, 9)] + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)],
)
def test_least_irreducible_equals_trial_division_search(p, k):
    # lex-least over every monic tail, c_0 = 0 included
    expected = next(
        tuple(tail) + (1,)
        for tail in product(range(p), repeat=k)
        if _irreducible_by_trial_division(list(tail) + [1], p)
    )
    assert least_irreducible(p, k) == expected


@pytest.mark.parametrize("p,k", [(2, 40), (101, 6)])
def test_large_extension_fields_build_fast(p, k):
    start = time.perf_counter()
    f = Field(p, k)
    assert time.perf_counter() - start < 2
    assert f.modulus[0] != 0 and f.modulus[-1] == 1 and len(f.modulus) == k + 1
    # a reducible modulus would leave zero divisors without inverses
    for a in (2, 3, f.q // 3, f.q - 1):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5)])
def test_tabled_fields_build_fast(p, k):
    # the tables come from one addition per digit and the powers of a
    # primitive element, not from a raw operation per entry
    start = time.perf_counter()
    f = Field(p, k)
    assert time.perf_counter() - start < 0.5
    assert f._mul_table is not None and len(f._mul_table) == f.q**2


@pytest.mark.parametrize("p,k", [(2, 22), (2, 40), (3, 7)])
def test_inverse_without_tables(p, k):
    f = Field(p, k)
    assert f._inv_table is None
    for a in (1, 2, 3, p, f.q // 3, f.q // 2 + 1, f.q - 2, f.q - 1):
        inverse = f.inv(a)
        assert f.mul(a, inverse) == 1
        assert inverse == f.pow(a, f.q - 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_modulus_is_irreducible_for_all_small_fields():
    for p, k in SMALL_PRIME_POWERS:
        if k == 1:
            continue
        mod = least_irreducible(p, k)
        assert len(mod) == k + 1 and mod[-1] == 1
        assert Field(p, k).modulus == mod


def test_a_modulus_search_beyond_its_limit_is_refused_at_once():
    # 128^3 * 2 bits of p = 2^22: GF(2^128) is the largest binary field built
    assert len(Field(2, 128).modulus) == 129
    start = time.perf_counter()
    for p, k in ((2, 129), (7, 113), (2, 10**30)):
        with pytest.raises(ValueError, match="needs a modulus search beyond 4194304 steps"):
            Field(p, k)
    assert time.perf_counter() - start < 0.1


def test_nonprime_characteristic_rejected():
    for bad in (1, 4, 6, 9):
        with pytest.raises(ValueError):
            Field(bad)
    with pytest.raises(ValueError):
        Field(3, 0)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    assert {n for n in range(25) if is_prime(n)} == primes


def test_construction_is_deterministic():
    a, b = Field(3, 2), Field(3, 2)
    assert a == b and a.modulus == b.modulus


# ---------------------------------------------------------
# Arithmetic examples
# ---------------------------------------------------------


def test_f4_multiplication():
    f = Field(2, 2)
    # index 2 is the root a of x^2 + x + 1; a * a = a + 1 (index 3)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1  # a * (a + 1) = a^2 + a = 1


def test_f3_inverse():
    assert Field(3).inv(2) == 2


def test_additive_inverse_everywhere():
    for p, k in SMALL_PRIME_POWERS:
        f = Field(p, k)
        assert all(f.add(a, f.neg(a)) == 0 for a in f.elements())


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


def test_elements_order_and_identities():
    f2 = Field(2)
    assert list(f2.elements()) == [0, 1]
    f4 = Field(2, 2)
    assert len(list(f4.elements())) == 4
    for p, k in SMALL_PRIME_POWERS:
        f = Field(p, k)
        assert all(f.add(0, a) == a for a in f.elements())
        assert all(f.mul(1, a) == a for a in f.elements())
        assert all(f.mul(0, a) == 0 for a in f.elements())


def test_f9_prime_subfield_closed():
    f = Field(3, 2)
    sub = {0, 1, 2}
    for a in sub:
        for b in sub:
            assert f.add(a, b) in sub
            assert f.mul(a, b) in sub


def test_digits_roundtrip():
    f = Field(3, 2)
    for a in f.elements():
        assert f.from_digits(f.digits(a)) == a


# ---------------------------------------------------------
# Field axioms, exhaustively for every implemented q <= 16
# ---------------------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_axioms_exhaustive(p, k):
    f = Field(p, k)
    els = list(f.elements())
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", SMALL_PRIME_POWERS)
def test_multiplicative_inverses_exhaustive(p, k):
    f = Field(p, k)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,k", SMALL_PRIME_POWERS)
def test_frobenius(p, k):
    f = Field(p, k)
    for a in f.elements():
        for b in f.elements():
            lhs = f.pow(f.add(a, b), p)
            rhs = f.add(f.pow(a, p), f.pow(b, p))
            assert lhs == rhs


# Fields above the table limit compute every operation from the modulus.
UNTABLED = [Field(257), Field(2, 9)]


@st.composite
def untabled_triples(draw):
    f = draw(st.sampled_from(UNTABLED))
    a, b, c = (draw(st.integers(0, f.q - 1)) for _ in range(3))
    return f, a, b, c


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(untabled_triples())
def test_axioms_on_untabled_fields(case):
    f, a, b, c = case
    assert f._mul_table is None
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, 0) == f.mul(a, 1) == a
    assert f.add(a, f.neg(a)) == 0
    assert f.add(f.sub(a, b), b) == a
    assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))
    if a:
        assert f.mul(a, f.inv(a)) == 1


def _check_row_kernels(f, ref, shifts):
    """f's vector kernels against ref's element-wise arithmetic, for every
    scalar c; v runs over the given rotations of the elements, so all
    shifts cover every entry pair u[i], v[i]."""
    els = list(f.elements())
    for c in els:
        assert f.scale(c, els) == [ref.mul(c, x) for x in els]
        for shift in shifts:
            v = els[shift:] + els[:shift]
            assert f.sub_scaled(els, c, v) == [ref.sub(a, ref.mul(c, b)) for a, b in zip(els, v)]
    assert f.outer_sum(els, els[::-1]) == [ref.add(a, b) for a in els for b in els[::-1]]


def test_untabled_field_matches_tabled_one():
    # same arithmetic with and without lookup tables; in the two largest
    # tabled fields every 15th row of the add/sub/mul tables is compared,
    # and the row kernels, which read the tables, only in the small ones
    for p, k in SMALL_PRIME_POWERS + [(2, 8), (3, 5)]:
        f, raw = Field(p, k), Field(p, k)
        raw._add_table = raw._sub_table = raw._mul_table = None
        raw._neg_table = raw._inv_table = None
        small = (p, k) in SMALL_PRIME_POWERS
        for a in f.elements():
            assert f.neg(a) == raw.neg(a) == raw._neg_raw(a)
        for a in f.elements() if small else range(0, f.q, 15):
            for b in f.elements():
                assert f.add(a, b) == raw._add_raw(a, b)
                assert f.mul(a, b) == raw._mul_raw(a, b)
                assert f.sub(a, b) == raw.sub(a, b)
        for a in range(1, f.q):
            assert f.inv(a) == raw.inv(a) == raw.pow(a, f.q - 2)
        if small:
            _check_row_kernels(f, raw, range(f.q))
            _check_row_kernels(raw, raw, range(f.q))


def test_untabled_field_kernels():
    f = Field(257)
    assert f._add_table is None and f._sub_table is None and f._neg_table is None
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        for b in f.elements():
            assert f.add(f.sub(a, b), b) == a
    _check_row_kernels(f, f, (0, 1, 128))
