"""Exact Jacobi polynomials of RM_q(1, m): brute force, closed forms,
count-table assembly, and the MacWilliams-type dual transform.

A Jacobi polynomial for a position set T of size t in a code of length n
is stored sparsely as a map from exponent quadruples (e_w, e_z, e_x, e_y)
to arbitrary-precision integer coefficients.  Every term satisfies
e_w + e_z = t and e_x + e_y = n - t, and evaluating at (1, 1, 1, 1)
returns the number of codewords.  The polynomial of the empty T is the
weight enumerator: x^(n-w) y^w counts the codewords of weight w.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cache
from typing import Iterator, NamedTuple

from .grm import (
    COLLINEAR_TRIPLE,
    GENERIC,
    GrmCode,
    PointSet,
    TClass,
    classes_of_size,
    require_budget,
)

ExpKey = tuple[int, int, int, int]


class JacobiPolynomial:
    """Bi-homogeneous 4-variable polynomial in (w, z, x, y); its terms
    are checked and zero coefficients dropped when it is built."""

    __slots__ = ("t", "n", "terms")

    def __init__(self, t: int, n: int, terms: dict[ExpKey, int] | None = None):
        clean = {}
        for key, coeff in (terms or {}).items():
            ew, ez, ex, ey = key
            if min(key) < 0:
                raise ValueError(f"negative exponent in term {key}")
            if ew + ez != t or ex + ey != n - t:
                raise ValueError(f"term {key} breaks bi-homogeneity for t={t}, n={n}")
            if coeff:
                clean[key] = coeff
        self.t, self.n, self.terms = t, n, clean

    def __eq__(self, other):  # and so no __hash__: terms is a dict
        if not isinstance(other, JacobiPolynomial):
            return NotImplemented
        return (self.t, self.n, self.terms) == (other.t, other.n, other.terms)

    def __repr__(self) -> str:
        return f"JacobiPolynomial(t={self.t}, n={self.n}, terms={self.terms})"

    def coefficient(self, e_w: int, e_z: int, e_x: int, e_y: int) -> int:
        return self.terms.get((e_w, e_z, e_x, e_y), 0)

    def evaluate(self, w: int, z: int, x: int, y: int) -> int:
        return sum(
            c * w**ew * z**ez * x**ex * y**ey
            for (ew, ez, ex, ey), c in self.terms.items()
        )

    def __sub__(self, other: "JacobiPolynomial") -> "JacobiPolynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) - c
        return JacobiPolynomial(self.t, self.n, terms)

    def _check_compatible(self, other: "JacobiPolynomial") -> None:
        if self.t != other.t or self.n != other.n:
            raise ValueError(
                f"incompatible polynomials: (t={self.t}, n={self.n}) "
                f"vs (t={other.t}, n={other.n})"
            )

    def _ordered_terms(self) -> list[tuple[ExpKey, int]]:
        """(key, coeff) pairs by falling e_w and e_x, then rising e_z and e_y."""
        return sorted(
            self.terms.items(), key=lambda kc: (-kc[0][0], -kc[0][2], kc[0][1], kc[0][3])
        )

    def to_records(self) -> list[dict]:
        """Serializable term list; coefficients as decimal strings since
        they may exceed 64 bits."""
        return [
            {"e_w": ew, "e_z": ez, "e_x": ex, "e_y": ey, "coeff": str(c)}
            for (ew, ez, ex, ey), c in self._ordered_terms()
        ]

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self._ordered_terms():
            factors = [] if c == 1 else [str(c)]
            for name, e in zip("wzxy", key):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)


def middle_shell_weight(q: int, m: int) -> int:
    """(q-1)q^(m-1), the weight of every non-constant codeword."""
    return (q - 1) * q ** (m - 1)


def closed_weight_distribution(q: int, m: int) -> dict[int, int]:
    """The three-shell weight pattern of the affine evaluation code."""
    return {0: 1, middle_shell_weight(q, m): q ** (m + 1) - q, q**m: q - 1}


# -- binomial convolution ------------------------------------------------


def binom_conv(a_deg: int, alpha: int, b_deg: int) -> Iterator[int]:
    """Yield the Y^j coefficient of (X + alpha*Y)^a_deg (X - Y)^b_deg for
    j = 0, 1, ..., a_deg + b_deg.

    The shorter factor's coefficients are kept; the longer factor's
    binomial advances by exact multiply/divide (dropping to 0 past its
    degree) through a window of min(a_deg, b_deg) + 1 values, so each
    coefficient is one dot product over that window.
    """
    (short_deg, short_scale), (long_deg, long_scale) = sorted(
        [(a_deg, alpha), (b_deg, -1)], key=lambda factor: factor[0]
    )
    u = [1]
    for i in range(1, short_deg + 1):
        u.append(u[-1] * ((short_deg - i + 1) * short_scale) // i)
    window: deque[int] = deque(maxlen=short_deg + 1)
    v = 1
    for j in range(a_deg + b_deg + 1):
        if j:
            v = v * ((long_deg - j + 1) * long_scale) // j
        window.appendleft(v)
        yield sum(u[i] * w for i, w in enumerate(window) if w)


def _conv_steps(a_deg: int, b_deg: int) -> int:
    """The window products binom_conv(a_deg, _, b_deg) sums: min(j, s) + 1
    at Y^j, s the lesser degree."""
    s = min(a_deg, b_deg)
    return (s + 1) * (s + 2) // 2 + (a_deg + b_deg - s) * (s + 1)


# -- brute-force Jacobi and count tables --------------------------------------


def _row_sums(code: GrmCode, points: PointSet) -> tuple[int, ...]:
    """b[i] counts the pairs (lam, v) of a functional and a value that lam
    takes on exactly i points of T: the one tally behind brute force, count
    tables and the subset pass.  Its callers ask require_tally_budget.

    Each point's value mask (GrmCode.value_mask) holds one bit per pair.
    The masks are added into bit-sliced counters, planes[k] holding bit k
    of every pair's count, so each word operation counts 64 pairs; b[i]
    for i >= 1 is the number of pairs whose count is i, and b[0] the rest
    of the q*n pairs.  Every row sum, and so every a_i, is the same on each
    translate of T: on T + v each functional takes its values on T shifted
    by lam(v).
    """
    planes: list[int] = []
    for u in points:
        carry = code.value_mask(u)
        k = 0
        while carry:
            if k == len(planes):
                planes.append(carry)
                break
            planes[k], carry = planes[k] ^ carry, planes[k] & carry
            k += 1
    inverted = [~plane for plane in planes]
    b = [0] * (len(points) + 1)
    for i in range(1, min(len(b), 1 << len(planes))):
        lanes = -1
        for k, plane in enumerate(planes):
            lanes &= plane if i >> k & 1 else inverted[k]
        b[i] = lanes.bit_count()
    b[0] = code.size - sum(b)
    return tuple(b)


def require_tally_budget(code: GrmCode, t: int) -> None:
    """Ask the budget of a functional tally of t points, before it runs:
    the t x n functional values it counts, and the t value masks it holds."""
    require_budget(t * code.n, f"{t} points x {code.n} functional values")
    require_budget(t * code.mask_words, f"{t} masks x {code.mask_words} words")


def _tally(code: GrmCode, points: PointSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(b, a) of T after T is checked and the tally's budget asked."""
    code.require_points(points)
    t = len(points)
    require_tally_budget(code, t)
    b = _row_sums(code, points)
    return b, a_from_b(b, t, code.q)


def jacobi_brute_force(
    code: GrmCode, points: PointSet, full_scan: bool = False
) -> JacobiPolynomial:
    """Jacobi polynomial by counting every codeword, after T is checked.

    By default the functional tally of T (_row_sums, O(t * q^m) work)
    gives the restricted weights: (lam, b) vanishes at u exactly when
    lam(u) = -b, so b_i is the number of codewords with i zeros on T, and
    jacobi_from_a adds the structural weight outside T.  full_scan=True
    instead reads every codeword at all q^m positions from
    code.value_rows() and serves as the independent oracle for that
    shortcut.
    """
    if not full_scan:
        _, a = _tally(code, points)
        return jacobi_from_a(a, code.q, code.m, len(points))
    code.require_points(points)
    t, n = len(points), code.n
    rows = code.value_rows()  # the budget, before point_index builds its map
    positions = [code.point_index(pt) for pt in points]
    terms: dict[ExpKey, int] = {}
    for _, row in rows:
        zeros = sum(1 for i in positions if not row[i])  # zero positions on T
        outside = n - row.count(0) - (t - zeros)  # nonzero positions outside T
        key = (zeros, t - zeros, (n - t) - outside, outside)
        terms[key] = terms.get(key, 0) + 1
    return JacobiPolynomial(t, n, terms)


class CountTables(NamedTuple):
    """Functional counts over V*: b[i] counts the pairs of a functional
    and a value it takes on exactly i points of T; a[i] counts the
    non-constant codewords whose restriction to T has weight i."""

    t: int
    q: int
    b: tuple[int, ...]
    a: tuple[int, ...]


def a_from_b(b, t: int, q: int) -> tuple[int, ...]:
    """Restricted-weight codeword counts from functional value counts."""
    if len(b) != t + 1:
        raise ValueError(f"expected {t + 1} entries, got {len(b)}")
    a = []
    for i in range(t + 1):
        ai = b[t - i] - (1 if i == 0 else 0) - ((q - 1) if i == t else 0)
        if ai < 0:
            raise RuntimeError(f"negative a_{i} = {ai}: counting bug")
        a.append(ai)
    return tuple(a)


def count_tables(code: GrmCode, points: PointSet) -> CountTables:
    """The functional tally of T, after T is checked (distinct points of
    V; the empty T is allowed).  It is the same on every translate of T
    (see _row_sums), so T is tallied as given."""
    b, a = _tally(code, points)
    return CountTables(t=len(points), q=code.q, b=b, a=a)


def jacobi_from_a(a, q: int, m: int, t: int) -> JacobiPolynomial:
    """Assemble the Jacobi polynomial from restricted-weight counts.

    The zero word contributes w^t x^(n-t), the q-1 nonzero constants
    contribute z^t y^(n-t), and every non-constant word of restricted
    weight i lands in the stratum
    w^(t-i) z^i x^(q^(m-1)-(t-i)) y^((q-1)q^(m-1)-i).
    """
    if len(a) != t + 1:
        raise ValueError(f"expected {t + 1} entries, got {len(a)}")
    n = q**m
    if t > n:
        raise ValueError(f"|T| = {t} exceeds code length {n}")
    terms: dict[ExpKey, int] = {(t, 0, n - t, 0): 1}
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        ex = q ** (m - 1) - (t - i)
        ey = middle_shell_weight(q, m) - i
        if ex < 0 or ey < 0:
            raise ValueError(
                f"stratum i={i} needs negative exponent at q={q}, m={m}, t={t}"
            )
        key = (t - i, i, ex, ey)
        terms[key] = terms.get(key, 0) + ai
    last = (0, t, 0, n - t)
    terms[last] = terms.get(last, 0) + (q - 1)
    return JacobiPolynomial(t, n, terms)


# -- closed forms ------------------------------------------------------------


@cache
def closed_form_a(tclass: TClass, q: int, m: int) -> tuple[int, ...]:
    """Restricted-weight counts for each T classification, in closed form
    (computed once per argument triple)."""
    t, rank, sub = tclass.t, tclass.rank, tclass.subcase
    _check_class(tclass, q, m)
    qm = q**m
    qa = q ** (m - 1)
    if t == 2:
        return (qa - 1, 2 * (q - 1) * qa, (q - 1) * (qm - qa - 1))
    if t == 3 and rank == 2:
        qb = q ** (m - 2)
        return (
            qb - 1,
            3 * qb * (q - 1),
            3 * qb * (q - 1) ** 2,
            (q - 1) * (qm - 2 * qa + qb - 1),
        )
    if t == 3 and rank == 1:
        return (qa - 1, 0, 3 * qa * (q - 1), (q - 1) * (qm - 2 * qa - 1))
    if t == 4 and rank == 3:
        qb, qc = q ** (m - 2), q ** (m - 3)
        return (
            qc - 1,
            4 * (q - 1) * qc,
            6 * (q - 1) ** 2 * qc,
            4 * (q - 1) ** 3 * qc,
            (q - 1) * (qm - 3 * qa + 3 * qb - qc - 1),
        )
    if t == 4 and rank == 2 and sub == COLLINEAR_TRIPLE:
        qb = q ** (m - 2)
        return (
            qb - 1,
            qb * (q - 1),
            3 * qb * (q - 1),
            qb * (q - 1) * (4 * q - 5),
            (q - 1) * (qm - 3 * qa + 2 * qb - 1),
        )
    if t == 4 and rank == 2 and sub == GENERIC:
        qb = q ** (m - 2)
        return (
            qb - 1,
            0,
            6 * qb * (q - 1),
            qb * (q - 1) * (4 * q - 8),
            (q - 1) * (qm - 3 * qa + 3 * qb - 1),
        )
    # t4-rank1, the last of the classes _check_class admits
    return (qa - 1, 0, 0, 4 * (q - 1) * qa, (q - 1) * (qm - 3 * qa - 1))


@cache
def closed_form_b(tclass: TClass, q: int, m: int) -> tuple[int, ...]:
    """Functional value counts b_i in closed form (pair and triple classes;
    computed once per argument triple)."""
    t, rank = tclass.t, tclass.rank
    _check_class(tclass, q, m)
    qa = q ** (m - 1)
    if t == 2:
        return (qa * (q - 1) ** 2, 2 * qa * (q - 1), qa)
    if t == 3 and rank == 2:
        qb = q ** (m - 2)
        return (qb * (q - 1) ** 3, 3 * qb * (q - 1) ** 2, 3 * qb * (q - 1), qb)
    if t == 3 and rank == 1:
        return (qa * (q - 1) * (q - 2), 3 * qa * (q - 1), 0, qa)
    raise ValueError(f"no closed b-vector for class {tclass}")


def _check_class(tclass: TClass, q: int, m: int) -> None:
    """Admit one of the paper's classes that fits in RM_q(1, m)."""
    if tclass not in classes_of_size(tclass.t):
        raise ValueError(f"no closed form for class {tclass}")
    if q**m < tclass.t:
        raise ValueError(f"code length {q**m} is smaller than |T| = {tclass.t}")
    if tclass.rank > m:
        raise ValueError(f"rank {tclass.rank} impossible for t={tclass.t}, m={m}")


def jacobi_closed_form(code: GrmCode, tclass: TClass) -> JacobiPolynomial:
    """Dispatch the classification to its closed-form polynomial."""
    return jacobi_from_a(
        closed_form_a(tclass, code.q, code.m), code.q, code.m, tclass.t
    )


# -- dual transform ---------------------------------------------------------


def dual_jacobi(jac: JacobiPolynomial, code_size: int, q: int) -> JacobiPolynomial:
    """Jacobi polynomial of the dual code.

    Substitutes (w + (q-1)z, w - z, x + (q-1)y, x - y), expands each input
    term by two binomial convolutions (never by naive monomial products),
    and divides by the code size.  The work, the convolutions' window
    products plus at most (t+1)(n-t+1) products per term, is refused
    beyond the work budget before any of it is done.  Division must be exact; a remainder
    means the input was not the Jacobi polynomial of a linear code of that
    size.
    """
    if code_size <= 0:
        raise ValueError("code size must be positive")
    t, n = jac.t, jac.n
    steps = sum(_conv_steps(ew, ez) for ew, ez in {key[:2] for key in jac.terms}) + sum(
        _conv_steps(ex, ey) + (t + 1) * (n - t + 1) for _, _, ex, ey in jac.terms
    )
    require_budget(steps, f"convolution and product steps over {len(jac.terms)} terms")
    acc: dict[ExpKey, int] = {}
    wz_cache: dict[tuple[int, int], list[int]] = {}
    for (ew, ez, ex, ey), coeff in jac.terms.items():
        if (ew, ez) not in wz_cache:
            wz_cache[(ew, ez)] = list(binom_conv(ew, q - 1, ez))
        wz = wz_cache[(ew, ez)]
        xy = list(binom_conv(ex, q - 1, ey))
        for zdeg, cz in enumerate(wz):
            if not cz:
                continue
            part = coeff * cz
            for ydeg, cy in enumerate(xy):
                if cy:
                    key = (t - zdeg, zdeg, n - t - ydeg, ydeg)
                    acc[key] = acc.get(key, 0) + part * cy
    terms = {}
    for key, value in acc.items():
        quot, rem = divmod(value, code_size)
        if rem:
            raise ValueError(
                f"coefficient {value} at {key} is not divisible by |C| = {code_size}"
            )
        terms[key] = quot
    return JacobiPolynomial(t, n, terms)


# -- the triple difference ---------------------------------------------------


def difference_degrees(q: int, m: int) -> tuple[int, int]:
    """(a, b) = (q^(m-1) - 3, (q-1)q^(m-1) - 3): the x- and y-degrees of
    the cofactor of (wy - xz)^3 in the difference between the rank-2 and
    rank-1 triple classes' Jacobi polynomials.  Both classes, and so the
    difference, exist exactly when q >= 3 and m >= 2."""
    if q < 3 or m < 2:
        raise ValueError(
            f"the triple difference needs q >= 3 and m >= 2, got q={q}, m={m}"
        )
    return q ** (m - 1) - 3, middle_shell_weight(q, m) - 3


def _times_cubed_difference(n: int, scale: int, xy) -> JacobiPolynomial:
    """scale * P(x, y) * (wy - xz)^3 for |T| = 3 in length n, where P is
    the form of degree n - 6 whose y^j coefficient is xy[j]."""
    terms: dict[ExpKey, int] = {}
    for k in range(4):
        factor = scale * math.comb(3, k) * (-1) ** (3 - k)
        for j, cj in enumerate(xy):
            if cj:
                terms[(k, 3 - k, (3 - k) + (n - 6 - j), k + j)] = factor * cj
    return JacobiPolynomial(3, n, terms)


def rank_difference_identity(q: int, m: int) -> JacobiPolynomial:
    """The exact difference between the rank-2 and rank-1 triple-point
    Jacobi polynomials: -q^(m-2)(q-1) x^a y^b (wy - xz)^3, with (a, b)
    from difference_degrees."""
    _, b_deg = difference_degrees(q, m)
    return _times_cubed_difference(q**m, -(q ** (m - 2)) * (q - 1), [0] * b_deg + [1])


def dual_rank_difference_identity(q: int, m: int) -> JacobiPolynomial:
    """The same difference for the dual code, fully expanded:
    (q-1)(x + (q-1)y)^a (x - y)^b (wy - xz)^3."""
    a_deg, b_deg = difference_degrees(q, m)
    return _times_cubed_difference(q**m, q - 1, list(binom_conv(a_deg, q - 1, b_deg)))
