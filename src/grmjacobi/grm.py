"""First-order generalized Reed-Muller codes over GF(q) and point-set classification.

The code of parameters (q, m) has length n = q^m.  Its coordinates are the
points of V = GF(q)^m in lexicographic order of their element-index tuples,
and its q^(m+1) codewords are the evaluation vectors of the affine maps
x -> lam(x) + b.  Codewords are kept as (lam, b) pairs and evaluated on
demand, so memory stays O(m) per word.

A position set T (a tuple of points) is classified by its affine rank: the
rank of the difference vectors u_i - u_0 taken from the first point of T in
V-order.  Four-point sets of rank 2 additionally split into two sub-cases
via the normalized dependency u_k = a*u_i + b*u_j between the differences:
"collinear-triple" when a + b = 1 or ab = 0, "generic" otherwise.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Optional

from ._parallel import run_chunks, split
from .field import Field

COLLINEAR_TRIPLE = "collinear-triple"
GENERIC = "generic"

Point = tuple[int, ...]
PointSet = tuple[Point, ...]


class Codeword(NamedTuple):
    lam: tuple[int, ...]  # functional, acting by dot product
    b: int  # constant shift


class TClass(NamedTuple):
    t: int
    rank: int
    subcase: Optional[str] = None

    def label(self) -> str:
        base = f"t{self.t}-rank{self.rank}"
        return base if self.subcase is None else f"{base}-{self.subcase}"


class GrmCode:
    """RM_q(1, m): length q^m, q^(m+1) codewords, all structure lazy."""

    def __init__(self, field: Field, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.field = field
        self.m = m
        self.q = field.q
        self.n = field.q**m
        self.size = field.q ** (m + 1)
        self._points: list[Point] | None = None
        self._point_index: dict[Point, int] | None = None

    # -- coordinates ---------------------------------------------------

    def points(self) -> list[Point]:
        """The points of V in lexicographic index order; position i of
        every codeword refers to points()[i]."""
        if self._points is None:
            self._points = [p for p in product(range(self.q), repeat=self.m)]
        return self._points

    def point_index(self, point: Point) -> int:
        if self._point_index is None:
            self._point_index = {p: i for i, p in enumerate(self.points())}
        return self._point_index[point]

    def contains_point(self, point) -> bool:
        return len(point) == self.m and all(0 <= c < self.q for c in point)

    # -- codewords -------------------------------------------------------

    def codewords(self) -> Iterator[Codeword]:
        """All (lam, b) pairs in lexicographic (lam, b) order."""
        for lam in product(range(self.q), repeat=self.m):
            for b in range(self.q):
                yield Codeword(lam, b)

    def evaluate(self, c: Codeword, point: Point) -> int:
        f = self.field
        return f.add(f.dot(c.lam, point), c.b)

    def value_row(self, c: Codeword) -> list[int]:
        return [self.evaluate(c, p) for p in self.points()]

    def weight(self, c: Codeword) -> int:
        return sum(1 for v in self.value_row(c) if v)

    def support(self, c: Codeword) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.value_row(c)) if v)

    def weight_distribution(self) -> dict[int, int]:
        """Enumerated weight -> count map (by full position scans)."""
        dist: dict[int, int] = {}
        for c in self.codewords():
            w = self.weight(c)
            dist[w] = dist.get(w, 0) + 1
        return dist

    def shell(self, ell: int) -> list[Codeword]:
        """All codewords of weight exactly ell (possibly empty)."""
        if not 0 <= ell <= self.n:
            raise ValueError(f"weight {ell} out of range [0, {self.n}]")
        return [c for c in self.codewords() if self.weight(c) == ell]

    def __repr__(self) -> str:
        return f"GrmCode(q={self.q}, m={self.m}, n={self.n})"


# -- point-set utilities -----------------------------------------------


def translate_T(field: Field, points: PointSet, v: Point) -> PointSet:
    """Shift every point of T by v."""
    return tuple(tuple(field.add(a, b) for a, b in zip(p, v)) for p in points)


def _neg_point(field: Field, p: Point) -> Point:
    return tuple(field.neg(a) for a in p)


def matrix_rank(field: Field, rows: list[list[int]]) -> int:
    """Rank over GF(q) by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(rows[r], rows[rank])
                ]
        rank += 1
        col += 1
    return rank


def _solve_pair(field: Field, di, dj, dk) -> tuple[int, int]:
    """Solve dk = a*di + b*dj for (a, b), given that {di, dj} is
    linearly independent and dk lies in its span."""
    rows = [[di[c], dj[c], dk[c]] for c in range(len(di))]
    # eliminate on the 2-column system
    pivots = []
    r = 0
    for col in range(2):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if pivots != [0, 1]:
        raise ValueError("difference pair is not linearly independent")
    return rows[0][2], rows[1][2]


def classify_T(code: GrmCode, points: PointSet) -> TClass:
    """Classify a set of 2..4 distinct points by size, affine rank and,
    for four points of rank 2, the dependency sub-case.

    The base point is the first point of T in V-order; invariance under
    base choice, point order, and translation is a tested property, not an
    assumption.
    """
    t = len(points)
    if not 2 <= t <= 4:
        raise ValueError(f"|T| must be in [2, 4], got {t}")
    if len(set(points)) != t:
        raise ValueError("points of T must be distinct")
    for p in points:
        if not code.contains_point(p):
            raise ValueError(f"point {p} does not lie in V")
    f = code.field
    pts = sorted(points)
    base = pts[0]
    neg_base = _neg_point(f, base)
    diffs = [
        [f.add(a, b) for a, b in zip(p, neg_base)] for p in pts[1:]
    ]
    rank = matrix_rank(f, diffs)
    subcase = None
    if t == 4 and rank == 2:
        subcase = _rank2_subcase(f, diffs)
    return TClass(t, rank, subcase)


def _rank2_subcase(field: Field, diffs) -> str:
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if matrix_rank(field, [diffs[i], diffs[j]]) == 2:
            k = 3 - i - j
            a, b = _solve_pair(field, diffs[i], diffs[j], diffs[k])
            if field.add(a, b) == 1 or field.mul(a, b) == 0:
                return COLLINEAR_TRIPLE
            return GENERIC
    raise ValueError("no independent pair among rank-2 differences")


def t_class_census(
    code: GrmCode, t: int, limit: int | None = None, workers: int = 1
) -> dict[TClass, int]:
    """Class -> number of t-subsets of V in that class.

    Only the C(n-1, t-1) subsets through the zero point (position 0) are
    classified.  Translation keeps the class, and (S0, v) -> (S0 + v, v)
    maps {S0 through 0} x V one-to-one onto the pairs (S, u in S), so a
    class with N0 subsets through 0 has n * N0 / t subsets in all.

    limit caps the number C(n, t) of subsets counted (error when exceeded)
    so callers cannot silently start an infeasible census.
    """
    if not 2 <= t <= 4:
        raise ValueError(f"|T| must be in [2, 4], got {t}")
    n = code.n
    total = comb(n, t)
    if limit is not None and total > limit:
        raise ValueError(f"census of {total} subsets exceeds limit {limit}")
    through_zero = ((0,) + rest for rest in combinations(range(1, n), t - 1))
    if workers <= 1:
        parts = [_census_chunk(code, through_zero)]
    else:
        parts = run_chunks(partial(_census_chunk, code), split(list(through_zero), workers), workers)
    census: dict[TClass, int] = {}
    for part in parts:
        for cls, cnt in part.items():
            census[cls] = census.get(cls, 0) + cnt
    for cls, cnt in census.items():
        census[cls], rest = divmod(n * cnt, t)
        if rest:
            raise RuntimeError(
                f"{cnt} {cls.label()} subsets through 0 times n = {n} "
                f"is not a multiple of t = {t}"
            )
    return census


def _census_chunk(code: GrmCode, subsets) -> dict[TClass, int]:
    """Class -> count over subsets given as tuples of position indices."""
    points = code.points()
    census: dict[TClass, int] = {}
    for sub in subsets:
        cls = classify_T(code, tuple(points[i] for i in sub))
        census[cls] = census.get(cls, 0) + 1
    return census


def class_witness(code: GrmCode, tclass: TClass) -> PointSet | None:
    """A canonical point set of the requested class, or None when no such
    set exists for this (q, m).  The construction is verified by
    classify_T before being returned."""
    q, m = code.q, code.m
    t, rank, sub = tclass.t, tclass.rank, tclass.subcase

    def e(i: int) -> Point:
        return tuple(1 if j == i else 0 for j in range(m))

    def scale(c: int, p: Point) -> Point:
        return tuple(code.field.mul(c, x) for x in p)

    zero = tuple(0 for _ in range(m))
    candidate: PointSet | None = None
    if rank > min(t - 1, m):
        return None
    if t == 2 and rank == 1:
        candidate = (zero, e(0))
    elif t == 3 and rank == 2:
        candidate = (zero, e(0), e(1))
    elif t == 3 and rank == 1 and q >= 3:
        candidate = (zero, e(0), scale(2, e(0)))
    elif t == 4 and rank == 3 and m >= 3:
        candidate = (zero, e(0), e(1), e(2))
    elif t == 4 and rank == 2 and sub == COLLINEAR_TRIPLE and q >= 3:
        # third difference = 2 * first: ab = 0 dependency
        candidate = (zero, e(0), e(1), scale(2, e(0)))
    elif t == 4 and rank == 2 and sub == GENERIC:
        # dependency coefficients (1, 1): 1+1 != 1 and 1*1 != 0 in any field
        candidate = (zero, e(0), e(1), tuple(code.field.add(a, b) for a, b in zip(e(0), e(1))))
    elif t == 4 and rank == 1 and q >= 4:
        candidate = (zero, e(0), scale(2, e(0)), scale(3, e(0)))
    if candidate is None:
        return None
    if len(set(candidate)) != t or classify_T(code, candidate) != tclass:
        return None
    return candidate


def reachable_classes(code: GrmCode, t: int) -> list[TClass]:
    """Classes with a verified witness at this (q, m), in a fixed order."""
    if t == 2:
        shapes = [TClass(2, 1)]
    elif t == 3:
        shapes = [TClass(3, 2), TClass(3, 1)]
    elif t == 4:
        shapes = [
            TClass(4, 3),
            TClass(4, 2, COLLINEAR_TRIPLE),
            TClass(4, 2, GENERIC),
            TClass(4, 1),
        ]
    else:
        raise ValueError(f"|T| must be in [2, 4], got {t}")
    return [cls for cls in shapes if class_witness(code, cls) is not None]
