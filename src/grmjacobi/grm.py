"""First-order generalized Reed-Muller codes over GF(q) and point-set classification.

The code of parameters (q, m) has length n = q^m.  Its coordinates are the
points of V = GF(q)^m in lexicographic order of their element-index tuples,
and its q^(m+1) codewords are the evaluation vectors of the affine maps
x -> lam(x) + b.  Codewords are kept as (lam, b) pairs and evaluated on
demand, so memory stays O(m) per word.

Every enumeration here and in the modules built on it first asks
require_budget whether its work fits WORK_BUDGET, and refuses with
BudgetExceeded before it starts rather than run for hours.

A position set T (a tuple of points) is classified by its affine rank: the
rank of the difference vectors d_i = u_i - u_0 taken from the first point
of T in V-order.  Four-point sets of rank 2 additionally split into two
sub-cases via the dependency c_1 d_1 + c_2 d_2 + c_3 d_3 = 0 that the same
elimination yields: "collinear-triple" when some c_i = 0 or
c_1 + c_2 + c_3 = 0 (three of the points lie on a line), "generic"
otherwise.

CLASSES is the one table of the paper's seven classes, which every other
module reads, and classes_of_size(t) the one check that t is 2, 3 or 4.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Optional

from .field import Field

COLLINEAR_TRIPLE = "collinear-triple"
GENERIC = "generic"

Point = tuple[int, ...]
PointSet = tuple[Point, ...]

# Largest enumeration any function runs: codewords x positions, points x
# functional values, subsets, or subsets x blocks.
WORK_BUDGET = 5 * 10**7

# Largest code length, in bits, that a GrmCode is built for: it computes q^m.
LENGTH_BITS = 2**20


class BudgetExceeded(ValueError):
    """An enumeration would do more work than WORK_BUDGET."""


def require_budget(work: int, what: str) -> None:
    """Refuse, before it starts, an enumeration of `work` steps described
    by `what` when that exceeds WORK_BUDGET."""
    if work > WORK_BUDGET:
        raise BudgetExceeded(f"{what} = {work} exceeds the work budget {WORK_BUDGET}")


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


# By size, then by falling rank, collinear-triple before generic.
CLASSES = (
    TClass(2, 1),
    TClass(3, 2), TClass(3, 1),
    TClass(4, 3), TClass(4, 2, COLLINEAR_TRIPLE), TClass(4, 2, GENERIC), TClass(4, 1),
)


def classes_of_size(t: int) -> tuple[TClass, ...]:
    """The classes of t-point sets, in CLASSES order; refuses a t outside
    the paper's sizes 2..4."""
    if not 2 <= t <= 4:
        raise ValueError(f"|T| must be in [2, 4], got {t}")
    return tuple(cls for cls in CLASSES if cls.t == t)


class GrmCode:
    """RM_q(1, m): length q^m, q^(m+1) codewords, all structure lazy.

    value_mask(u) is one bit per pair of a functional and a value, set
    where the functional takes that value at u; the functional tally of
    brute force, count tables and the subset pass adds the masks of the
    points of T.  Masks are memoized per point, so a sweep over many
    subsets builds each mask once.  The memo is emptied before it would
    hold more than WORK_BUDGET 64-bit words, and it is left out when the
    code is pickled.
    """

    def __init__(self, field: Field, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if m * field.q.bit_length() > LENGTH_BITS:
            raise ValueError(f"code length {field.q}^{m} has more than {LENGTH_BITS} bits")
        self.field = field
        self.m = m
        self.q = field.q
        self.n = field.q**m
        self.size = field.q ** (m + 1)
        self._points: list[Point] | None = None
        self._point_index: dict[Point, int] | None = None
        self.mask_words = -(-self.size // 64)  # 64-bit words of one value mask
        self._masks: dict[Point, int] = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_masks": {}}

    # -- coordinates ---------------------------------------------------

    def points(self) -> list[Point]:
        """The points of V in lexicographic index order; position i of
        every codeword refers to points()[i]."""
        if self._points is None:
            self._points = [p for p in product(range(self.q), repeat=self.m)]
        return self._points

    def point(self, i: int) -> Point:
        """points()[i] without building the list: the base-q digits of i,
        most significant first."""
        digits = []
        for _ in range(self.m):
            i, digit = divmod(i, self.q)
            digits.append(digit)
        return tuple(reversed(digits))

    def point_index(self, point: Point) -> int:
        if self._point_index is None:
            self._point_index = {p: i for i, p in enumerate(self.points())}
        return self._point_index[point]

    def require_points(self, points) -> None:
        """Refuse a position set T that repeats a point or holds one that
        does not lie in V: the check behind every public function taking
        a caller's T.  A T built from distinct indices into points() needs
        no check."""
        if len(set(points)) != len(points):
            raise ValueError("points of T must be distinct")
        for p in points:
            if not (len(p) == self.m and min(p) >= 0 and max(p) < self.q):
                raise ValueError(f"point {p} does not lie in V")

    # -- codewords -------------------------------------------------------

    def codewords(self) -> Iterator[Codeword]:
        """All (lam, b) pairs in lexicographic (lam, b) order."""
        for lam in product(range(self.q), repeat=self.m):
            for b in range(self.q):
                yield Codeword(lam, b)

    def value_mask(self, u: Point) -> int:
        """The int whose bit v*n + j is set when functional j (in
        codewords() order of lam) takes the value v at u: q*n = q^(m+1)
        bits, n of them set.  The int is shared with later calls."""
        mask = self._masks.get(u)
        if mask is None:
            mask = self._build_mask(u)
            if (len(self._masks) + 1) * self.mask_words > WORK_BUDGET:
                self._masks.clear()
            if self.mask_words <= WORK_BUDGET:
                self._masks[u] = mask
        return mask

    def _build_mask(self, u: Point) -> int:
        """value_mask(u), one coordinate of u at a time from the last.

        blocks[w] has bit j set when functional j on the coordinates taken
        so far, N of them, takes the value w there.  Taking the coordinate
        c before them, functional lam*N + j takes the value lam*c + w, so
        the new block of value v lays out blocks[v - lam*c] for lam = 0,
        1, ..., q - 1, N bits each.  The mask lays out the last blocks by
        value.  Each step is q*q block placements and a pass over bytes."""
        f, q = self.field, self.q
        elements = f.elements()
        blocks = [0] * q
        for lam in elements:
            blocks[f.mul(lam, u[-1])] |= 1 << lam
        width = q
        for c in reversed(u[:-1]):
            order = f.outer_sum(elements, f.scale(f.neg(c), elements))  # row v: v - lam*c
            blocks = _lay_out(blocks, [order[v * q : (v + 1) * q] for v in elements], width)
            width *= q
        return _lay_out(blocks, [elements], width)[0]

    def evaluate(self, c: Codeword, point: Point) -> int:
        f = self.field
        return f.add(f.dot(c.lam, point), c.b)

    def value_rows(self) -> Iterator[tuple[Codeword, list[int]]]:
        """(codeword, its values at all n positions) in codewords() order,
        after the budget of codewords x positions is asked.  Each
        functional's row is evaluated once, a Field.dot per point, and
        shifted by each b; value_mask is not read, so a scan stays an
        oracle for the functional tally.  Callers must not change a row."""
        require_budget(self.size * self.n, f"{self.size} codewords x {self.n} positions")
        f, points = self.field, self.points()

        def rows():
            for c in self.codewords():
                if not c.b:  # the first word of each functional
                    row = [f.dot(c.lam, u) for u in points]
                yield c, [f.add(v, c.b) for v in row]

        return rows()

    def weight_distribution(self) -> dict[int, int]:
        """Enumerated weight -> count map, by a scan of every codeword."""
        return dict(Counter(self.n - row.count(0) for _, row in self.value_rows()))

    def require_weight(self, ell: int) -> None:
        """Refuse a weight outside [0, n]."""
        if not 0 <= ell <= self.n:
            raise ValueError(f"weight {ell} out of range [0, {self.n}]")

    def shell(self, ell: int) -> list[Codeword]:
        """All codewords of weight exactly ell (possibly empty)."""
        self.require_weight(ell)
        return [c for c, row in self.value_rows() if self.n - row.count(0) == ell]

    def __repr__(self) -> str:
        return f"GrmCode(q={self.q}, m={self.m}, n={self.n})"


def _lay_out(blocks: list[int], rows, width: int) -> list[int]:
    """For each row of indices into blocks, the int that holds
    blocks[row[i]] at bits i*width up to (i + 1)*width, built through
    bytes in time linear in its length."""
    if width % 8 == 0:
        parts = [block.to_bytes(width // 8, "little") for block in blocks]
        return [int.from_bytes(b"".join([parts[w] for w in row]), "little") for row in rows]
    laid = []
    for row in rows:
        chunks = []
        for start in range(0, len(row), 8):  # eight blocks fill `width` whole bytes
            group = 0
            for w in reversed(row[start : start + 8]):
                group = group << width | blocks[w]
            chunks.append(group.to_bytes(width, "little"))
        laid.append(int.from_bytes(b"".join(chunks), "little"))
    return laid


# -- point-set utilities -----------------------------------------------


def translate_T(field: Field, points: PointSet, v: Point) -> PointSet:
    """Shift every point of T by v."""
    return tuple(tuple(field.add(a, b) for a, b in zip(p, v)) for p in points)


_UNIT_TAGS = ([1, 0, 0], [0, 1, 0], [0, 0, 1])


def classify_T(code: GrmCode, points: PointSet) -> TClass:
    """Classify a set of 2..4 distinct points by size, affine rank and,
    for four points of rank 2, the dependency sub-case, after checking T
    (see _classify)."""
    classes_of_size(len(points))
    code.require_points(points)
    return _classify(code, points)


def _classify(code: GrmCode, points: PointSet) -> TClass:
    """classify_T without its checks on T, for the enumerations, whose
    subsets are distinct indices into code.points().

    One Gaussian elimination runs on the differences d_i = u_i - u_0 from
    the first point u_0 of T in V-order, each row augmented with its unit
    tag e_i.  The rank is the number of pivots, and a row that eliminates
    to zero on V carries in its tag a dependency sum c_i d_i = 0.  A rank-2
    quad has exactly one such row: it is "collinear-triple" when some c_i
    is 0 (u_0, u_j, u_k on a line) or c_1 + c_2 + c_3 = 0 (u_1, u_2, u_3 on
    a line), and "generic" otherwise.  Invariance under base choice, point
    order and translation is a tested property, not an assumption.
    """
    t = len(points)
    f, m = code.field, code.m
    pts = sorted(points)
    base = pts[0]
    k = t - 1
    rows = [f.sub_scaled(p, 1, base) + tag[:k] for p, tag in zip(pts[1:], _UNIT_TAGS)]
    rank = 0
    for col in range(m):
        for pivot in range(rank, k):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = f.scale(f.inv(rows[rank][col]), rows[rank])
        for r in range(rank + 1, k):
            if rows[r][col]:
                rows[r] = f.sub_scaled(rows[r], rows[r][col], lead)
        rank += 1
        if rank == k:
            break
    subcase = None
    if t == 4 and rank == 2:
        c = rows[2][m:]
        collinear = 0 in c or f.add(f.add(c[0], c[1]), c[2]) == 0
        subcase = COLLINEAR_TRIPLE if collinear else GENERIC
    return TClass(t, rank, subcase)


def closed_class_census(q: int, m: int, t: int) -> dict[TClass, int]:
    """Class -> number of t-subsets of V = GF(q)^m in that class, counted
    from affine lines and planes with no enumeration; classes of size 0 are
    left out.  t_class_census is its enumerated oracle.

    V has L = q^(m-1)(q^m - 1)/(q - 1) lines of q points and, for m >= 2,
    P = q^(m-2) [m choose 2]_q planes of q^2 points.  A rank-1 subset is t
    points of one line.  A collinear-triple quad is three points of a line
    and one point off it; it has only one such triple, since two would
    share two points and so put all four on one line.  A rank-2 quad lies
    in exactly one plane and on none of its q(q+1) lines.  Every other
    subset has rank t - 1.
    """
    classes = classes_of_size(t)
    n = q**m
    lines = q ** (m - 1) * (n - 1) // (q - 1)
    rank1 = lines * comb(q, t)
    if t == 2:
        sizes = (rank1,)
    elif t == 3:
        sizes = (comb(n, 3) - rank1, rank1)
    else:
        planes = 0
        if m >= 2:
            planes = q ** (m - 2) * (n - 1) * (n // q - 1) // ((q * q - 1) * (q - 1))
        rank2 = planes * (comb(q * q, 4) - q * (q + 1) * comb(q, 4))
        collinear = lines * comb(q, 3) * (n - q)
        sizes = (comb(n, 4) - rank2 - rank1, collinear, rank2 - collinear, rank1)
    return {cls: size for cls, size in zip(classes, sizes) if size}


def t_class_census(code: GrmCode, t: int) -> dict[TClass, int]:
    """Class -> number of t-subsets of V in that class, by enumeration: the
    oracle for closed_class_census.

    Only the C(n-1, t-1) subsets through the zero point (position 0) are
    classified.  Translation keeps the class, and (S0, v) -> (S0 + v, v)
    maps {S0 through 0} x V one-to-one onto the pairs (S, u in S), so a
    class with N0 subsets through 0 has n * N0 / t subsets in all.
    """
    classes_of_size(t)
    n = code.n
    require_budget(comb(n - 1, t - 1), f"C({n - 1}, {t - 1}) subsets through zero")
    through_zero = ((0,) + rest for rest in combinations(range(1, n), t - 1))
    census = _census_chunk(code, through_zero)
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
        cls = _classify(code, tuple(points[i] for i in sub))
        census[cls] = census.get(cls, 0) + 1
    return census


# Candidate witnesses per class: each point's first three coordinates, as
# element indices (2 and 3 exist for q >= 3 and 4), the rest zero.
_WITNESSES = dict(zip(CLASSES, (
    ((0, 0, 0), (1, 0, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    ((0, 0, 0), (1, 0, 0), (2, 0, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0)),  # dependency (2, 0, -1) has a zero
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),  # dependency (1, 1, -1): no zero, sum 1
    ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)),
)))


def class_witness(code: GrmCode, tclass: TClass) -> PointSet | None:
    """A canonical point set of the requested class, or None when no such
    set exists for this (q, m): the class's candidate, when its indices
    are elements of GF(q) and it fits in m coordinates, verified by
    _classify before being returned."""
    q, m = code.q, code.m
    points = _WITNESSES.get(tclass, ())
    if not points or any(max(p) >= q or any(p[m:]) for p in points):
        return None
    candidate = tuple(p[:m] + (0,) * (m - 3) for p in points)
    return candidate if _classify(code, candidate) == tclass else None


def reachable_classes(code: GrmCode, t: int) -> list[TClass]:
    """The classes of size t that occur at this (q, m), that is, that have
    a verified witness, in CLASSES order."""
    return [cls for cls in classes_of_size(t) if class_witness(code, cls) is not None]
