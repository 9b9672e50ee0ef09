"""Exact arithmetic in the finite field GF(p^k).

Elements are plain integers in [0, q) with q = p^k.  The integer a encodes
the coefficient vector (c_0, ..., c_{k-1}) of a = sum c_i * alpha^i in base
p (c_0 is the least significant digit), where alpha is a root of the
modulus polynomial.  Index 0 is the additive identity and index 1 the
multiplicative identity; for prime fields the encoding is just the residue.

The modulus is chosen deterministically: among all monic irreducible
degree-k polynomials over GF(p), the one whose ascending coefficient tuple
(c_0, ..., c_{k-1}, 1) is lexicographically least.  This makes element
indices, and everything built on them, reproducible across runs.
"""

from __future__ import annotations

from itertools import product
from operator import mul

# Fields up to this order get full add/sub/mul lookup tables.
_TABLE_LIMIT = 256

# Largest search for a degree-k modulus over GF(p), in units of k^3 log2(p),
# the cost of Ben-Or's test: GF(2^128) comes to 2^22 and builds in about
# 0.3 s, GF(2^256) would take 20 s.
SEARCH_LIMIT = 2**22


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, or None when q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return (q, 1)
        if q % p == 0:
            k = 0
            rest = q
            while rest % p == 0:
                rest //= p
                k += 1
            return (p, k) if rest == 1 else None
    return None


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, ci in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * ci) % p
        _poly_trim(a)
    return a


def _poly_xgcd(a, b, p: int) -> tuple[list[int], list[int]]:
    """The monic gcd g of a and a nonzero b over GF(p), and an s with
    s * a = g (mod b): the extended Euclidean algorithm, cancelling one
    leading term per step.  Each row (r, s) keeps r = s * a (mod b)."""
    r0, s0 = _poly_trim(list(b)), []
    r1, s1 = _poly_trim(list(a)), [1]
    while len(r1) > 1:
        if len(r0) < len(r1):
            r0, s0, r1, s1 = r1, s1, r0, s0
            continue
        shift = len(r0) - len(r1)
        c = r0[-1] * pow(r1[-1], p - 2, p) % p
        r0 = _poly_sub_shifted(r0, c, r1, shift, p)
        s0 = _poly_sub_shifted(s0, c, s1, shift, p)
    # a row whose r is a nonzero constant makes the gcd 1
    r, s = (r1, s1) if r1 else (r0, s0)
    c = pow(r[-1], p - 2, p)
    return [x * c % p for x in r], [x * c % p for x in s]


def _poly_sub_shifted(u: list[int], c: int, v: list[int], shift: int, p: int) -> list[int]:
    """u - c * x^shift * v over GF(p)."""
    out = u + [0] * (len(v) + shift - len(u))
    for i, y in enumerate(v):
        out[i + shift] = (out[i + shift] - c * y) % p
    return _poly_trim(out)


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, a, p), mod, p)
        a = _poly_mod(_poly_mul(a, a, p), mod, p)
        e >>= 1
    return result


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Ben-Or's test: a monic poly of degree k is irreducible exactly when
    gcd(x^(p^i) - x mod poly, poly) = 1 for every i <= k/2."""
    h = [0, 1]
    for _ in range(1, (len(poly) - 1) // 2 + 1):
        h = _poly_powmod(h, p, poly, p)
        d = h + [0] * (2 - len(h))
        d[1] = (d[1] - 1) % p
        if len(_poly_xgcd(d, poly, p)[0]) > 1:
            return False
    return True


def least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over GF(p)."""
    if k == 1:
        return (0, 1)
    # x divides every candidate with c_0 = 0, so the search starts at c_0 = 1
    for tail in product(range(1, p), *[range(p)] * (k - 1)):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class Field:
    """The finite field GF(p^k) with a fixed, reproducible element order.

    Parameters
    ----------
    p : prime characteristic
    k : extension degree (>= 1)

    All operations take and return integer element indices.  The instance
    is immutable after construction and safe to share between workers.
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        if k**3 * p.bit_length() > SEARCH_LIMIT:
            raise ValueError(f"GF({p}^{k}) needs a modulus search beyond {SEARCH_LIMIT} steps")
        self.p = p
        self.k = k
        self.q = p**k
        # Monic linear placeholder for prime fields; never used there.
        self.modulus = (0, 1) if k == 1 else least_irreducible(p, k)
        self._add_table: list[int] | None = None
        self._sub_table: list[int] | None = None
        self._mul_table: list[int] | None = None
        self._neg_table: list[int] | None = None
        self._inv_table: list[int] | None = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- representation ------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p coefficient vector (c_0, ..., c_{k-1}) of element a."""
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def from_digits(self, digits) -> int:
        val = 0
        for c in reversed(list(digits)):
            val = val * self.p + c
        return val

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        return self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        if self._sub_table is not None:
            return self._sub_table[a * self.q + b]
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._neg_raw(a)

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        # a is prime to the irreducible modulus, so s * a = 1 (mod modulus)
        return self.from_digits(_poly_xgcd(self.digits(a), self.modulus, self.p)[1])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def dot(self, u, v) -> int:
        """Dot product of two element-index vectors."""
        if self.k == 1:
            return sum(map(mul, u, v)) % self.p
        acc = 0
        if self._add_table is not None:
            add, times, q = self._add_table, self._mul_table, self.q
            for a, b in zip(u, v):
                acc = add[acc * q + times[a * q + b]]
            return acc
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def scale(self, c: int, v) -> list[int]:
        """The vector c * v."""
        if self.k == 1:
            p = self.p
            return [c * x % p for x in v]
        if self._mul_table is not None:
            times, base = self._mul_table, c * self.q
            return [times[base + x] for x in v]
        return [self.mul(c, x) for x in v]

    def sub_scaled(self, u, c: int, v) -> list[int]:
        """The vector u - c * v, the row operation of Gaussian elimination."""
        if self.k == 1:
            p = self.p
            return [(a - c * b) % p for a, b in zip(u, v)]
        if self._sub_table is not None:
            sub, times, q = self._sub_table, self._mul_table, self.q
            base = c * q
            return [sub[a * q + times[base + b]] for a, b in zip(u, v)]
        return [self.sub(a, self.mul(c, b)) for a, b in zip(u, v)]

    def outer_sum(self, u, v) -> list[int]:
        """Every sum a + b for a in u and b in v, with b varying fastest."""
        if self.k == 1:
            p = self.p
            return [(a + b) % p for a in u for b in v]
        if self._add_table is not None:
            add, q = self._add_table, self.q
            return [add[a * q + b] for a in u for b in v]
        return [self.add(a, b) for a in u for b in v]

    def elements(self) -> range:
        """All q elements in index order; element 0 comes first."""
        return range(self.q)

    # -- internals -------------------------------------------------------

    def _add_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self.digits(a), self.digits(b)
        return self.from_digits((x + y) % self.p for x, y in zip(da, db))

    def _neg_raw(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.from_digits((-c) % self.p for c in self.digits(a))

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.digits(a), self.digits(b), self.p)
        return self.from_digits(_poly_mod(prod, self.modulus, self.p))

    def _build_tables(self) -> None:
        """Tables equal to the raw operations without a raw operation per
        entry: the addition table grows by one base-p digit at a time, and
        the products and inverses are read off the powers of the least
        primitive element g (no g^((q-1)/r) is 1 for a prime r | q-1)."""
        q, p = self.q, self.p
        rows, width = [[0]], 1
        for _ in range(self.k):
            rows = [
                [(high + db) % p * width + x for db in range(p) for x in row]
                for high in range(p)
                for row in rows
            ]
            width *= p
        self._add_table = add = [x for row in rows for x in row]
        self._neg_table = neg = [row.index(0) for row in rows]
        self._sub_table = [add[a * q + neg[b]] for a in range(q) for b in range(q)]
        primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
        g = next(g for g in range(1, q) if all(self.pow(g, (q - 1) // r) != 1 for r in primes))
        power = [1]  # power[i] = g^i
        for _ in range(q - 2):
            power.append(self._mul_raw(power[-1], g))
        log = [0] * q
        for i, x in enumerate(power):
            log[x] = i
        power += power  # so a sum of two logs needs no reduction mod q - 1
        nonzero_logs = log[1:]
        self._mul_table = [0] * q
        for la in nonzero_logs:
            self._mul_table += [0] + [power[la + lb] for lb in nonzero_logs]
        self._inv_table = [0] + [power[q - 1 - la] for la in nonzero_logs]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, k={self.k}, modulus={self.modulus})"
