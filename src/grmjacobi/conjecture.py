"""Dual-shell scan: exact coefficient analysis of the dual difference
polynomial over all prime powers q >= 3 with q^(2m) below a bound.

For a pair (q, m) with m >= 2, the difference between the dual Jacobi
polynomials of the two triple-point classes factors as

    (q-1) * (x + (q-1)y)^(q^(m-1)-3) * (x - y)^((q-1)q^(m-1)-3) * (wy - xz)^3.

Its z^3-stratum carries x-exponent at least 3, so the identity speaks
about shell weights 3 <= l <= q^m - 3 only.  Within that range, a nonzero
coefficient at a nonempty dual shell proves the shell is not a 3-design;
the scan verdict quantifies over exactly that range.  The three top
weights are still reported, flagged as out of range: weight q^m is the
excluded trivial design, and the desk-scale test suite shows the two
below it can genuinely be 3-designs.

Everything is exact big-integer arithmetic.  Every convolution is
jacobi.binom_conv, which advances its binomials by exact multiply/divide
and keeps a window of O(q^(m-1)) values; the dual weight enumerator still
holds up to q^m + 1 of a pair's counts, so memory per pair is O(q^m).
conjecture_scan hands out its results lazily, in (q, m) order, so a
caller can write each pair's record as it finishes and, at one worker,
hold one pair's results at a time.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .field import SMALL_PRIMES, prime_power
from .grm import require_budget
from .jacobi import binom_conv, difference_degrees, middle_shell_weight
from ._parallel import run_chunks

CONFIRMED = "CONFIRMED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
SKIPPED = "SKIPPED"

MIN_BOUND = 81
DEFAULT_BOUND = 10**7


class ShellCheck(NamedTuple):
    ell: int
    nonempty: bool
    diff_coeff: int
    in_range: bool  # within the identity's monomial support [3, q^m - 3]


class ScanResult(NamedTuple):
    q: int
    m: int
    verdict: str
    checked_shells: tuple[ShellCheck, ...] = ()
    reason: str | None = None
    counterexample: tuple[int, int] | None = None  # (ell, coefficient)

    def to_json_dict(self) -> dict:
        rec = {
            "q": self.q,
            "m": self.m,
            "verdict": self.verdict,
            "shells_checked": sum(1 for s in self.checked_shells if s.in_range),
            "shells_nonempty": sum(
                1 for s in self.checked_shells if s.in_range and s.nonempty
            ),
            "shells_out_of_range_nonempty": sum(
                1 for s in self.checked_shells if not s.in_range and s.nonempty
            ),
        }
        if self.reason is not None:
            rec["reason"] = self.reason
        if self.counterexample is not None:
            rec["counterexample"] = {
                "l": self.counterexample[0],
                "coeff": str(self.counterexample[1]),
            }
        return rec


def dual_weight_enumerator(q: int, m: int) -> dict[int, int]:
    """Exact weight distribution of the dual code, weight -> count with
    the zero counts left out, by transforming the three-shell primal
    enumerator and dividing by the code size.

    Every coefficient must come out a nonnegative integer and the total
    must equal the dual code size; both are checked.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = q**m
    size = q ** (m + 1)
    mid = size - q
    # The zero word, the size - q words of weight (q-1)q^(m-1) and the
    # q - 1 words of weight n transform to these three products.
    streams = zip(
        binom_conv(n, q - 1, 0),
        binom_conv(q ** (m - 1), q - 1, middle_shell_weight(q, m)),
        binom_conv(0, q - 1, n),
    )
    counts: dict[int, int] = {}
    total = 0
    for ell, (zero, middle, const) in enumerate(streams):
        numerator = zero + mid * middle + (q - 1) * const
        quotient, remainder = divmod(numerator, size)
        if remainder:
            raise RuntimeError(
                f"dual enumerator coefficient at weight {ell} not divisible "
                f"by |C| = {size}"
            )
        if quotient < 0:
            raise RuntimeError(
                f"negative dual enumerator coefficient at weight {ell}"
            )
        if quotient:
            counts[ell] = quotient
        total += quotient
    if total != q ** (n - m - 1):
        raise RuntimeError("dual enumerator total differs from dual code size")
    return counts


def dual_diff_coefficient(q: int, m: int, ell: int) -> int:
    """Coefficient of z^3 x^(q^m - l) y^(l - 3) in the dual difference
    polynomial; only the (-xz)^3 stratum of (wy - xz)^3 contributes, so it
    is a single signed binomial convolution."""
    a_deg, b_deg = difference_degrees(q, m)
    n = q**m
    if not 3 <= ell <= n:
        raise ValueError(f"l must be in [3, {n}], got {ell}")
    j = ell - 3
    if j > a_deg + b_deg:
        return 0  # above the stratum's top y-degree
    total = 0
    for i in range(max(0, j - b_deg), min(a_deg, j) + 1):
        total += (
            math.comb(a_deg, i)
            * (q - 1) ** i
            * math.comb(b_deg, j - i)
            * (-1) ** (j - i)
        )
    return -(q - 1) * total


# -- pair enumeration ----------------------------------------------------------


def scan_pairs(bound: int) -> list[tuple[int, int]]:
    """All (q, m) with q >= 3 a prime power, m >= 1, q^(2m) < bound.  Each
    candidate q <= isqrt(bound) costs prime_power at most two passes of
    trial division by SMALL_PRIMES (its own, then is_prime's) and one
    Miller-Rabin round per small prime; the candidates times those steps
    must fit the work budget: bounds below 1282052^2, about 1.6e12, do."""
    root = math.isqrt(bound)
    steps = 3 * len(SMALL_PRIMES)
    require_budget(
        root * steps, f"{root} candidates q x {steps} trial divisors and Miller-Rabin rounds"
    )
    pairs = []
    q = 3
    while q * q < bound:
        if prime_power(q) is not None:
            m = 1
            while q ** (2 * m) < bound:
                pairs.append((q, m))
                m += 1
        q += 1
    return pairs


# -- the scan --------------------------------------------------------------------


def scan_pair(q: int, m: int) -> ScanResult:
    """Check one (q, m): test every nonempty dual shell inside the
    identity's range for a nonzero difference coefficient."""
    if prime_power(q) is None or q < 3:
        return ScanResult(q, m, SKIPPED, reason="q is not a prime power >= 3")
    if m == 1:
        return ScanResult(
            q,
            m,
            SKIPPED,
            reason=(
                "triple-point sets in a 1-dimensional point space never reach "
                "affine rank 2, so the difference polynomial does not exist"
            ),
        )
    # q >= 3 and m >= 2: both triple classes occur (see difference_degrees)
    n = q**m
    enumerator = dual_weight_enumerator(q, m)
    a_deg, b_deg = difference_degrees(q, m)
    conv = binom_conv(a_deg, q - 1, b_deg)
    shells = []
    counterexample = None
    for ell in range(3, n + 1):
        in_range = ell <= n - 3
        coeff = -(q - 1) * next(conv) if in_range else 0
        nonempty = ell in enumerator
        shells.append(ShellCheck(ell, nonempty, coeff, in_range))
        if in_range and nonempty and coeff == 0 and counterexample is None:
            counterexample = (ell, coeff)
    if counterexample is not None:
        return ScanResult(
            q,
            m,
            COUNTEREXAMPLE,
            checked_shells=tuple(shells),
            counterexample=counterexample,
        )
    return ScanResult(q, m, CONFIRMED, checked_shells=tuple(shells))


def _scan_chunk(pair) -> ScanResult:
    return scan_pair(*pair)


def conjecture_scan(bound: int = DEFAULT_BOUND, workers: int = 1) -> Iterator[ScanResult]:
    """Scan every (q, m) pair under the bound.  The bound is checked at
    the call; the results then come one pair at a time, in (q, m) order
    regardless of the worker count."""
    if bound < MIN_BOUND:
        raise ValueError(f"bound must be >= {MIN_BOUND}, got {bound}")
    # One task per pair, not contiguous chunks: the small-q pairs at the
    # head of the list carry most of the work.
    return run_chunks(_scan_chunk, scan_pairs(bound), workers)
