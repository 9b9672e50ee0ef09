"""Named cross-checks between enumeration and the closed forms.

Each check is a function of one code and the run's SubsetPasses that
returns only its verdict, `(status, detail[, counterexample])`: PASS, FAIL
(with a counterexample payload), or SKIP when its hypothesis does not apply
at that (q, m).  `run_checks` names each verdict by its `CHECKS` key and
turns a check that refuses work beyond the budget into a SKIP.  The CLI
`verify` command and the acceptance suite both run off this registry, so a
falsified closed form surfaces identically in both places.

The jacobi-, count-tables- and design- checks of one subset size t share
one pass over the t-subsets per code, grm.subset_pass, which returns
the distinct profiles (class, row sums, blocks) it met; each check
compares profiles, not subsets, and a correct program shows at most seven.
A jacobi- check compares the restricted-weight vector with its class's
closed form, which is the same as comparing the two Jacobi polynomials
(see jacobi_mismatch).
"""

from __future__ import annotations

import random
import sys
from itertools import combinations, permutations, product
from math import comb
from typing import NamedTuple

from .field import Field
from .grm import (
    BudgetExceeded,
    GrmCode,
    TClass,
    class_witness,
    classes_of_size,
    classify_T,
    closed_class_census,
    reachable_classes,
    require_budget,
    require_tally_budget,
    subset_pass,
    t_class_census,
    translate_T,
)
from .jacobi import (
    JacobiPolynomial,
    a_from_b,
    closed_form_a,
    closed_form_b,
    closed_weight_distribution,
    count_tables,
    dual_jacobi,
    dual_rank_difference_identity,
    jacobi_brute_force,
    jacobi_from_a,
    middle_shell_weight,
    rank_difference_identity,
)
from .conjecture import dual_diff_coefficient, dual_weight_enumerator
from .designs import (
    CountNotDetermined,
    block_masks,
    blocks_report,
    design_check_jacobi,
    route_disagreement,
)

SAMPLE_SEED = 7_2024_08
FULL_SWEEP_LIMIT = 10**6
SAMPLE_SIZE = 10_000

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


class CheckResult(NamedTuple):
    name: str
    q: int
    m: int
    status: str
    detail: str = ""
    counterexample: dict | None = None

    def to_json_dict(self) -> dict:
        rec = {
            "check": self.name,
            "q": self.q,
            "m": self.m,
            "status": self.status,
            "detail": self.detail,
        }
        if self.counterexample is not None:
            rec["counterexample"] = self.counterexample
        return rec


# -- subset helpers -----------------------------------------------------------


def sample_subsets(n: int, t: int, count: int, seed: int = SAMPLE_SEED) -> list[tuple[int, ...]]:
    """Deterministic uniform sample of distinct t-subsets of range(n)."""
    total = comb(n, t)
    if total <= count:
        return list(combinations(range(n), t))
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < count:
        seen.add(tuple(sorted(_draw(rng, n, t))))
    return sorted(seen)


def _draw(rng: random.Random, n: int, t: int):
    """t distinct draws from range(n); rng.sample beyond n = sys.maxsize,
    where range(n) has no length, one draw at a time."""
    if n <= sys.maxsize:
        return rng.sample(range(n), t)
    sub: set[int] = set()
    while len(sub) < t:
        sub.add(rng.randrange(n))
    return sub


def _sampled(code: GrmCode, rng: random.Random, count: int):
    """Yield (t, subset, points) for up to `count` sampled t-subsets of each
    size t = 2..4 that fits the code.  Each size's sample seed is drawn
    from rng when the sampler reaches that size, so draws a caller makes
    between subsets come in between, in the same order on every run."""
    for t in (2, 3, 4):
        if code.n < t:
            continue
        for sub in sample_subsets(code.n, t, count, seed=rng.randrange(2**30)):
            yield t, sub, tuple(map(code.point, sub))


# -- the subset passes ---------------------------------------------------------


def jacobi_mismatch(code: GrmCode, cls: TClass, b) -> dict | None:
    """A profile's restricted-weight vector, from the row sums b of its
    functional tally, vs the closed form of its class.  This compares
    their Jacobi polynomials: jacobi_from_a puts each a_i alone on the
    monomial w^(t-i) z^i x^(q^(m-1)-(t-i)) y^((q-1)q^(m-1)-i), which is
    neither constant word's, so the polynomials are equal exactly when the
    vectors are."""
    if a_from_b(b, cls.t, code.q) != closed_form_a(cls, code.q, code.m):
        return {}
    return None


def count_mismatch(code: GrmCode, cls: TClass, b) -> dict | None:
    """A profile's count tables, its row sums b and a = a_from_b(b), vs
    the closed-form a (and, for pairs and triples, b) vectors."""
    a = a_from_b(b, cls.t, code.q)
    expected_a = closed_form_a(cls, code.q, code.m)
    if a != expected_a:
        return {"kind": "a", "got": list(a), "expected": list(expected_a)}
    if cls.t in (2, 3):
        expected_b = closed_form_b(cls, code.q, code.m)
        if b != expected_b:
            return {"kind": "b", "got": list(b), "expected": list(expected_b)}
    return None


def first_mismatch(code: GrmCode, profiles: dict, compare) -> dict | None:
    """The mismatch record {"T": subset, "class": label, **extra} of the
    first profile, in order of first occurrence, that fails compare; that
    profile's first subset is the first failing subset of the pass."""
    for (cls, b, _), (first, _) in profiles.items():
        extra = compare(code, cls, b)
        if extra is not None:
            return {"T": list(first), "class": cls.label(), **extra}
    return None


# The checks that share the pass over the t-subsets are named
# "<kind>-<word>", the word of size t: jacobi-pairs, design-quads, ...
SIZE_WORDS = {2: "pairs", 3: "triples", 4: "quads"}
COMPARES = {"jacobi": jacobi_mismatch, "count-tables": count_mismatch}


class SubsetPasses:
    """The passes over t-subsets that one run_checks call makes for one code.

    The first jacobi-, count-tables- or design- check of size t to run
    makes the one pass over the t-subsets (all of them up to
    FULL_SWEEP_LIMIT, else a sample of SAMPLE_SIZE) that serves every
    requested check of that size; the others read its profiles.  Each
    check's budget is asked before the pass: a refused check is left out
    of it, and raises its BudgetExceeded when it asks for the pass.
    """

    def __init__(self, code: GrmCode, names, workers: int):
        self.code = code
        self.names = frozenset(names)
        self.workers = workers
        self._passes: dict[int, tuple] = {}

    def result(self, t: int, kind: str) -> tuple:
        """(mode, number of subsets, profiles, number of blocks) of the pass
        over the t-subsets, for the check `kind` of size t; the number of
        blocks is None unless a design check of size t is in the pass."""
        if t not in self._passes:
            self._passes[t] = self._run(t)
        refusals, found = self._passes[t]
        if kind in refusals:
            raise refusals[kind]
        return found

    def _run(self, t: int) -> tuple:
        code, word = self.code, SIZE_WORDS[t]
        refusals: dict[str, BudgetExceeded] = {}
        tallied = [kind for kind in COMPARES if f"{kind}-{word}" in self.names]
        tally = False
        if tallied:
            try:
                # the tally's budget, asked once before the pass
                require_tally_budget(code, t)
                tally = True
            except BudgetExceeded as refusal:
                refusals.update(dict.fromkeys(tallied, refusal))
        masks = blocks = None
        ell = middle_shell_weight(code.q, code.m)
        if f"design-{word}" in self.names and ell >= t:
            try:
                masks, blocks = block_masks(code, ell, t)
            except BudgetExceeded as refusal:
                refusals["design"] = refusal
        if not tally and masks is None:
            return refusals, (None, 0, {}, None)
        swept = comb(code.n, t)
        mode, subsets = "full", swept
        if swept > FULL_SWEEP_LIMIT:
            subsets = sample_subsets(code.n, t, SAMPLE_SIZE)
            mode, swept = "sampled", len(subsets)
        # A pass samples only beyond 10^6 subsets, and C(n, t) > 10^6 makes
        # C(n, t) times the q(n - 1) middle-shell blocks exceed the work
        # budget, so the design route only ever rides on a full sweep.
        assert masks is None or mode == "full", "design pass over a sample"
        profiles = subset_pass(code, t, subsets, tally, masks, self.workers)
        return refusals, (mode, swept, profiles, blocks)


# -- individual checks ----------------------------------------------------------


def check_weight_enumerator(code: GrmCode, passes: SubsetPasses) -> tuple:
    got = code.weight_distribution()
    expected = closed_weight_distribution(code.q, code.m)
    if got == expected:
        return PASS, f"{len(got)} shells"
    return FAIL, "", {"got": got, "expected": expected}


def check_support_scalars(code: GrmCode, passes: SubsetPasses) -> tuple:
    """Every scalar multiple alpha * (lam, b) has the support of (lam, b).
    The values lam(u) and (alpha lam)(u) are each evaluated once per
    functional, the latter directly rather than as alpha * lam(u), and the
    words are visited in (lam, b, alpha) order."""
    f = code.field
    require_budget(
        code.size * code.n * (code.q - 1),
        f"{code.size} codewords x {code.n} positions x {code.q - 1} scalars",
    )
    points = code.points()
    for lam in product(f.elements(), repeat=code.m):
        scaled = [
            (alpha, [f.dot(f.scale(alpha, lam), u) for u in points])
            for alpha in range(2, code.q)
        ]
        if not scaled:
            break  # over GF(2) the only nonzero scalar is 1
        values = [f.dot(lam, u) for u in points]
        for b in f.elements():
            support = _nonzero(f.outer_sum(values, (b,)))
            for alpha, row in scaled:
                if _nonzero(f.outer_sum(row, (f.mul(alpha, b),))) != support:
                    return FAIL, "", {"lam": list(lam), "b": b, "alpha": alpha}
    return PASS, f"{code.size} codewords"


def _nonzero(row) -> list[int]:
    return [i for i, v in enumerate(row) if v]


def _census_failure(code: GrmCode) -> tuple | None:
    """The enumerated size-4 class census must equal the closed-form one,
    class sizes included, and reach exactly the witness-backed classes; a
    census beyond 2 * 10^6 subsets is not run, and so proves nothing
    either way."""
    if comb(code.n, 4) > FULL_SWEEP_LIMIT * 2:
        return None
    census = t_class_census(code, 4)
    closed = closed_class_census(code.q, code.m, 4)
    if census != closed:
        return FAIL, "closed census mismatch", {
            "census": {c.label(): v for c, v in census.items()},
            "closed": {c.label(): v for c, v in closed.items()},
        }
    reached = set(census)
    expected = set(reachable_classes(code, 4))
    if reached == expected:
        return None
    return FAIL, "class census mismatch", {
        "census": sorted(c.label() for c in reached),
        "witnesses": sorted(c.label() for c in expected),
    }


def _sweep_check(t: int, kind: str, census: bool = False):
    def run(code: GrmCode, passes: SubsetPasses) -> tuple:
        if code.n < t:
            return SKIP, f"code length {code.n} < {t}"
        mode, swept, profiles, _ = passes.result(t, kind)
        if census and (failure := _census_failure(code)) is not None:
            return failure
        mismatch = first_mismatch(code, profiles, COMPARES[kind])
        if mismatch is not None:
            return FAIL, f"{mode} sweep", mismatch
        return PASS, f"{mode} sweep over {swept} subsets"

    return run


def check_count_route(code: GrmCode, passes: SubsetPasses) -> tuple:
    """The count route on T moved so that its V-least point is 0 (the
    paper's setting), count_tables -> a -> assembled polynomial, must equal
    brute force on T itself.  Both read the same functional tally, so this
    checks that the tally does not change under translation; the tally's
    oracles are the closed forms and the full scan."""
    f = code.field
    for t, sub, points in _sampled(code, random.Random(SAMPLE_SEED + 1), 40):
        at_zero = translate_T(f, points, tuple(f.neg(x) for x in min(points)))
        assembled = jacobi_from_a(count_tables(code, at_zero).a, code.q, code.m, t)
        if assembled != jacobi_brute_force(code, points):
            return FAIL, "", {"T": list(sub), "t": t}
    return PASS, "sampled subsets, sizes 2-4"


def check_translation_invariance(code: GrmCode, passes: SubsetPasses) -> tuple:
    rng = random.Random(SAMPLE_SEED + 2)
    for t, sub, points in _sampled(code, rng, 12):
        base = jacobi_brute_force(code, points)
        shifts = [code.point(i) for i in _draw(rng, code.n, min(4, code.n))]
        for v in shifts:
            shifted = translate_T(code.field, points, v)
            if len(set(shifted)) == t and jacobi_brute_force(code, shifted) != base:
                return FAIL, "", {"T": list(sub), "shift": list(v)}
    return PASS, "sampled subsets and shifts"


def check_classify_invariance(code: GrmCode, passes: SubsetPasses) -> tuple:
    rng = random.Random(SAMPLE_SEED + 3)
    f = code.field
    for _, sub, points in _sampled(code, rng, 10):
        expected = classify_T(code, points)
        for ordering in permutations(points):
            if classify_T(code, tuple(ordering)) != expected:
                return FAIL, "ordering", {"T": list(sub)}
        # the orderings start the elimination from every point; the -u
        # shifts move each u of T to zero in turn, random shifts on top
        shifts = [tuple(f.neg(x) for x in p) for p in points]
        shifts += [code.point(i) for i in _draw(rng, code.n, min(3, code.n))]
        for v in shifts:
            if classify_T(code, translate_T(f, points, v)) != expected:
                return FAIL, "translation", {"T": list(sub), "shift": list(v)}
    return PASS, "orderings and translations"


def _design_check(t: int):
    def run(code: GrmCode, passes: SubsetPasses) -> tuple:
        ell = middle_shell_weight(code.q, code.m)  # at most n
        if ell < t:
            return SKIP, "middle shell smaller than t"
        # brute force first: beyond the work budget it refuses, and the
        # check is skipped, before the Jacobi route runs
        _, _, profiles, block_count = passes.result(t, "design")
        try:
            via_blocks = blocks_report(code, ell, t, profiles, block_count)
        except CountNotDetermined as exc:
            return FAIL, "class does not determine the count", {
                "class": exc.cls.label(),
                "counts": exc.counts,
            }
        via_jacobi = design_check_jacobi(code, ell, t)
        disagreement = route_disagreement(via_jacobi, via_blocks)
        if disagreement is not None:
            return FAIL, *disagreement
        verdict = "is" if via_jacobi.is_t_design else "is not"
        return PASS, f"shell {ell} {verdict} a {t}-design; lambdas {via_jacobi.lambdas()}"

    return run


def _witness_triples(code: GrmCode) -> tuple[JacobiPolynomial, JacobiPolynomial]:
    """Brute-force polynomials of the rank-2 and the rank-1 triple witness,
    the two sides of the triple difference."""
    return tuple(
        jacobi_brute_force(code, class_witness(code, cls)) for cls in classes_of_size(3)
    )


def check_difference_identity(code: GrmCode, passes: SubsetPasses) -> tuple:
    q, m = code.q, code.m
    if q < 3 or m < 2:
        return SKIP, "needs q >= 3 and m >= 2"
    rank2, rank1 = _witness_triples(code)
    if rank2 - rank1 != rank_difference_identity(q, m):
        return FAIL, ""
    return PASS, "exact expansion matches"


def check_dual_transform(code: GrmCode, passes: SubsetPasses) -> tuple:
    q = code.q
    primal = jacobi_brute_force(code, (), full_scan=True)
    dual = dual_jacobi(primal, code.size, q)
    dual_size = q**code.n // code.size
    if dual.evaluate(1, 1, 1, 1) != dual_size:
        return FAIL, "dual size mismatch"
    if dual_jacobi(dual, dual_size, q) != primal:
        return FAIL, "double transform not identity"
    pair = class_witness(code, *classes_of_size(2))
    jac = jacobi_brute_force(code, pair)
    jac_dual = dual_jacobi(jac, code.size, q)
    if dual_jacobi(jac_dual, dual_size, q) != jac:
        return FAIL, "pair-set involution failed"
    return PASS, "involution and size checks"


def check_dual_enumerator(code: GrmCode, passes: SubsetPasses) -> tuple:
    q, m = code.q, code.m
    # the budgeted full scan and transform first: a code beyond the budget
    # is refused before the unbudgeted enumerator is built
    primal = jacobi_brute_force(code, (), full_scan=True)
    via_transform = dual_jacobi(primal, code.size, q)
    via_stream = dual_weight_enumerator(q, m)
    got = {ey: c for (_, _, _, ey), c in via_transform.terms.items()}
    if got != via_stream:
        return FAIL, "", {"stream": via_stream, "transform": got}
    return PASS, "streaming matches transform"


def check_dual_difference(code: GrmCode, passes: SubsetPasses) -> tuple:
    q, m = code.q, code.m
    if q < 3 or m < 2:
        return SKIP, "needs q >= 3 and m >= 2"
    if code.n > 64:
        return SKIP, "full expansion too large"
    rank2, rank1 = _witness_triples(code)
    lhs = dual_jacobi(rank2, code.size, q) - dual_jacobi(rank1, code.size, q)
    if lhs != dual_rank_difference_identity(q, m):
        return FAIL, "expansion mismatch"
    n = code.n
    for ell in range(3, n + 1):
        expected = lhs.coefficient(0, 3, n - ell, ell - 3)
        if dual_diff_coefficient(q, m, ell) != expected:
            return FAIL, "", {"l": ell, "expected": str(expected)}
    return PASS, "identity and per-weight coefficients"


CHECKS: dict[str, object] = {
    "weight-enumerator": check_weight_enumerator,
    "support-scalars": check_support_scalars,
    "jacobi-pairs": _sweep_check(2, "jacobi"),
    "jacobi-triples": _sweep_check(3, "jacobi"),
    "jacobi-quads": _sweep_check(4, "jacobi", census=True),
    "count-tables-pairs": _sweep_check(2, "count-tables"),
    "count-tables-triples": _sweep_check(3, "count-tables"),
    "count-tables-quads": _sweep_check(4, "count-tables"),
    "count-route": check_count_route,
    "translation-invariance": check_translation_invariance,
    "classify-invariance": check_classify_invariance,
    "design-pairs": _design_check(2),
    "design-triples": _design_check(3),
    "design-quads": _design_check(4),
    "difference-identity": check_difference_identity,
    "dual-transform": check_dual_transform,
    "dual-enumerator": check_dual_enumerator,
    "dual-difference": check_dual_difference,
}

DEFAULT_PAIRS: tuple[tuple[int, int, int], ...] = (
    (2, 1, 2),
    (2, 1, 3),
    (3, 1, 2),
    (3, 1, 3),
    (2, 2, 2),
    (5, 1, 2),
)


def run_checks(
    pairs=DEFAULT_PAIRS, only=None, workers: int = 1
) -> list[CheckResult]:
    """Run the selected checks over each (p, k, m); results come back in
    (pair, check) order, each named by its CHECKS key.  A check whose
    enumeration exceeds the work budget is reported as SKIP.  The checks
    of one code share one SubsetPasses, which lives only as long as that
    code's checks run."""
    names = list(CHECKS) if not only else list(only)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}; known: {', '.join(CHECKS)}")
    results = []
    for p, k, m in pairs:
        code = GrmCode(Field(p, k), m)
        passes = SubsetPasses(code, names, workers)
        for name in names:
            # looked up per call: a tracer may have replaced the entry
            try:
                verdict = CHECKS[name](code, passes)
            except BudgetExceeded:
                verdict = SKIP, "beyond brute-force budget"
            results.append(CheckResult(name, code.q, code.m, *verdict))
    return results
