"""t-design verdicts for shells of RM_q(1, m).

Two independent routes produce the same report shape: the Jacobi route
reads the count of blocks through a t-subset off the closed-form
polynomial of the subset's class and takes the class sizes from the
closed-form census, so it enumerates nothing, while the brute-force route
classifies every t-subset and counts supports directly, in one
grm.subset_pass sweep over all C(n, t) of them with the shell's block
masks.  Blocks are counted with multiplicity (scalar multiples of a
codeword contribute separate blocks), so Jacobi coefficients equal block
counts exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .grm import (
    CLASSES,
    GrmCode,
    PointSet,
    TClass,
    class_witness,
    classes_of_size,
    closed_class_census,
    require_budget,
    subset_pass,
)
from .jacobi import (
    closed_form_a,
    closed_weight_distribution,
    jacobi_closed_form,
    middle_shell_weight,
)


class DesignReport(NamedTuple):
    q: int
    m: int
    ell: int
    t: int
    method: str
    lambda_by_class: dict[TClass, int]
    class_counts: dict[TClass, int]
    block_count: int
    is_t_design: bool
    trivial: bool

    def lambdas(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.lambda_by_class.values())))

    def to_json_dict(self) -> dict:
        classes = [cls for cls in CLASSES if cls in self.lambda_by_class]
        return {
            "q": self.q,
            "m": self.m,
            "l": self.ell,
            "t": self.t,
            "method": self.method,
            "classes": [
                {
                    "class": cls.label(),
                    "lambda": str(self.lambda_by_class[cls]),
                    "subsets": self.class_counts[cls],
                }
                for cls in classes
            ],
            "block_count": self.block_count,
            "is_t_design": self.is_t_design,
            "trivial": self.trivial,
        }


def route_disagreement(
    via_jacobi: DesignReport, via_blocks: DesignReport
) -> tuple[str, dict | None] | None:
    """The first thing on which the two routes' reports differ, in the
    order lambdas, class sizes, block count, verdict, as a detail and a
    payload holding both sides (none for the verdict); None when they
    agree."""
    for detail, value in (
        ("route disagreement", lambda r: {c.label(): v for c, v in r.lambda_by_class.items()}),
        ("census disagreement", lambda r: {c.label(): v for c, v in r.class_counts.items()}),
        ("block count disagreement", lambda r: r.block_count),
    ):
        if value(via_jacobi) != value(via_blocks):
            return detail, {"jacobi": value(via_jacobi), "blocks": value(via_blocks)}
    if via_jacobi.is_t_design != via_blocks.is_t_design:
        return "verdict disagreement", None
    return None


def _require_blocks(code: GrmCode, ell: int, count: int) -> int:
    if not count:
        raise ValueError(f"shell of weight {ell} is empty for {code!r}")
    return count


def design_check_jacobi(code: GrmCode, ell: int, t: int) -> DesignReport:
    """Design verdict from closed forms alone.

    The class sizes come from closed_class_census (counts of affine lines
    and planes); the number of weight-ell blocks through a subset is the
    coefficient of z^t x^(n-ell) y^(ell-t) in its class's polynomial (0
    below t, where that exponent is negative), and the block count is read
    off the closed-form weight distribution.
    """
    classes_of_size(t)
    code.require_weight(ell)
    block_count = _require_blocks(
        code, ell, closed_weight_distribution(code.q, code.m).get(ell, 0)
    )
    census = closed_class_census(code.q, code.m, t)
    lam = {
        cls: jacobi_closed_form(code, cls).coefficient(0, t, code.n - ell, ell - t)
        for cls in census
    }
    return _finish_report(code, ell, t, "jacobi", lam, census, block_count)


class CountNotDetermined(RuntimeError):
    """Two subsets of one class lie in different numbers of blocks, which
    falsifies the class-determines-count property the Jacobi route relies
    on."""

    def __init__(self, cls: TClass, counts: list[int], ell: int, t: int):
        super().__init__(
            f"class {cls.label()} shows several block counts {counts} "
            f"at l={ell}, t={t}: class does not determine the count"
        )
        self.cls = cls
        self.counts = counts


def design_check_bruteforce(
    code: GrmCode, ell: int, t: int, workers: int = 1
) -> DesignReport:
    """Design verdict by direct block counting over every t-subset.

    Refuses before the shell is enumerated when the work is beyond the
    budget (see block_masks).  The reported block count is that of the
    enumerated shell.  Raises CountNotDetermined if two subsets of the
    same class see different counts.
    """
    masks, block_count = block_masks(code, ell, t)
    profiles = subset_pass(code, t, math.comb(code.n, t), masks=masks, workers=workers)
    return blocks_report(code, ell, t, profiles, block_count)


def block_masks(code: GrmCode, ell: int, t: int) -> tuple[list[int], int]:
    """The blocks of the weight-ell shell as position masks, for counting
    the blocks through each t-subset: bit j of masks[i] is set when row j
    of weight ell in code.value_rows() (from 0) is nonzero at position i.
    Returned with the number of blocks.

    Refuses (rather than truncates) before the shell is enumerated when
    |t-subsets| x |blocks| exceeds the work budget, with |blocks| the
    closed-form shell size (at least 1, so an empty shell still reaches
    its own error).
    """
    classes_of_size(t)
    code.require_weight(ell)
    expected = closed_weight_distribution(code.q, code.m).get(ell, 0)
    require_budget(
        math.comb(code.n, t) * max(expected, 1),
        f"C({code.n}, {t}) subsets x {expected} blocks",
    )
    masks = [0] * code.n
    block_count = 0
    for _, row in code.value_rows():
        if code.n - row.count(0) == ell:
            bit = 1 << block_count
            for i, value in enumerate(row):
                if value:
                    masks[i] |= bit
            block_count += 1
    return masks, _require_blocks(code, ell, block_count)


def blocks_report(
    code: GrmCode, ell: int, t: int, profiles: dict, block_count: int
) -> DesignReport:
    """The brute-force report from a subset_pass with block masks over every
    t-subset; raises CountNotDetermined for the first class that showed
    several block counts."""
    counts: dict[TClass, set[int]] = {}
    census: dict[TClass, int] = {}
    for (cls, _, blocks), (_, size) in profiles.items():
        counts.setdefault(cls, set()).add(blocks)
        census[cls] = census.get(cls, 0) + size
    lam = {}
    for cls, seen in counts.items():
        if len(seen) > 1:
            raise CountNotDetermined(cls, sorted(seen), ell, t)
        (lam[cls],) = seen
    return _finish_report(code, ell, t, "bruteforce", lam, census, block_count)


def _finish_report(code, ell, t, method, lam, census, block_count) -> DesignReport:
    values = set(lam.values())
    return DesignReport(
        q=code.q,
        m=code.m,
        ell=ell,
        t=t,
        method=method,
        lambda_by_class=dict(lam),
        class_counts=dict(census),
        block_count=block_count,
        is_t_design=len(values) == 1,
        trivial=(ell == code.n),
    )


def count_blocks_containing(code: GrmCode, shell, points: PointSet) -> int:
    """Blocks (with multiplicity) whose support contains every given point;
    evaluation-based, so it works without materializing supports."""
    return sum(
        1 for c in shell if all(code.evaluate(c, pt) != 0 for pt in points)
    )


# -- generalized design parameters -------------------------------------------


class ClassParams(NamedTuple):
    tclass: TClass
    lam: int | None  # closed-form value; None when undefined at this (q, m)
    nonempty: bool  # witness-verified at this (q, m)


class GeneralizedDesignParams(NamedTuple):
    v: int
    k: int
    t: int
    classes: tuple[ClassParams, ...]

    def lambdas(self) -> tuple:
        return tuple(c.lam for c in self.classes)

    def applicable(self) -> bool:
        """True when every class occurs and every value is a valid count."""
        return all(c.nonempty and c.lam is not None and c.lam >= 0 for c in self.classes)

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "k": self.k,
            "t": self.t,
            "classes": [
                {
                    "class": c.tclass.label(),
                    "lambda": None if c.lam is None else str(c.lam),
                    "nonempty": c.nonempty,
                }
                for c in self.classes
            ],
            "applicable": self.applicable(),
        }


def generalized_design_params(code: GrmCode, ell: int, t: int) -> GeneralizedDesignParams:
    """Parameters (v, k, (lambda_1, ..., lambda_N)) of the middle shell as a
    generalized design, one lambda per T-class of size t, in CLASSES order.

    Class emptiness is decided by witness construction, never assumed from
    the formulas; a negative or undefined lambda is reported as-is so the
    caller can see exactly where the closed forms stop being counts.
    """
    if t not in (3, 4):
        raise ValueError(f"generalized parameters support t in {{3, 4}}, got {t}")
    expected = middle_shell_weight(code.q, code.m)
    if ell != expected:
        raise ValueError(
            f"generalized parameters apply to the middle shell l={expected}, got {ell}"
        )
    entries = []
    for cls in classes_of_size(t):
        try:
            lam = closed_form_a(cls, code.q, code.m)[t]
        except ValueError:
            lam = None
        witness = class_witness(code, cls)
        entries.append(ClassParams(cls, lam, witness is not None))
    return GeneralizedDesignParams(
        v=code.n, k=ell, t=t, classes=tuple(entries)
    )
