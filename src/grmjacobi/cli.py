"""Command-line surface: construction, Jacobi computation, design checks,
closed-form verification, and the dual-shell scan.

Exit codes: 0 success, 1 usage or input error, 2 mathematical mismatch
(a brute-force/closed-form disagreement or a scan counterexample).
All JSON output is deterministic: fixed key order, sorted terms, and big
integers rendered as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
from contextlib import closing

# Only the standard library here: each command imports the library code it
# runs, so parsing the arguments, --help and a usage error load no other
# module of the package.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

# CPython's default limit on int <-> decimal string conversion
MAX_BOUND_DIGITS = 4300


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    def __init__(self, message):
        self.message = message


def parse_points(text: str, m: int) -> tuple[tuple[int, ...], ...]:
    """Parse "(0,0);(1,2)" into point tuples of element indices."""
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"point {chunk!r} is not a parenthesized tuple")
        coords = [c.strip() for c in chunk[1:-1].split(",") if c.strip()]
        if len(coords) != m:
            raise ValueError(f"point {chunk!r} needs {m} coordinates")
        points.append(tuple(int(c) for c in coords))
    if not points:
        raise ValueError("empty point list")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    return tuple(points)


def parse_bound(text: str) -> int:
    """Parse a positive integer bound such as 10000, 1e7 or 2.5e6 exactly,
    in integer arithmetic only.  The digit count is checked before any
    power of ten is formed, so a huge exponent fails at once."""
    match = re.fullmatch(r"(\d+)(?:\.(\d*))?(?:[eE]([+-]?)(\d+))?", text.strip())
    if match is None:
        raise ValueError(f"bound must be a positive integer such as 1e7, got {text!r}")
    whole, frac, sign, exp = match.groups(default="")
    digits = (whole + frac).lstrip("0")
    if not digits:
        raise ValueError(f"bound must be positive, got {text!r}")
    too_long = f"bound must have at most {MAX_BOUND_DIGITS} digits, got {text!r}"
    not_integer = f"bound must be an integer, got {text!r}"
    exp = exp.lstrip("0")
    if len(exp) > MAX_BOUND_DIGITS:
        # |exponent| >= 10^4300: no mantissa has that many trailing zeros
        raise ValueError(not_integer if sign == "-" else too_long)
    # value = int(significant) * 10**shift, with significant ending in 1-9
    significant = digits.rstrip("0")
    shift = int(sign + (exp or "0")) - len(frac) + len(digits) - len(significant)
    if shift < 0:
        raise ValueError(not_integer)
    if len(significant) + shift > MAX_BOUND_DIGITS:
        raise ValueError(too_long)
    return int(significant) * 10**shift


def _poly_json(poly: JacobiPolynomial) -> dict:
    return {"t": poly.t, "n": poly.n, "terms": poly.to_records()}


def _emit(obj, pretty_lines, output):
    if output == "pretty":
        for line in pretty_lines:
            print(line)
    else:
        print(json.dumps(obj, sort_keys=False))


def _make_code(args) -> GrmCode:
    from .field import Field
    from .grm import GrmCode

    return GrmCode(Field(args.p, args.k), args.m)


# -- jacobi ---------------------------------------------------------------


def _jacobi_targets(code: GrmCode, args):
    """Resolve --points, or the reachable classes of --t-size that have the
    --rank and --subcase given, into a list of (points, tclass) items."""
    from .grm import CLASSES, class_witness, classify_T, reachable_classes

    if args.points:
        points = parse_points(args.points, code.m)
        cls = classify_T(code, points) if len(points) in {c.t for c in CLASSES} else None
        return [(points, cls)]
    if args.t_size is None:
        raise ValueError("give either --points or --t-size")
    t, rank, sub = args.t_size, args.rank, args.subcase
    items = [
        (class_witness(code, cls), cls)
        for cls in reachable_classes(code, t)
        if rank in (None, cls.rank) and sub in (None, cls.subcase)
    ]
    if items:
        return items
    if rank is None and sub is None:
        raise ValueError(f"no size-{t} classes exist at q={code.q}, m={code.m}")
    wanted = f"t{t}" + (f"-rank{rank}" if rank is not None else "") + (f"-{sub}" if sub else "")
    raise ValueError(f"class {wanted} has no witness at q={code.q}, m={code.m}")


def cmd_jacobi(args) -> int:
    from .grm import COLLINEAR_TRIPLE, GENERIC
    from .jacobi import jacobi_brute_force, jacobi_closed_form

    if args.subcase not in (None, COLLINEAR_TRIPLE, GENERIC):
        raise ValueError(
            f"argument --subcase: invalid choice: {args.subcase!r} "
            f"(choose from {COLLINEAR_TRIPLE!r}, {GENERIC!r})"
        )
    code = _make_code(args)
    items = _jacobi_targets(code, args)
    results = []
    pretty = []
    mismatch = False
    for points, cls in items:
        entry: dict = {
            "class": cls.label() if cls else None,
            "points": [list(p) for p in points],
        }
        pretty.append(f"T = {entry['points']}  class = {entry['class']}")
        brute = closed = None
        if args.method in ("brute", "both"):
            brute = jacobi_brute_force(code, points)
            entry["brute"] = _poly_json(brute)
            pretty.append(f"  brute: {brute.pretty()}")
        if args.method in ("closed", "both"):
            if cls is None:
                raise ValueError(
                    "closed form needs |T| in [2, 4]; use --method brute for other sizes"
                )
            closed = jacobi_closed_form(code, cls)
            entry["closed"] = _poly_json(closed)
            pretty.append(f"  closed: {closed.pretty()}")
        if args.method == "both":
            diff = [
                {
                    "e_w": key[0], "e_z": key[1], "e_x": key[2], "e_y": key[3],
                    "brute": str(brute.coefficient(*key)),
                    "closed": str(closed.coefficient(*key)),
                }
                for key in sorted((brute - closed).terms)
            ]
            entry["diff"] = diff
            pretty.append(f"  diff: {'EMPTY' if not diff else diff}")
            mismatch = mismatch or bool(diff)
        results.append(entry)
    out = {"q": code.q, "m": code.m, "n": code.n, "method": args.method, "results": results}
    _emit(out, pretty, args.output)
    return EXIT_MISMATCH if mismatch else EXIT_OK


# -- design ----------------------------------------------------------------


def cmd_design(args) -> int:
    from .designs import (
        design_check_bruteforce,
        design_check_jacobi,
        generalized_design_params,
        route_disagreement,
    )
    from .jacobi import middle_shell_weight

    code = _make_code(args)
    # brute force first, so that beyond the work budget its refusal is the
    # error reported; the report keeps jacobi first
    reports = {}
    if args.method in ("brute", "both"):
        reports["bruteforce"] = design_check_bruteforce(
            code, args.l, args.t, workers=args.workers
        )
    if args.method in ("jacobi", "both"):
        reports = {"jacobi": design_check_jacobi(code, args.l, args.t), **reports}
    agree = None
    if len(reports) == 2:
        agree = route_disagreement(reports["jacobi"], reports["bruteforce"]) is None
    generalized = None
    if args.t in (3, 4) and args.l == middle_shell_weight(code.q, code.m):
        generalized = generalized_design_params(code, args.l, args.t).to_json_dict()
    out = {
        "q": code.q,
        "m": code.m,
        "l": args.l,
        "t": args.t,
        "method": args.method,
        "reports": {k: r.to_json_dict() for k, r in reports.items()},
        "agree": agree,
        "generalized_params": generalized,
    }
    primary = reports.get("jacobi") or reports.get("bruteforce")
    verdict = (
        "trivial"
        if primary.trivial
        else (f"{args.t}-design" if primary.is_t_design else f"not-{args.t}-design")
    )
    if args.output == "csv":
        print("q,m,l,t,class,lambda,verdict")
        rep = primary.to_json_dict()
        for cls in rep["classes"]:
            print(
                f"{code.q},{code.m},{args.l},{args.t},"
                f"{cls['class']},{cls['lambda']},{verdict}"
            )
    else:
        pretty = [
            f"shell l={args.l}, t={args.t}: {verdict}"
            + (" [trivial design excluded]" if primary.trivial else ""),
        ]
        for cls in primary.to_json_dict()["classes"]:
            pretty.append(f"  {cls['class']}: lambda = {cls['lambda']} ({cls['subsets']} subsets)")
        if agree is not None:
            pretty.append(f"  routes agree: {agree}")
        _emit(out, pretty, args.output)
    return EXIT_MISMATCH if agree is False else EXIT_OK


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    from .checks import DEFAULT_PAIRS, run_checks

    if (args.p is None) != (args.m is None):
        raise ValueError("--p and --m must be given together")
    if args.p is None and args.k is not None:
        raise ValueError("--k needs --p and --m")
    k = 1 if args.k is None else args.k
    pairs = DEFAULT_PAIRS if args.p is None else ((args.p, k, args.m),)
    results = run_checks(pairs, only=args.only or None, workers=args.workers)
    failures = sum(1 for r in results if r.status == "FAIL")
    out = {"results": [r.to_json_dict() for r in results], "failures": failures}
    pretty = [
        f"{r.status:4s} {r.name} q={r.q} m={r.m}  {r.detail}" for r in results
    ] + [f"{failures} failure(s)"]
    _emit(out, pretty, args.output)
    return EXIT_MISMATCH if failures else EXIT_OK


# -- scan ---------------------------------------------------------------------


def cmd_scan(args) -> int:
    """Write each pair's record, and flush it, as soon as the pair is
    checked; the exit code is known only after the last one."""
    from .conjecture import COUNTEREXAMPLE, DEFAULT_BOUND, conjecture_scan

    bound = DEFAULT_BOUND if args.bound is None else parse_bound(args.bound)
    bad = False
    # closing: an early stop (a closed pipe, an interrupt) ends the pairs
    # not yet written, running ones too; each result is dropped once its
    # record is out
    with closing(conjecture_scan(bound, workers=args.workers)) as results:
        for record in (res.to_json_dict() for res in results):
            print(json.dumps(record, sort_keys=False), flush=True)
            bad = bad or record["verdict"] == COUNTEREXAMPLE
    return EXIT_MISMATCH if bad else EXIT_OK


# -- enum ----------------------------------------------------------------------


def cmd_enum(args) -> int:
    code = _make_code(args)
    if args.l is not None:
        code.require_weight(args.l)
    dist: dict[int, int] = {}
    shell = []  # the words of weight --l, from the same scan
    for c, row in code.value_rows():
        weight = code.n - row.count(0)
        dist[weight] = dist.get(weight, 0) + 1
        if weight == args.l:
            shell.append(c)
    out = {
        "q": code.q,
        "m": code.m,
        "n": code.n,
        "code_size": str(code.size),
        "weights": [
            {"weight": w, "count": str(dist[w])} for w in sorted(dist)
        ],
    }
    pretty = [f"RM_{code.q}(1, {code.m}): length {code.n}, {code.size} codewords"]
    pretty += [f"  weight {w}: {dist[w]} codewords" for w in sorted(dist)]
    if args.l is not None:
        out["shell"] = {
            "l": args.l,
            "codewords": [{"lam": list(c.lam), "b": c.b} for c in shell],
        }
        pretty.append(f"shell l={args.l}: {len(shell)} codewords")
    _emit(out, pretty, args.output)
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grmjacobi",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_args(p):
        p.add_argument("--p", type=int, required=True, help="prime characteristic")
        p.add_argument("--k", type=int, default=1, help="extension degree (q = p^k)")
        p.add_argument("--m", type=int, required=True, help="dimension of the point space")

    def add_output(p, outputs=("json", "pretty")):
        p.add_argument("--output", choices=outputs, default="json")

    def add_workers(p):
        p.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")

    pj = sub.add_parser("jacobi", help="Jacobi polynomial for a position set or class")
    add_code_args(pj)
    pj.add_argument("--points", help='explicit T, e.g. "(0,0);(0,1)"')
    pj.add_argument("--t-size", type=int, dest="t_size", help="|T| for a class selector")
    pj.add_argument("--rank", type=int, help="affine rank of the class")
    pj.add_argument("--subcase", help="sub-case for |T|=4 rank-2 classes")
    pj.add_argument("--method", choices=("brute", "closed", "both"), default="both")
    add_output(pj)
    pj.set_defaults(fn=cmd_jacobi)

    pd = sub.add_parser("design", help="t-design verdict of a shell")
    add_code_args(pd)
    pd.add_argument("--l", type=int, required=True, help="shell weight")
    pd.add_argument("--t", type=int, required=True, help="design strength")
    pd.add_argument("--method", choices=("jacobi", "brute", "both"), default="both")
    add_output(pd, outputs=("json", "pretty", "csv"))
    add_workers(pd)
    pd.set_defaults(fn=cmd_design)

    pv = sub.add_parser("verify", help="run the closed-form cross-checks")
    pv.add_argument("--p", type=int, help="prime characteristic (default: built-in set)")
    pv.add_argument("--k", type=int, help="extension degree (default: 1 with --p)")
    pv.add_argument("--m", type=int)
    pv.add_argument(
        "--only", action="append", metavar="CHECK",
        help="restrict to a named check; an unknown name lists the known ones",
    )
    add_output(pv)
    add_workers(pv)
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("scan", help="dual-shell scan (JSON lines, one per pair)")
    ps.add_argument("--bound", help="scan all q^(2m) < bound (default: conjecture.DEFAULT_BOUND)")
    add_workers(ps)
    ps.set_defaults(fn=cmd_scan)

    pe = sub.add_parser("enum", help="enumerated weight distribution")
    add_code_args(pe)
    pe.add_argument("--l", type=int, help="also list the codewords of this shell")
    add_output(pe)
    pe.set_defaults(fn=cmd_enum)

    return parser


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one command; while it runs, a SIGTERM unwinds it (killing and
    reaping any forked workers) and exits 143.  Only the main thread can
    handle signals, so called from another thread, main leaves SIGTERM alone."""
    parser = build_parser()
    try:
        previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    except ValueError:  # not the main thread
        previous = None
    try:
        args = parser.parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"worker count must be >= 1, got {args.workers}")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (`scan | head -n 1`).  Point stdout at
        # /dev/null so that the interpreter's last flush does not fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
