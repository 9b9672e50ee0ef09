"""Span tracer installed into grmjacobi from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
the module that defines it and in every grmjacobi module that imported it
by name, and wraps the values of the `checks.CHECKS` registry.  Spanned
calls record (name, start, end, parent, work); hot leaf functions are only
counted.  Spans stay in memory until `write()` dumps them as JSONL.

`layer_metrics()` turns the span files of one repetition into the
per-layer metrics named in BENCHMARK.json.

Worker processes forked by `_parallel.run_chunks` inherit the wrappers but
never write their spans, so with more than one worker only parent-side
work is visible.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter


def _bound(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _code_size(fn, args, kwargs, result):
    return _bound(fn, args, kwargs, "code").size


def _functionals(fn, args, kwargs, result):
    code = _bound(fn, args, kwargs, "code")
    return code.q ** code.m


def _subsets(fn, args, kwargs, result):
    code = _bound(fn, args, kwargs, "code")
    return math.comb(code.n, _bound(fn, args, kwargs, "t"))


def _shells(fn, args, kwargs, result):
    return len(result.checked_shells)


# (module, function, span name, computed counter name, counter function).
# The counter function sees the call's arguments and result and returns the
# work that call did, e.g. the codewords a brute-force pass enumerates.
SPANNED = (
    ("grmjacobi.conjecture", "dual_weight_enumerator", "conjecture.dual_weight_enumerator", None, None),
    ("grmjacobi.conjecture", "scan_pair", "conjecture.scan_pair", "conjecture.shells", _shells),
    ("grmjacobi.conjecture", "scan_pairs", "conjecture.scan_pairs", None, None),
    ("grmjacobi.grm", "classify_T", "grm.classify_T", None, None),
    ("grmjacobi.grm", "t_class_census", "grm.t_class_census", None, None),
    ("grmjacobi.jacobi", "jacobi_brute_force", "jacobi.jacobi_brute_force", "jacobi.codewords", _code_size),
    ("grmjacobi.jacobi", "count_tables", "jacobi.count_tables", "jacobi.functionals", _functionals),
    ("grmjacobi.jacobi", "dual_jacobi", "jacobi.dual_jacobi", None, None),
    ("grmjacobi.jacobi", "binom_conv", "jacobi.binom_conv", None, None),
    ("grmjacobi.designs", "design_check_jacobi", "designs.design_check_jacobi", "designs.subsets", _subsets),
    ("grmjacobi.designs", "design_check_bruteforce", "designs.design_check_bruteforce", "designs.subsets", _subsets),
    ("grmjacobi._parallel", "run_chunks", "parallel.run_chunks", None, None),
)
# Called too often for a span each: (module, function, counter name).
COUNTED = (("grmjacobi.grm", "class_witness", "grm.class_witness.calls"),)
ROOT = "cli.main"
FIELDS = ["name", "start_ns", "end_ns", "parent", "work"]
STATS = ("calls", "s", "self_s", "max_s")


def known_metric(name: str) -> bool:
    """Whether layer_metrics() can produce `name` (it omits zero values)."""
    span, _, stat = name.rpartition(".")
    spans = {s[2] for s in SPANNED} | {"field.Field", ROOT}
    counters = {s[3] for s in SPANNED} | {c[2] for c in COUNTED} | {"field.Field.dot.calls"}
    return name in counters or (stat in STATS and (span in spans or span.startswith("checks.")))


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index, work); None while running.
        # Tuples of atoms drop out of the garbage collector's tracking.
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}

    def spanned(self, name, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
            if work is not None:
                spans[index] = spans[index][:4] + (work(fn, args, kwargs, result),)
            return result

        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function; call after grmjacobi.cli is imported."""
        from grmjacobi.checks import CHECKS
        from grmjacobi.field import Field

        for module, attr, name, _, work in SPANNED:
            orig = getattr(sys.modules[module], attr)
            _rebind(orig, self.spanned(name, orig, work))
        for module, attr, name in COUNTED:
            orig = getattr(sys.modules[module], attr)
            _rebind(orig, self.counted(name, orig))
        for check, fn in CHECKS.items():
            CHECKS[check] = self.spanned(f"checks.{check}", fn)
        Field.__init__ = self.spanned("field.Field", Field.__init__)
        Field.dot = self.counted("field.Field.dot.calls", Field.dot)

    def run_root(self, fn, *args):
        return self.spanned(ROOT, fn)(*args)

    def write(self, path) -> None:
        """A header line with the counts, then one JSON array per span:
        [name, start_ns, end_ns, parent line index or null, work or null]."""
        counts = {name: cell[0] for name, cell in self.counts.items()}
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": counts, "fields": FIELDS}) + "\n")
            # Names are plain identifiers and the rest are integers or None,
            # so formatting by hand gives valid JSON at a fraction of the cost.
            fh.writelines(
                f'["{name}", {start}, {end}, {_json_int(parent)}, {_json_int(work)}]\n'
                for name, start, end, parent, work in self.spans
            )


def _json_int(value: int | None) -> str:
    return "null" if value is None else str(value)


def _rebind(orig, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "grmjacobi" or mod_name.startswith("grmjacobi."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


def read_spans(path) -> tuple[dict, list[dict]]:
    """(counts, spans) from a file written by `Tracer.write`; each span is a
    dict of FIELDS with start and end in seconds of the monotonic clock."""
    with open(path) as fh:
        counts = json.loads(fh.readline())["counts"]
        spans = [dict(zip(FIELDS, json.loads(line))) for line in fh]
    for s in spans:
        s["start"], s["end"] = s.pop("start_ns") / 1e9, s.pop("end_ns") / 1e9
    return counts, spans


def layer_metrics(files) -> dict[str, float]:
    """Per-layer metrics of one repetition, summed over its processes.

    For span name N: N.calls, N.s (time inside the outermost N spans, so a
    nested N is not counted twice), N.self_s (time not covered by child
    spans) and N.max_s (longest single call).
    """
    out: Counter = Counter()
    for path in files:
        counts, spans = read_spans(path)
        out.update(counts)
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            out[f"{name}.max_s"] = max(out[f"{name}.max_s"], dur)
            if not _has_ancestor(spans, i, name):
                out[f"{name}.s"] += dur
        for _, _, name, counter, _ in SPANNED:
            if counter is not None:
                out[counter] += sum(s["work"] for s in spans if s["name"] == name)
    return dict(out)


def _has_ancestor(spans, i, name) -> bool:
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False
