"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces every public function of the cselab modules with
a wrapper that records a span (name, start, end, parent span, job id,
attributes).  The replacement is made under every name that binds the
function, so the names other modules re-bind with ``from ... import`` (for
example ``fiber_zeros`` inside ``quadrature``) are traced too.  The
arithmetic methods of ``GaussianRational`` are counted, not timed: a span per
operation would swamp the run.  Spans stay in memory until ``dump``.

A span is the list ``[name, start, end, parent, job, attrs]``; ``parent`` is
the index of the enclosing span or -1, ``job`` is -1 during set-up.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from time import perf_counter

MODULES = ("rationals", "polynomials", "exponents", "newton", "degeneration", "quadrature",
           "counterexamples", "exact_linalg", "expressions", "reports", "cli")
COUNTED_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
                   "conjugate")

NAME, START, END, PARENT, JOB, ATTRS = range(6)


def _degree(obj):
    if hasattr(obj, "combined_numerator"):
        obj = obj.combined_numerator()
    if hasattr(obj, "holo"):
        obj = obj.holo
    if hasattr(obj, "total_degree"):
        return obj.total_degree()
    return getattr(obj, "degree", None)


def _first_degree(args, kwargs, result):
    return {"degree": _degree(args[0])} if args else None


def _n_arg(args, kwargs, result):
    n = args[0] if args else kwargs.get("n", kwargs.get("record"))
    return {"n": getattr(n, "n", n)}


def _K_attrs(args, kwargs, result):
    k = result.k_report
    return {"degree": _degree(args[0]), "cells": k.cells_used,
            "flags": list(k.refinement_flags), "converged": k.converged,
            "divergent": k.divergent}


def _annulus_attrs(args, kwargs, result):
    return {"cells": result.cells_used, "flags": list(result.refinement_flags),
            "converged": result.converged}


def _zeros_attrs(args, kwargs, result):
    return {"degree": _degree(args[0]), "zeros": len(result),
            "exact": sum(1 for z in result if z.exact_location)}


def _kernel_attrs(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0}


def _text_attrs(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


ATTRIBUTES = {   # span name -> attribute extractor, run after the call returns
    "polynomials.substitute_fiber": _first_degree,
    "polynomials.vanishing_order": _first_degree,
    "polynomials.squarefree_decomposition": _first_degree,
    "polynomials.poly_gcd": _first_degree,
    "degeneration.semicontinuity_check": _first_degree,
    "degeneration.fiber_zeros": _zeros_attrs,
    "newton.compute_polygon": _first_degree,
    "quadrature.fiber_integral_K": _K_attrs,
    "quadrature.annulus_integral": _annulus_attrs,
    "exact_linalg.integer_kernel_basis": _kernel_attrs,
    "counterexamples.counterexample_record": _n_arg,
    "counterexamples.verify_violation": _n_arg,
    "counterexamples.solve_wn": _n_arg,
    "counterexamples.membership_N": _n_arg,
    "reports.render_json": _text_attrs,
    "reports.render_csv": _text_attrs,
    "reports.render_plot_data": _text_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = 0          # GaussianRational arithmetic calls
        self.job = -1
        self._stack = []
        self._saved = []      # (owner, attribute, original) to restore

    # -- installation -----------------------------------------------------

    def install(self, also=()):
        """Wrap the public functions; `also` are further modules (the
        benchmark's own) whose bindings of those functions are swapped too."""
        modules = {name: importlib.import_module(f"cselab.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._span_wrapper(f"{short}.{attr}", obj)
        for mod in [sys.modules["cselab"], *modules.values(), *also]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._replace(mod, attr, obj, wrappers[obj])
        cls = modules["rationals"].GaussianRational
        for attr in COUNTED_METHODS:
            self._replace(cls, attr, cls.__dict__[attr], self._count_wrapper(cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _replace(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args):
            tracer.ops += 1
            return fn(*args)
        return counted

    def _span_wrapper(self, name, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        attrs_of = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # direct recursion (to_jsonable) stays inside the outer span
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, kwargs, result)
            return result
        return traced

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "job": s[JOB],
                                     "attrs": s[ATTRS]}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def covered(spans, names):
    """Total duration of the spans named in `names` that have no ancestor
    named in `names`: the wall time spent inside those functions."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s[PARENT]
        above = p >= 0 and (inside[p] or spans[p][NAME] in names)
        inside[i] = above
        if s[NAME] in names and not above:
            total += s[END] - s[START]
    return total


def module_self(spans, root, selfs=None):
    """Time spent in the module of `root` below outermost `root` spans.

    That is the duration of each outermost `root` span minus the time of its
    nearest descendants from other modules; calls into the same module
    (membership_N under counterexample_record) stay in.
    """
    selfs = self_times(spans) if selfs is None else selfs
    mod = module_of(root)
    seg = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[NAME] == root and not (p >= 0 and seg[p]):
            seg[i] = True
        elif p >= 0 and seg[p] and module_of(s[NAME]) == mod:
            seg[i] = True
        if seg[i]:
            total += selfs[i]
    return total


def subset(spans, keep):
    """The spans for which keep(span) holds, with parent indices remapped.

    `keep` must keep a span's parent whenever it keeps the span (a job id
    filter does: spans of one job nest only in spans of the same job).
    """
    index, out = {}, []
    for i, s in enumerate(spans):
        if keep(s):
            index[i] = len(out)
            out.append([s[NAME], s[START], s[END], index.get(s[PARENT], -1), s[JOB], s[ATTRS]])
    return out


def _flag_count(flags, prefix):
    return sum(int(f.split(":", 1)[1]) for f in flags if f.startswith(prefix + ":"))


def layer_metrics(spans, ops, passes, wall_s, timed=lambda s: s[JOB] >= 0):
    """Per-layer numbers from the spans of a traced run.

    Set-up spans (job -1) give the parse totals; every other figure is a
    total over the spans selected by `timed` (those of the traced passes)
    divided by their number of passes.  `ops` is the GaussianRational call
    count of those passes and `wall_s` their total wall time, the base of
    the shares.
    """
    setup = subset(spans, lambda s: s[JOB] < 0)
    timed = subset(spans, timed)
    selfs = self_times(timed)
    per = 1.0 / max(passes, 1)
    ms = 1000.0 * per
    names = {}
    for s in timed:
        names.setdefault(module_of(s[NAME]), set()).add(s[NAME])

    def named(name):
        return [i for i, s in enumerate(timed) if s[NAME] == name]

    def attrs(name):    # of the calls that returned
        return [timed[i][ATTRS] for i in named(name) if timed[i][ATTRS] is not None]

    def self_sum(*span_names):
        return sum(selfs[i] for n in span_names for i in named(n))

    def cov(*span_names):
        return covered(timed, set(span_names))

    k_spans = attrs("quadrature.fiber_integral_K")
    k_self = self_sum("quadrature.fiber_integral_K", "quadrature.annulus_integral")
    cells = sum(a["cells"] for a in k_spans)
    zeros = attrs("degeneration.fiber_zeros")
    n_zeros = sum(a["zeros"] for a in zeros)
    kernels = attrs("exact_linalg.integer_kernel_basis")
    renders = [s[ATTRS]["bytes"] for i, s in enumerate(timed)
               if s[NAME].startswith("reports.render_") and s[ATTRS] is not None
               and not (s[PARENT] >= 0 and module_of(timed[s[PARENT]][NAME]) == "reports")]
    quad_self = sum(selfs[i] for i, s in enumerate(timed) if module_of(s[NAME]) == "quadrature")
    wall = max(wall_s, 1e-12)
    return {
        "expressions.parse_ms": 1000.0 * covered(setup, {"expressions.parse_expression"}),
        "expressions.parse_calls": sum(1 for s in setup
                                       if s[NAME] == "expressions.parse_expression"),
        "rationals.ops": ops * per,
        "polynomials.substitute_fiber_ms": cov("polynomials.substitute_fiber") * ms,
        "polynomials.vanishing_order_ms": cov("polynomials.vanishing_order") * ms,
        "polynomials.vanishing_order_calls": len(named("polynomials.vanishing_order")) * per,
        "polynomials.squarefree_ms": cov("polynomials.squarefree_decomposition") * ms,
        "polynomials.gcd_ms": cov("polynomials.poly_gcd") * ms,
        "polynomials.gcd_calls": len(named("polynomials.poly_gcd")) * per,
        "exact_linalg.kernel_ms": cov("exact_linalg.integer_kernel_basis") * ms,
        "exact_linalg.kernel_calls": len(named("exact_linalg.integer_kernel_basis")) * per,
        "exact_linalg.max_matrix_cols": max((a["cols"] for a in kernels), default=0),
        "newton.polygon_ms": covered(timed, names.get("newton", set())) * ms,
        "degeneration.fiber_zeros_ms": self_sum("degeneration.fiber_zeros") * ms,
        "degeneration.fiber_zeros_calls": len(named("degeneration.fiber_zeros")) * per,
        "degeneration.exact_location_share":
            sum(a["exact"] for a in zeros) / n_zeros if n_zeros else 0.0,
        "degeneration.semicontinuity_ms": self_sum("degeneration.semicontinuity_check") * ms,
        "degeneration.fiber_exponent_ms": cov("degeneration.fiber_exponent") * ms,
        "quadrature.K_ms": k_self * ms,
        "quadrature.K_calls": len(named("quadrature.fiber_integral_K")) * per,
        "quadrature.cells": cells * per,
        "quadrature.cells_per_s": cells / k_self if k_self > 0 else 0.0,
        "quadrature.forced_cells":
            sum(_flag_count(a["flags"], "max-depth-reached") for a in k_spans) * per,
        "quadrature.dropped_cells":
            sum(_flag_count(a["flags"], "unresolved-singular-cell") for a in k_spans) * per,
        "quadrature.converged_share":
            sum(1 for a in k_spans if a["converged"]) / len(k_spans) if k_spans else 0.0,
        "counterexamples.record_ms":
            module_self(timed, "counterexamples.counterexample_record", selfs) * ms,
        "counterexamples.verify_ms":
            module_self(timed, "counterexamples.verify_violation", selfs) * ms,
        "reports.serialise_ms": covered(timed, names.get("reports", set())) * ms,
        "reports.bytes": sum(renders) * per,
        "quadrature.self_share": quad_self / wall,
        "polynomials.squarefree_share":
            cov("polynomials.squarefree_decomposition", "polynomials.poly_gcd") / wall,
        "polynomials.vanishing_order_share": cov("polynomials.vanishing_order") / wall,
        "counterexamples.share": covered(timed, names.get("counterexamples", set())) / wall,
        "trace.spans": len(timed) * per,
    }
