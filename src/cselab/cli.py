"""Batch command line interface.

Subcommands: exponent, lct, polygon, sweep, bound, counterexample, probe.
Exit codes: 0 when verdicts match the theorem expectations, 2 when a
holomorphic input produces a violated (or failed-stability) verdict or a
bound, sweep or probe rests on a flagged integral, 1 on a rejected input
(one "error:" line on stderr).  Each subcommand imports only the modules it runs: exponent,
lct, polygon, counterexample and probe --kind holder load neither numpy nor the quadrature.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

from .expressions import ExpressionError, format_function, parse_expression
from .polynomials import IdenticallyZeroError, UnivariatePoly, as_mixed, substitute_fiber
from .reports import emit_report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a value that begins with "-" (--t -1/100, --f
        # "-x^2+y^3") as an option name, so each such value is joined to its
        # option (in full or as the unique prefix of a long option) as
        # --t=-1/100 unless it names an option of this parser (exactly, or as a
        # long option's prefix); a subcommand's parser gets its own tokens
        args = list(sys.argv[1:] if args is None else args)
        options = self._option_string_actions
        i = 0
        while i < len(args) - 1 and args[i] != "--":
            prefixed = [o for o in options if o.startswith(args[i])] if args[i][:2] == "--" else []
            action = options.get(args[i], options[prefixed[0]] if len(prefixed) == 1 else None)
            value = args[i + 1]
            name = value.split("=", 1)[0]
            if (action is not None and action.nargs is None and value.startswith("-")
                    and not any(o.startswith(name) if name.startswith("--") else o == name
                                for o in options)):
                args[i:i + 2] = [f"{args[i]}={value}"]
            i += 1
        return super().parse_known_args(args, namespace)


_QUAD_OPTS = (   # option, type, help, QuadratureConfig field
    ("--radial-cells", int, "radial cells per decade", "radial_cells_per_decade"),
    ("--angular-cells", int, "angular cells (ceil(n/m) on a sector of 2pi/m)", "angular_cells"),
    ("--max-depth", int, "max dyadic refinement depth", "max_refinement_depth"),
    ("--tolerance", float, "per-cell relative tolerance", "target_rel_tolerance"),
)


def _quad_config(ns):
    """The QuadratureConfig of the options; an option left unset keeps the
    config's own default."""
    from .quadrature import QuadratureConfig

    given = {field: getattr(ns, opt[2:].replace("-", "_")) for opt, *_, field in _QUAD_OPTS}
    return QuadratureConfig(**{k: v for k, v in given.items() if v is not None})


def _parse_exact(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"not an exact rational: {text!r} ({e})")


def _parse_fn(text: str):
    """A BivariatePoly or MixedFunction; a polynomial in z is a usage error."""
    try:
        f = parse_expression(text)
    except ExpressionError as e:
        raise UsageError(f"bad expression: {e}")
    if isinstance(f, UnivariatePoly):
        raise UsageError(f"need a function of x and y, not of z: {text!r}")
    return f


def _add_quad_opts(p):
    # no defaults here: _quad_config leaves unset options to QuadratureConfig,
    # so building the parser does not import the quadrature
    for opt, kind, what, field in _QUAD_OPTS:
        p.add_argument(opt, type=kind, help=f"{what} (default: QuadratureConfig.{field})")


def _add_out_opts(p, formats=("json",)):
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(report, ns) -> None:
    text = emit_report(report, fmt=ns.format, path=ns.out)
    if ns.out is None:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    top = _Parser(prog="cselab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="central/fiber exponents and the "
                                        "semicontinuity verdict")
    p.add_argument("--f", required=True, help="function expression")
    p.add_argument("--t", action="append", default=None,
                   help="fiber parameter (exact rational; repeatable; "
                        "default 10^-2, 10^-4, 10^-6, 10^-8: squares, so that "
                        "a radial term has an exact square root of t)")
    p.add_argument("--delta", type=float, default=0.1,
                   help="polydisc radius for zero selection (default 0.1)")
    _add_out_opts(p)

    p = sub.add_parser("lct", help="resolution-data formula vs polygon estimate")
    p.add_argument("--name", default=None,
                   help="catalog entry (default: every entry)")
    p.add_argument("--catalog", default=None,
                   help="JSON catalog file (default: builtin)")
    _add_out_opts(p)

    p = sub.add_parser("polygon", help="Newton polygon dump")
    p.add_argument("--f", required=True)
    _add_out_opts(p)

    p = sub.add_parser("sweep", help="fiber-integral stability table K_t vs K_0")
    p.add_argument("--f", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--t", action="append", default=None,
                   help="explicit t values (exact rationals; repeatable)")
    p.add_argument("--t-start", default="1/100")
    p.add_argument("--t-ratio", default="1/4")
    p.add_argument("--t-count", type=int, default=7)
    _add_quad_opts(p)
    _add_out_opts(p, formats=("csv", "json", "plot-data"))

    p = sub.add_parser("bound", help="sampled uniform bound, with optional "
                                     "factor combination")
    p.add_argument("--f", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--t", action="append", default=None)
    p.add_argument("--factor", action="append", default=None,
                   help="factor expression (repeat; enables the Young-"
                        "inequality combined bound)")
    _add_quad_opts(p)
    _add_out_opts(p)

    p = sub.add_parser("counterexample", help="non-holomorphic family records")
    p.add_argument("--n", type=int, default=None, help="single index n")
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--s", action="append", default=None,
                   help="diagonal sample s (positive rational; repeatable; "
                        "default 1/10, 1/7, 1/3)")
    _add_out_opts(p)

    p = sub.add_parser("probe", help="numeric multiplicity / regularity probes")
    p.add_argument("--kind", choices=("multiplicity", "holder"), required=True)
    p.add_argument("--f", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--r0", type=float, default=0.05, help="largest probe radius (finite, > 0), "
                   "cut to 1/4 the distance to the nearest other zero and |zero|/2 at a pole")
    _add_quad_opts(p)
    _add_out_opts(p)

    return top


# -- subcommand bodies -------------------------------------------------------

def _cmd_exponent(ns) -> int:
    from .degeneration import semicontinuity_check

    f = _parse_fn(ns.f)
    ts = ([_parse_exact(t) for t in ns.t] if ns.t
          else [Fraction(1, 10 ** k) ** 2 for k in range(1, 5)])
    report = semicontinuity_check(f, ts, delta=ns.delta)
    _emit(report, ns)
    if report.verdict == "violated" and report.holomorphic:
        return 2
    return 0


def _cmd_lct(ns) -> int:
    from .degeneration import builtin_catalog, lct_from_resolution, load_catalog
    from .newton import lct_polygon_estimate

    entries = load_catalog(ns.catalog) if ns.catalog else builtin_catalog()
    names = [ns.name] if ns.name else sorted(entries)
    rows = []
    for name in names:
        if name not in entries:
            raise UsageError(f"unknown catalog entry {name!r}; known: "
                             f"{', '.join(sorted(entries))}")
        e = entries[name]
        res = lct_from_resolution(e.divisors, e.is_log_resolution)
        row = {"name": name, "resolution_value": res.value, "label": res.label}
        if e.curve:
            est = lct_polygon_estimate(_parse_fn(e.curve))
            row["curve"] = e.curve
            row["polygon_estimate"] = est
            row["agree"] = est == res.value
        rows.append(row)
    _emit({"entries": rows}, ns)
    return 0


def _cmd_polygon(ns) -> int:
    from . import newton

    f = as_mixed(_parse_fn(ns.f)).holo
    polygon = newton.compute_polygon(f)
    out = {
        "function": f,
        "vertices": polygon.vertices,
        "segments": polygon.segments,
        "single_segment": newton.single_segment(polygon),
    }
    try:
        k, l = newton.endpoints(polygon)
        out["endpoints"] = {"k": k, "l": l}
        out["principal_part"] = newton.principal_part(f, (k, l)).poly
    except IdenticallyZeroError as e:
        out["endpoints"] = None
        out["endpoint_error"] = str(e)
    try:
        out["lct_polygon_estimate"] = newton.lct_polygon_estimate(f)
        out["estimate_note"] = ("estimate: exact only for Newton-nondegenerate "
                                "germs, which is not tested here")
    except IdenticallyZeroError:
        pass
    _emit(out, ns)
    return 0


def _sweep_sequence(ns):
    from .quadrature import default_t_sequence

    if ns.t:
        return [_parse_exact(t) for t in ns.t]
    if ns.t_count < 1:
        raise UsageError("--t-count must be >= 1")
    return default_t_sequence(_parse_exact(ns.t_start),
                              _parse_exact(ns.t_ratio), ns.t_count)


def _cmd_sweep(ns) -> int:
    from .quadrature import convergence_sweep

    f = _parse_fn(ns.f)
    cfg = _quad_config(ns)
    report = convergence_sweep(f, ns.c, ns.R, _sweep_sequence(ns), cfg)
    _emit(report, ns)
    return 0 if report.verdict == "converged" else 2


def _cmd_bound(ns) -> int:
    from .degeneration import central_exponent
    from .quadrature import default_t_sequence, uniform_bound_check, young_combine

    f = _parse_fn(ns.f)
    cfg = _quad_config(ns)
    ts = [_parse_exact(t) for t in ns.t] if ns.t else default_t_sequence()
    report = uniform_bound_check(f, ns.c, ns.R, ts, cfg)
    payload = {"bound": report}
    flagged = any(r.flags for r in report.rows)
    if ns.factor:
        factors = [_parse_fn(x) for x in ns.factor]
        orders, bounds = [], []
        for g in factors:
            c0 = central_exponent(g, "min")
            if c0.is_infinite or c0.value == 0:
                raise UsageError(f"factor {format_function(g)} has no "
                                 "usable central order")
            orders.append(int(1 / c0.value))
        total = sum(orders)
        for g, li in zip(factors, orders):
            rep = uniform_bound_check(g, ns.c * total / li, ns.R, ts, cfg)
            bounds.append((li, rep.bound))
            flagged = flagged or any(r.flags for r in rep.rows)
        combined = young_combine(bounds)
        payload["young"] = {
            "factors": factors,
            "orders": orders,
            "factor_bounds": [m for _, m in bounds],
            "combined_bound": combined,
            "product_bound_le_combined": report.bound <= combined,
        }
    _emit(payload, ns)
    return 2 if report.growth_flag or flagged else 0


def _cmd_counterexample(ns) -> int:
    from .counterexamples import counterexample_record, verify_violation

    if ns.n is not None:
        indices = [ns.n]
    else:
        hi = ns.n_max if ns.n_max is not None else ns.n_min
        if hi < ns.n_min:
            raise UsageError(f"--n-max {hi} is below --n-min {ns.n_min}")
        indices = range(ns.n_min, hi + 1)
    s_samples = [_parse_exact(s) for s in (ns.s or ["1/10", "1/7", "1/3"])]
    records = []
    for n in indices:
        rec = counterexample_record(n)
        records.append(dataclasses.replace(
            rec, verification=verify_violation(rec, s_samples)))
    _emit({"records": records}, ns)
    return 0 if all(r.verification.violated for r in records) else 2


def _cmd_probe(ns) -> int:
    if ns.kind == "holder":
        from .counterexamples import holder_probe

        result = holder_probe(ns.n, ns.scale)
        _emit(result, ns)
        return 0
    from .degeneration import fiber_zeros
    from .quadrature import exponent_probe_1d

    cfg = _quad_config(ns)
    if not ns.f or ns.t is None:
        raise UsageError("multiplicity probes need --f and --t")
    f = _parse_fn(ns.f)
    t = _parse_exact(ns.t)
    fib = substitute_fiber(f, t)
    zeros = fiber_zeros(fib, t, delta=ns.delta)
    if not zeros:
        raise UsageError("no fiber zeros inside the polydisc to probe")
    probes = exponent_probe_1d(fib, [z.location_complex() for z in zeros], ns.c, cfg, r0=ns.r0)
    _emit({"probes": [{"zero": z, "probe": pr} for z, pr in zip(zeros, probes)]}, ns)
    return 2 if any(any(pr.flags) for pr in probes) else 0


_COMMANDS = {
    "exponent": _cmd_exponent,
    "lct": _cmd_lct,
    "polygon": _cmd_polygon,
    "sweep": _cmd_sweep,
    "bound": _cmd_bound,
    "counterexample": _cmd_counterexample,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.command](ns)
    except (UsageError, ValueError, OSError) as e:
        # ValueError covers IdenticallyZeroError and every rejected value
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
