"""Deterministic serialization of report objects: JSON, CSV and plot data.

Report types name their JSON fields, with raw values, in a to_json_obj()
method; to_jsonable is the one place that turns values into JSON.  Floats
are normalized to 12 significant digits, and a non-finite one becomes a
string, so the JSON is strict (RFC 8259); exact scalars become plain ints
or exact strings, and polynomials are printed by format_function.  All
emitters sort keys, so a fixed configuration reproduces byte-identical
artifacts.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .expressions import format_function
from .polynomials import BivariatePoly, MixedFunction, UnivariatePoly
from .rationals import ExactPairs, GaussianRational, pair_json, param_float, _int_pair

SWEEP_CSV_HEADER = "t,K_t,err,I_t,J_t,ratio"


def fmt_float(x) -> float | str:
    """x at 12 significant digits; a non-finite x as the string "infinity",
    "-infinity" or "nan", since strict JSON has no such numbers."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "infinity" if x > 0 else "-infinity"
    return float(f"{x:.12g}")


def to_jsonable(obj):
    """The JSON value of obj.

    Ints, strings and None are JSON already; exact scalars, and ExactPairs
    from their ints, are written by rationals.pair_json, floats are
    normalized by fmt_float and polynomials printed by format_function;
    lists, tuples and dicts recurse.  Any other object is serialized as the
    value of its to_json_obj() method, which names its fields with raw values.
    """
    if obj is None or isinstance(obj, (int, str)):    # bool is an int
        return obj
    if isinstance(obj, (GaussianRational, Fraction)):
        return pair_json(*_int_pair(obj))
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, complex):
        return {"re": fmt_float(obj.real), "im": fmt_float(obj.imag)}
    if isinstance(obj, ExactPairs):
        values = [pair_json(*c, obj.den) for c in obj.pairs]
        return values if obj.keys is None else dict(zip(obj.keys, values))
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (BivariatePoly, MixedFunction, UnivariatePoly)):
        return format_function(obj)
    try:
        to_json_obj = obj.to_json_obj
    except AttributeError:
        raise TypeError(f"no JSON form for {type(obj).__name__}") from None
    return to_jsonable(to_json_obj())


def render_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def render_csv(report) -> str:
    from .quadrature import SweepReport

    if not isinstance(report, SweepReport):
        raise TypeError("CSV output is defined for sweep reports")
    rows = [",".join(f"{float(v):.12g}" for v in row) for row in report.csv_rows()]
    return "\n".join([SWEEP_CSV_HEADER, *rows]) + "\n"


def render_plot_data(report) -> str:
    """Two whitespace-separated columns, t and K_t/K_0, for external plotting."""
    from .quadrature import SweepReport

    if not isinstance(report, SweepReport):
        raise TypeError("plot-data output is defined for sweep reports")
    return "\n".join(f"{param_float(r.t):.12g} {r.ratio:.12g}"
                     for r in report.rows) + "\n"


def emit_report(report, fmt: str = "json", path=None) -> str:
    """Serialize a report; write to path when given, return the text."""
    if fmt == "json":
        text = render_json(report)
    elif fmt == "csv":
        text = render_csv(report)
    elif fmt == "plot-data":
        text = render_plot_data(report)
    else:
        raise ValueError("format must be json, csv or plot-data")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
