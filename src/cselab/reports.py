"""Deterministic serialization of report objects: JSON, CSV and plot data.

All emitters sort keys and normalize floats to 12 significant digits, so a
fixed configuration reproduces byte-identical artifacts.  Exact scalars are
serialized as exact strings (or plain ints where possible).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .counterexamples import CounterexampleRecord, HolderProbeResult, ViolationReport
from .degeneration import FiberZero, SemicontinuityReport
from .exponents import Exponent
from .expressions import format_function
from .polynomials import BivariatePoly, MixedFunction, UnivariatePoly
from .quadrature import BoundReport, IntegralReport, KReport, ProbeResult, SweepReport
from .rationals import GaussianRational, param_float

SWEEP_CSV_HEADER = "t,K_t,err,I_t,J_t,ratio"


def fmt_float(x) -> float:
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return x
    return float(f"{x:.12g}")


def scalar_jsonable(v):
    """Exact scalars become ints or exact strings; floats are normalized."""
    if isinstance(v, GaussianRational):
        if v.is_rational_int():
            return int(v.re)
        return str(v)
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, complex):
        return {"re": fmt_float(v.real), "im": fmt_float(v.imag)}
    return v


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, Exponent):
        return obj.to_json_obj()
    if isinstance(obj, (int, float, complex, Fraction, GaussianRational)):
        return scalar_jsonable(obj)
    if isinstance(obj, (BivariatePoly, MixedFunction)):
        return format_function(obj)
    if isinstance(obj, UnivariatePoly):
        return format_function(obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, FiberZero):
        return {
            "location": scalar_jsonable(
                obj.location if isinstance(obj.location, GaussianRational)
                else complex(obj.location)),
            "multiplicity": obj.multiplicity,
            "exactness": obj.exactness,
            "cluster_radius": 0.0,
        }
    if isinstance(obj, IntegralReport):
        return {
            "value": fmt_float(obj.value),
            "error_estimate": fmt_float(obj.error_estimate),
            "cells_used": obj.cells_used,
            "refinement_flags": list(obj.refinement_flags),
            "domain": str(obj.domain),
            "chart": obj.chart,
            "c": fmt_float(obj.c),
            "converged": obj.converged,
            "divergent": obj.divergent,
            "meta": to_jsonable(obj.meta),
        }
    if isinstance(obj, KReport):
        return {
            "t": to_jsonable(obj.t),
            "K": to_jsonable(obj.k_report),
            "I": to_jsonable(obj.i_report),
            "J": to_jsonable(obj.j_report),
            "identity_residual": fmt_float(obj.identity_residual),
        }
    if isinstance(obj, SweepReport):
        return {
            "function": obj.function,
            "K0": fmt_float(obj.k0),
            "K0_err": fmt_float(obj.k0_err),
            "verdict": obj.verdict,
            "hypothesis_note": obj.hypothesis_note,
            "rows": [{
                "t": to_jsonable(r.t),
                "K_t": fmt_float(r.k_t),
                "err": fmt_float(r.err),
                "I_t": fmt_float(r.i_t),
                "J_t": fmt_float(r.j_t),
                "ratio": fmt_float(r.ratio),
                "flags": list(r.flags),
            } for r in obj.rows],
        }
    if isinstance(obj, BoundReport):
        return {
            "bound": fmt_float(obj.bound),
            "growth_flag": obj.growth_flag,
            "note": obj.note,
            "rows": [{
                "t": to_jsonable(r.t),
                "K_t": fmt_float(r.k_t),
                "err": fmt_float(r.err),
            } for r in obj.rows],
        }
    if isinstance(obj, SemicontinuityReport):
        witness = None
        if obj.witness is not None:
            t, zero, cmax, fexp = obj.witness
            witness = {"t": to_jsonable(t), "zero": to_jsonable(zero),
                       "central_max": cmax.to_json_obj(),
                       "fiber_exponent": fexp.to_json_obj()}
        return {
            "function": obj.function,
            "holomorphic": obj.holomorphic,
            "central": {"x_axis": obj.central_x.to_json_obj(),
                        "y_axis": obj.central_y.to_json_obj(),
                        "min": min(obj.central_x, obj.central_y).to_json_obj(),
                        "max": obj.central_max.to_json_obj()},
            "delta": fmt_float(obj.delta),
            "verdict": obj.verdict,
            "witness": witness,
            "largest_t_holding": to_jsonable(obj.largest_t_holding),
            "rows": [{
                "t": to_jsonable(r.t),
                "holds": r.holds,
                "note": r.note,
                "zeros": [{"zero": to_jsonable(z),
                           "exponent": e.to_json_obj()}
                          for z, e in r.zeros],
            } for r in obj.rows],
        }
    if isinstance(obj, CounterexampleRecord):
        return {
            "n": obj.n,
            "p_coefficients": _poly_coeff_list(obj.p_n),
            "q_coefficients": _poly_coeff_list(obj.q_n),
            "c_n": scalar_jsonable(obj.c_n),
            "Q_support": {f"{m},{n}": scalar_jsonable(c)
                          for (m, n), c in obj.big_q.sorted_items()},
            "family": format_function(obj.family),
            "in_N": obj.in_n,
            "central_exponent": obj.central_exponent.to_json_obj(),
            "fiber_exponent_at_diagonal":
                obj.fiber_exponent_at_diagonal.to_json_obj(),
            "note": obj.note,
        }
    if isinstance(obj, ViolationReport):
        return {
            "n": obj.n,
            "s_samples": [to_jsonable(s) for s in obj.s_samples],
            "identity_ok": obj.identity_ok,
            "fiber_order": obj.fiber_order,
            "central_exponent": obj.central.to_json_obj(),
            "fiber_exponent": obj.fiber.to_json_obj(),
            "verdict": "violated" if obj.violated else "holds",
        }
    if isinstance(obj, (ProbeResult,)):
        return {
            "multiplicity_estimate": fmt_float(obj.multiplicity_estimate),
            "slope": fmt_float(obj.slope),
            "fit_residual": fmt_float(obj.fit_residual),
            "radii": [fmt_float(r) for r in obj.radii],
            "masses": [fmt_float(m) for m in obj.masses],
        }
    if isinstance(obj, HolderProbeResult):
        return {
            "estimate": fmt_float(obj.estimate),
            "raw_slope": fmt_float(obj.raw_slope),
            "fit_residual": fmt_float(obj.fit_residual),
            "points_used": obj.points_used,
        }
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def render_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def render_csv(report) -> str:
    if isinstance(report, SweepReport):
        lines = [SWEEP_CSV_HEADER]
        for (t, k, err, i, j, ratio) in report.csv_rows():
            lines.append(",".join(f"{fmt_float(v):.12g}" for v in
                                  (t, k, err, i, j, ratio)))
        return "\n".join(lines) + "\n"
    raise TypeError("CSV output is defined for sweep reports")


def render_plot_data(report) -> str:
    """Two whitespace-separated columns for external plotting."""
    if isinstance(report, SweepReport):
        pairs = [(param_float(r.t), r.ratio) for r in report.rows]
    elif isinstance(report, ProbeResult):
        pairs = list(zip(report.radii, report.masses))
    else:
        raise TypeError("plot-data output is defined for sweep and probe reports")
    return "\n".join(f"{fmt_float(a):.12g} {fmt_float(b):.12g}"
                     for a, b in pairs) + "\n"


def _poly_coeff_list(p: UnivariatePoly):
    return [scalar_jsonable(c) for c in p.coeffs]


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
