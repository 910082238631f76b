"""Regenerate bench/reference.json, the benchmark's committed oracle data.

    python3 bench/make_reference.py

Two parts, computed once so that timed runs never pay for them:

- ``corpus``: reference values K_ref of the fiber integral for a fixed set of
  cases, at a tight tolerance and a deep refinement cap, with the
  reference's own error estimate.  Each case is computed at two tight
  tolerances, which must agree to AGREE_REL; the central-fiber cases are
  also checked against their closed form 2*pi*R^(2-2ca)/(2-2ca) per axis.
  The corpus includes multiplicity-2 cases such as (x+y)^2 at c = 0.4,
  where the default configuration's error estimate is not a bound.
- ``digests``: for each n in 0..20 the SHA-256 of the canonical JSON of
  counterexample_record(n), and ord_{z=1} P_n.  Before a record is
  accepted, its P_n is checked with plain Fraction arithmetic: the shape
  q(z^2) + c z^(2n+1), nonzero extreme coefficients and (z-1)^(2n+2) | P_n.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from cselab import (QuadratureConfig, counterexample_record, fiber_integral_K,  # noqa: E402
                    parse_expression)
from cselab.reports import to_jsonable  # noqa: E402

from workloads import FAMILY_N_MAX, REFERENCE_PATH, canonical_digest  # noqa: E402

CORPUS = (   # (f, t, c, R)
    ("y^2 - x^3", "1/100", 0.3, 0.5),
    ("y^2 - x^3", "1/10000", 0.3, 0.5),
    ("y^2 - x^3", "0", 0.3, 0.5),
    ("x^2 - y^2", "1/1000", 0.2, 0.5),
    ("x^2 - y^2", "1/100", 0.4, 0.5),
    ("(x + y)^2", "1/100", 0.4, 0.5),
    ("(x + y)^2", "1/1000", 0.4, 0.5),
    ("(x + y)^2", "1/100", 0.2, 0.5),
    ("y^3 - x^5", "1/1000", 0.15, 0.5),
    ("x + y", "1/10000", 0.5, 1.0),
    ("x + y", "0", 0.5, 1.0),
)
REF_CFG = QuadratureConfig(target_rel_tolerance=1e-7, max_refinement_depth=40)
CHECK_CFG = QuadratureConfig(target_rel_tolerance=1e-6, max_refinement_depth=40)
AGREE_REL = 1e-4
# axis orders (x-axis, y-axis) of the central-fiber cases, for the closed form
AXIS_ORDERS = {"y^2 - x^3": (3, 2), "x + y": (1, 1)}


def closed_form_k0(f: str, c: float, radius: float) -> float:
    """K_0 = sum over the axes of the integral of |z|^(-2ca) over |z| < R."""
    return sum(2 * math.pi * radius ** (2 - 2 * c * a) / (2 - 2 * c * a)
               for a in AXIS_ORDERS[f])


def corpus_entry(f, t, c, radius):
    fn = parse_expression(f)
    ref = fiber_integral_K(fn, Fraction(t), c, radius, REF_CFG).k_report
    chk = fiber_integral_K(fn, Fraction(t), c, radius, CHECK_CFG).k_report
    agree = abs(ref.value - chk.value) / ref.value
    if not agree <= AGREE_REL:
        raise SystemExit(f"{f} t={t} c={c}: tight tolerances disagree by {agree:.3g}")
    entry = {"f": f, "t": t, "c": c, "R": radius, "K_ref": ref.value,
             "K_ref_err": ref.error_estimate, "K_ref_cells": ref.cells_used,
             "K_ref_flags": list(ref.refinement_flags), "K_check": chk.value,
             "agree_rel": agree}
    if Fraction(t) == 0:
        exact = closed_form_k0(f, c, radius)
        entry["K_closed_form"] = exact
        if abs(ref.value - exact) > AGREE_REL * exact:
            raise SystemExit(f"{f} t=0: reference {ref.value} vs closed form {exact}")
    print(f"{f:10s} t={t:8s} c={c}: K_ref={ref.value:.10g} err={ref.error_estimate:.3g} "
          f"agree={agree:.2g}", file=sys.stderr)
    return entry


def ord_at_one(coeffs) -> int:
    """Order of vanishing at z = 1 by synthetic division (ascending coefficients)."""
    order, p = 0, list(coeffs)
    while len(p) > 1:
        acc, quotient = Fraction(0), []
        for c in reversed(p):
            acc = acc + c
            quotient.append(acc)
        if acc != 0:
            break
        p = list(reversed(quotient[:-1]))
        order += 1
    return order


def digest_entry(n: int):
    doc = to_jsonable(counterexample_record(n))
    p = [Fraction(c) for c in doc["p_coefficients"]]
    odd = [k for k in range(1, len(p), 2) if p[k] != 0 and k != 2 * n + 1]
    if len(p) != 4 * n + 3 or p[0] == 0 or p[-1] == 0 or odd:
        raise SystemExit(f"n={n}: P_n does not have the shape q(z^2) + c z^(2n+1)")
    order = ord_at_one(p)
    if order < 2 * n + 2:
        raise SystemExit(f"n={n}: (z-1)^(2n+2) does not divide P_n")
    if doc["fiber_exponent_at_diagonal"] != {"num": 1, "den": order}:
        raise SystemExit(f"n={n}: fiber exponent differs from 1/ord P_n")
    return [canonical_digest(doc), order]


def main():
    data = {
        "corpus": [corpus_entry(*case) for case in CORPUS],
        "digests": {str(n): digest_entry(n) for n in range(FAMILY_N_MAX + 1)},
    }
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
