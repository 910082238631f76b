"""Golden artifacts: the exact bytes of pinned CLI invocations and library reports.

The determinism tests compare the CLI with itself; these compare it with
files committed under tests/golden/, so any drift in an artifact shows.
Every report type that reaches JSON, CSV or plot data has a golden here,
and every JSON artifact must parse as strict JSON (RFC 8259).
Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cselab.cli import main
from cselab.expressions import parse_expression
from cselab.quadrature import QuadratureConfig, fiber_integral_K
from cselab.reports import render_json

GOLDEN_DIR = Path(__file__).with_name("golden")

SMALL_SWEEP = ["sweep", "--f", "x+y", "--c", "0.5", "--R", "1", "--t-count", "2",
               "--angular-cells", "16", "--radial-cells", "6"]

CASES = {
    # every zero of the node's fiber is an exact Gaussian rational
    "exponent_node_exact": ["exponent", "--f", "x^2 - y^2", "--t", "1/10000"],
    # the cusp's fiber zeros have exact multiplicities but numeric locations
    "exponent_cusp_numeric": ["exponent", "--f", "y^2-x^3", "--t", "1e-4"],
    # a radial fiber: the constant c*s^nu joins the Laurent numerator
    "exponent_radial_diagonal": ["exponent", "--f", "x + y - 2*abs(x*y)^(1/2)",
                                 "--t", "1/100", "--t", "1/10000"],
    "lct_cusp": ["lct", "--name", "cusp"],
    "polygon_cusp": ["polygon", "--f", "y^2-x^3"],
    "counterexample_n2": ["counterexample", "--n", "2", "--s", "3/7"],
    "counterexample_n0_3": ["counterexample", "--n-min", "0", "--n-max", "3"],
    "sweep_line_csv": SMALL_SWEEP + ["--format", "csv"],
    "sweep_line_json": SMALL_SWEEP + ["--format", "json"],
    "sweep_line_plot": SMALL_SWEEP + ["--format", "plot-data"],
    "bound_node_young": ["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5",
                         "--t", "1/100", "--t", "1/400",
                         "--angular-cells", "16", "--radial-cells", "6",
                         "--factor", "x+y", "--factor", "x-y"],
    "probe_holder_n1": ["probe", "--kind", "holder", "--n", "1"],
    "probe_multiplicity_double_line": ["probe", "--kind", "multiplicity",
                                       "--f", "(x+y)^2", "--t", "1/1000",
                                       "--c", "0.2"],
}


def run_stdout(argv, expect_code=0) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == expect_code
    return buf.getvalue().encode("utf-8")


def cusp_k_json(t) -> bytes:
    """The library JSON of a KReport (no subcommand prints one)."""
    cfg = QuadratureConfig(radial_cells_per_decade=6, angular_cells=16)
    rep = fiber_integral_K(parse_expression("y^2-x^3"), t, 0.2, 0.5, cfg)
    return render_json(rep).encode("utf-8")


ARTIFACTS = {name: (run_stdout, argv) for name, argv in CASES.items()}
ARTIFACTS["K_cusp_t1e-3"] = (cusp_k_json, Fraction(1, 1000))
ARTIFACTS["K_cusp_t0"] = (cusp_k_json, 0)


def produce(name) -> bytes:
    fn, arg = ARTIFACTS[name]
    return fn(arg)


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity (RFC 8259)."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert produce(name) == expected


@pytest.mark.parametrize("name", sorted(set(ARTIFACTS) - {"sweep_line_csv",
                                                         "sweep_line_plot"}))
def test_json_golden_is_strict(name):
    strict_loads((GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8"))


# integrals no refinement resolves: beyond |x| ~ 1e154, r^2 overflows
UNRESOLVED_BOUND = ["bound", "--f", "x+y", "--c", "0.5", "--R", "1e300",
                    "--t", "1/100"]
UNRESOLVED_SWEEP = ["sweep", "--f", "x+y", "--c", "0.5", "--R", "1e200",
                    "--t-count", "2", "--format", "json"]


def test_bound_on_an_unresolved_integral_is_flagged():
    data = strict_loads(run_stdout(UNRESOLVED_BOUND, expect_code=2))
    (row,) = data["bound"]["rows"]
    (flag,) = row["flags"]
    assert flag.startswith("unresolved-singular-cell:")


def test_sweep_with_unresolved_rows_keeps_the_exact_k0():
    # K_0 of the line is the closed form 4 pi R (both axes monomial, c = 1/2);
    # the rows are not resolved, and that still reaches the exit code
    data = strict_loads(run_stdout(UNRESOLVED_SWEEP, expect_code=2))
    assert data["K0"] == pytest.approx(4 * math.pi * 1e200, rel=1e-11)
    assert data["K0_flags"] == []
    for row in data["rows"]:
        (flag,) = row["flags"]
        assert flag.startswith("unresolved-singular-cell:")
    assert data["verdict"] == "inconclusive"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(ARTIFACTS):
        (GOLDEN_DIR / f"{name}.out").write_bytes(produce(name))
        print(f"wrote {name}.out", file=sys.stderr)
