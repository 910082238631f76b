"""Golden artifacts: the exact stdout bytes of pinned CLI invocations.

The determinism tests compare the CLI with itself; these compare it with
files committed under tests/golden/, so any drift in an artifact shows.
Regenerate the files (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cselab.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

CASES = {
    # every zero of the node's fiber is an exact Gaussian rational
    "exponent_node_exact": ["exponent", "--f", "x^2 - y^2", "--t", "1/10000"],
    # the cusp's fiber zeros have exact multiplicities but numeric locations
    "exponent_cusp_numeric": ["exponent", "--f", "y^2-x^3", "--t", "1e-4"],
    "lct_cusp": ["lct", "--name", "cusp"],
    "polygon_cusp": ["polygon", "--f", "y^2-x^3"],
    "counterexample_n2": ["counterexample", "--n", "2", "--s", "3/7"],
}


def run_stdout(argv) -> bytes:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert run_stdout(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN_DIR / f"{name}.out").write_bytes(run_stdout(argv))
        print(f"wrote {name}.out", file=sys.stderr)
