"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances and time budgets are pinned here; nothing is deferred to later
calibration.  Criterion 5's first half (the cusp sweep at c = 0.3) encodes
the stated band [0.95, 1.05] at t = 1e-6 verbatim; see the assertion message
for the measured value if it reports red.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from cselab import (
    Annulus,
    BivariatePoly,
    Exponent,
    GaussianRational,
    MixedFunction,
    QuadratureConfig,
    UnivariatePoly,
    annulus_integral,
    builtin_catalog,
    convergence_sweep,
    counterexample_record,
    decompose_I,
    exponent_probe_1d,
    fiber_integral_K,
    format_function,
    holder_probe,
    lct_from_resolution,
    lct_polygon_estimate,
    parse_expression,
    semicontinuity_check,
    substitute_fiber,
    uniform_bound_check,
    vanishing_order,
    verify_violation,
    wn_generator,
    young_combine,
)
from cselab.cli import main
from cselab.degeneration import central_exponent
from cselab.quadrature import TREND_SLACK

from test_counterexamples import derivative_condition_matrix, in_span, rref_nullspace

X = BivariatePoly.variable("x")
Y = BivariatePoly.variable("y")


def report(num, ok, detail=""):
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_criterion_01_diagonal_family_exact_reproduction(tmp_path, capsys):
    """counterexample --n 0: the x+y-2|xy|^(1/2) family, exponents 1 vs 1/2."""
    out = tmp_path / "c1.json"
    with Timer() as tm:
        code = main(["counterexample", "--n", "0",
                     "--s", "1/10", "--s", "1/7", "--s", "1/3",
                     "--out", str(out)])
    data = json.loads(out.read_text())
    rec = data["records"][0]
    family = parse_expression(rec["family"])
    expected = MixedFunction(X + Y, -2, 1)
    ok = (code == 0
          and family == expected
          and rec["central_exponent"] == {"num": 1, "den": 1}
          and rec["fiber_exponent_at_diagonal"] == {"num": 1, "den": 2}
          and rec["verification"]["verdict"] == "violated"
          and rec["verification"]["identity_ok"] is True
          and tm.elapsed < 1.0)
    assert report(1, ok, f"{tm.elapsed:.3f}s"), rec


def test_criterion_02_families_up_to_five():
    """Witnesses with nonzero extremes and exact violation checks for n = 0..5, under 30 s."""
    s_samples = [Fraction(1, 10), Fraction(1, 7), Fraction(1, 3)]
    with Timer() as tm:
        results = []
        for n in range(6):
            witness = wn_generator(n)
            found = (not witness.coefficient(0).is_zero()
                     and not witness.coefficient(4 * n + 2).is_zero())
            rec = counterexample_record(n)
            rep = verify_violation(rec, s_samples)
            results.append(
                found
                and rep.identity_ok
                and rep.violated
                and rep.central == Exponent(Fraction(1, 2 * n + 1))
                and rep.fiber <= Exponent(Fraction(1, 2 * n + 2)))
    ok = all(results) and tm.elapsed < 30.0
    assert report(2, ok, f"{tm.elapsed:.2f}s, n=0..5"), results


def test_criterion_03_kernel_golden_with_independent_oracle():
    """W_1 is one-dimensional, spanned by z^6-9z^4+16z^3-9z^2+1, order 4."""
    golden = UnivariatePoly([1, 0, -9, 16, -9, 0, 1])
    mat = derivative_condition_matrix(1)
    oracle = rref_nullspace(mat)                      # independent route
    generator = wn_generator(1)                       # closed form
    golden_coords = [Fraction(v) for v in [1, -9, -9, 1, 16]]  # V_1 basis order
    ok = (len(oracle) == 1
          and generator == golden
          and in_span(golden_coords, oracle)
          and vanishing_order(golden, 1) == 4)
    assert report(3, ok)


def test_criterion_04_semicontinuity_corpus():
    """Holomorphic corpus verdict 'holds' at t = 1e-2 .. 1e-5, under 60 s."""
    corpus = [X + Y, Y * Y - X ** 3, Y * Y - X ** 5, (X + Y) ** 2,
              X + Y + X * X, X * X - Y * Y]
    samples = [Fraction(1, 10 ** k) for k in range(2, 6)]
    with Timer() as tm:
        oks = []
        for f in corpus:
            rep = semicontinuity_check(f, samples, delta=0.1)
            per_zero = all(
                rep.central_max <= e for row in rep.rows for _, e in row.zeros)
            oks.append(rep.verdict == "holds" and per_zero)
    ok = all(oks) and tm.elapsed < 60.0
    assert report(4, ok, f"{tm.elapsed:.2f}s"), oks


def _stability_sweep(f, c, radius, cfg):
    # geometric decay from 1e-2, with the exact 1e-6 endpoint appended
    ts = [Fraction(1, 100) * Fraction(1, 4) ** j for j in range(7)]
    ts.append(Fraction(1, 10 ** 6))
    return convergence_sweep(f, c, radius, ts, cfg)


def test_criterion_05_integral_stability_bands():
    """K_t/K_0 band [0.95, 1.05] at t = 1e-6 with a monotone trend."""
    cfg = QuadratureConfig()
    with Timer() as tm:
        cusp = _stability_sweep(Y * Y - X ** 3, 0.3, 0.5, cfg)
        line = _stability_sweep(X + Y, 0.5, 1.0, cfg)
    results = {}
    for name, rep in (("cusp", cusp), ("line", line)):
        devs = [abs(r.ratio - 1.0) for r in rep.rows]
        slack = TREND_SLACK + 2 * max(r.err for r in rep.rows) / rep.k0
        monotone = all(b <= a + slack for a, b in zip(devs, devs[1:]))
        final = rep.rows[-1].ratio
        results[name] = (0.95 <= final <= 1.05, monotone, final)
    ok = (all(band and mono for band, mono, _ in results.values())
          and tm.elapsed < 300.0)
    assert report(
        5, ok,
        f"{tm.elapsed:.1f}s; final ratios: cusp {results['cusp'][2]:.4f}, "
        f"line {results['line'][2]:.4f}"), results


def test_criterion_06_volume_splitting_identity_and_decomposition():
    """K = I + J to 1e-6 on shared grids; three-annulus partition checks."""
    cfg = QuadratureConfig()
    with Timer() as tm:
        identity_ok = True
        for f, c in [(X + Y, 0.4), (Y * Y - X ** 3, 0.25), (X * X - Y * Y, 0.2)]:
            for t in [Fraction(1, 100), Fraction(1, 10 ** 3), Fraction(1, 10 ** 4)]:
                kr = fiber_integral_K(f, t, c, 0.5, cfg)
                identity_ok &= kr.identity_residual <= 1e-6

        # partition of I_t for the line, R1 = 5: sums match, sides decay
        partition_ok = True
        i1s, i3s, totals = [], [], []
        for j in range(6):
            t = Fraction(1, 100) * Fraction(1, 4) ** j
            i1, i2, i3 = decompose_I(X + Y, t, 0.5, 1.0, 5.0, cfg)
            fib = substitute_fiber(X + Y, t)
            whole = annulus_integral(fib, 0.5, Annulus(float(t), 1.0), config=cfg)
            budget = whole.error_estimate + i1.error_estimate \
                + i2.error_estimate + i3.error_estimate
            total = i1.value + i2.value + i3.value
            partition_ok &= abs(total - whole.value) <= budget
            i1s.append(i1.value)
            i3s.append(i3.value)
            totals.append(total)
        decay_ok = (all(b < a for a, b in zip(i1s, i1s[1:]))
                    and all(b < a for a, b in zip(i3s, i3s[1:]))
                    and i1s[-1] < 0.1 * totals[-1]
                    and i3s[-1] < 0.1 * totals[-1])
    ok = identity_ok and partition_ok and decay_ok
    assert report(6, ok, f"{tm.elapsed:.1f}s"), (identity_ok, partition_ok,
                                                 decay_ok)


def test_criterion_07_uniform_bound_and_young_combination():
    """Sampled sup of K_t for x^2-y^2 at c=0.2 is finite, no growth, and
    bounded by the combined factor bounds at exponents c*l/l_i."""
    # the Young margin at the binding sample is ~3.5e-4, so the quadrature
    # error must sit well below it
    cfg = QuadratureConfig(target_rel_tolerance=1e-5,
                           radial_cells_per_decade=12, angular_cells=48)
    ts = [Fraction(1, 100) * Fraction(1, 4) ** j for j in range(8)]
    ts.append(Fraction(1, 10 ** 6))
    c = 0.2
    with Timer() as tm:
        product = uniform_bound_check(X * X - Y * Y, c, 0.5, ts, cfg)
        # factors x+y and x-y have central order 1 each, so l = 2 and the
        # factor exponents are c * l / l_i = 0.4
        b_plus = uniform_bound_check(X + Y, 0.4, 0.5, ts, cfg)
        b_minus = uniform_bound_check(X - Y, 0.4, 0.5, ts, cfg)
        combined = young_combine([(1, b_plus.bound), (1, b_minus.bound)])
    ok = (math.isfinite(product.bound)
          and not product.growth_flag
          and product.bound <= combined
          and tm.elapsed < 300.0)
    assert report(
        7, ok, f"{tm.elapsed:.1f}s; M={product.bound:.6f} <= "
               f"combined={combined:.6f}"), (product.bound, combined)


def test_criterion_08_resolution_formula_cross_check():
    """Catalog thresholds match the polygon estimate exactly, under 1 s."""
    with Timer() as tm:
        entries = builtin_catalog()
        checks = []
        # named expectations, rederived: smooth 1, ord-m 1/m, cusp 5/6
        expected = {"smooth": Fraction(1), "cusp": Fraction(5, 6),
                    "node": Fraction(1), "tacnode": Fraction(3, 4)}
        for m in range(2, 6):
            expected[f"ord-{m}"] = Fraction(1, m)
        for a in range(2, 6):
            for b in range(2, 6):
                expected[f"x^{a}+y^{b}"] = min(
                    Fraction(1), Fraction(1, a) + Fraction(1, b))
        for name, entry in entries.items():
            res = lct_from_resolution(entry.divisors, entry.is_log_resolution)
            est = lct_polygon_estimate(parse_expression(entry.curve))
            checks.append(res.value == est == Exponent(expected[name]))
    ok = all(checks) and len(entries) == len(expected) and tm.elapsed < 1.0
    assert report(8, ok, f"{tm.elapsed:.3f}s, {len(entries)} entries")


def test_criterion_09_numeric_probes():
    """Multiplicity probes within 5 percent; Hoelder probes 0.5 +- 0.05."""
    cfg = QuadratureConfig()
    one = GaussianRational(1)
    with Timer() as tm:
        mult_ok = True
        for m, c in [(1, 0.4), (2, 0.3), (3, 0.3)]:
            f = UnivariatePoly([-one, one]) ** m
            (res,) = exponent_probe_1d(f, [1.0], c, cfg)
            mult_ok &= abs(res.multiplicity_estimate - m) <= 0.05 * m
        holder_ok = True
        for n in (0, 1):
            hp = holder_probe(n)
            holder_ok &= abs(hp.estimate - 0.5) <= 0.05
    ok = mult_ok and holder_ok and tm.elapsed < 30.0
    assert report(9, ok, f"{tm.elapsed:.2f}s")


def test_criterion_10_round_trip_and_deterministic_reruns(tmp_path):
    """50-expression round trip; byte-identical reruns of every subcommand."""
    from test_expressions import corpus

    round_trip_ok = True
    texts = corpus()
    assert len(texts) == 50
    for text in texts:
        obj = parse_expression(text)
        printed = format_function(obj)
        round_trip_ok &= parse_expression(printed) == obj

    cases = [
        ["exponent", "--f", "y^2-x^3", "--t", "1e-3"],
        ["lct"],
        ["polygon", "--f", "x*y + x^3 + y^3"],
        ["sweep", "--f", "x+y", "--c", "0.5", "--R", "1", "--t-count", "2",
         "--angular-cells", "16", "--radial-cells", "6", "--format", "csv"],
        ["bound", "--f", "x^2-y^2", "--c", "0.2", "--R", "0.5",
         "--t", "1/100", "--t", "1/400",
         "--angular-cells", "16", "--radial-cells", "6"],
        ["counterexample", "--n-min", "0", "--n-max", "1"],
        ["probe", "--kind", "holder", "--n", "0"],
    ]
    determinism_ok = True
    for idx, args in enumerate(cases):
        p1 = tmp_path / f"run{idx}a.out"
        p2 = tmp_path / f"run{idx}b.out"
        c1 = main(args + ["--out", str(p1)])
        c2 = main(args + ["--out", str(p2)])
        determinism_ok &= (c1 == c2
                           and p1.read_bytes() == p2.read_bytes()
                           and len(p1.read_bytes()) > 0)
    ok = round_trip_ok and determinism_ok
    assert report(10, ok), (round_trip_ok, determinism_ok)
