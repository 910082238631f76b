"""Seeded workloads of the cselab benchmark: job lists, runners and oracles.

A workload turns a seed into a list of jobs made only of expression strings,
exact Fraction parameters, small ints and floats, so the same seed always
gives the same list.  Each job kind has three steps:

- ``prepare`` parses the strings once, during set-up;
- ``run`` makes the library calls of one job; it is the only timed step;
- ``check`` compares the result with an oracle that does not call the code
  under test (it reads the returned objects and committed reference data).

Importing this module imports ``cselab``, so the benchmark times the import.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cselab import (
    QuadratureConfig,
    central_exponent,
    compute_polygon,
    convergence_sweep,
    counterexample_record,
    fiber_integral_K,
    lct_polygon_estimate,
    parse_expression,
    semicontinuity_check,
    uniform_bound_check,
    verify_violation,
)
from cselab.reports import render_json

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Largest |K - K_ref|/K_ref a corpus job may have: about three times the
# largest error the default configuration makes on the corpus (3.1e-3).
CORPUS_REL_TOL = 1e-2
DEFAULT_CFG = QuadratureConfig()
TIGHT_TOL = 1e-5
TIGHT_CFG = QuadratureConfig(target_rel_tolerance=TIGHT_TOL)


@dataclass(frozen=True)
class Job:
    """One unit of work: a kind, its inputs and what the oracle expects."""

    kind: str
    params: tuple
    expect: tuple = ()


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def canonical_digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _exp_str(order: int) -> str:
    """The exponent 1/order as the library prints it ("infinity" for order 0)."""
    return "infinity" if order == 0 else str(Fraction(1, order))


# ---------------------------------------------------------------------------
# exact_families: counterexample_record + verify_violation + serialisation
# ---------------------------------------------------------------------------

FAMILY_N_MAX = 20
FAMILY_COPIES = 2       # 42 jobs, so the tail percentile has ten jobs beyond it
S_PRIMES = (31, 37, 41, 43, 47, 53, 59, 61)


def exact_families_jobs(seed: int, ref):
    """Every n in 0..FAMILY_N_MAX, FAMILY_COPIES times per pass, in seeded
    order, each with one positive rational s.  The jobs themselves are the
    same for every seed: a job's cost is erratic in s (at n = 10 it ranged
    over 83-116 ms for quotients of two-digit primes), so a seeded s would
    move the median job with the seed."""
    rng = random.Random(f"exact_families:{seed}")
    jobs = [Job("family", (n, (Fraction(S_PRIMES[(n + k) % len(S_PRIMES)],
                                        S_PRIMES[(n + k + 3) % len(S_PRIMES)]),)))
            for n in range(FAMILY_N_MAX + 1) for k in range(FAMILY_COPIES)]
    rng.shuffle(jobs)
    warmup = [Job("family", (0, (Fraction(1, 10), Fraction(1, 3))))]
    return jobs, warmup


def _prepare_family(job):
    return job.params


def _run_family(prepared):
    n, samples = prepared
    rec = counterexample_record(n)
    rep = verify_violation(rec, list(samples))
    return rep, render_json({"record": rec, "verification": rep})


def _check_family(job, result, ref):
    n, samples = job.params
    rep, text = result
    digest, order = ref["digests"][str(n)]
    doc = json.loads(text)
    if canonical_digest(doc["record"]) != digest:
        return f"n={n}: record digest differs from the reference"
    ver = doc["verification"]
    want = {
        "n": n,
        "identity_ok": True,
        "verdict": "violated",
        "fiber_order": order,
        "s_samples": [int(s) if s.denominator == 1 else _fmt_rational(s) for s in samples],
        "central_exponent": {"num": 1, "den": 2 * n + 1},
        "fiber_exponent": {"num": 1, "den": order},
    }
    for key, value in want.items():
        if ver.get(key) != value:
            return f"n={n}, s={samples}: verification {key}={ver.get(key)!r}, expected {value!r}"
    if not (rep.identity_ok and rep.violated and rep.fiber_order == order):
        return f"n={n}: report object disagrees with its serialisation"
    return None


# ---------------------------------------------------------------------------
# semicontinuity_scan: holomorphic germs built as products of known factors
# ---------------------------------------------------------------------------

# Factor kinds, with (x-axis order, y-axis order) of one factor:
#   L a      : y - a*x        fiber zeros x^2 = t/a
#   X a      : x - a*y        fiber zeros x^2 = a*t
#   C p q b  : y^p - b*x^q    fiber zeros x^(p+q) = t^p/b
#   D p q b  : x^p - b*y^q    fiber zeros x^(p+q) = b*t^q
#   U        : 1 + x + y      a unit: no zeros inside the polydisc
# A slot fixes the kinds and exponents of a germ's factors, so its degree is
# the same for every seed; the germs have degree 17, 20, 26 and 33.
GERM_SLOTS = (
    (("L", "sq", 4), ("X", "ns", 3), ("C", (2, 3), 2), ("D", (2, 3), 1), ("U", None, 1)),
    (("L", "sq", 2), ("L", "sq", 3), ("L", "ns", 4), ("C", (2, 3), 2), ("D", (3, 5), 1)),
    (("L", "ns", 5), ("X", "sq", 4), ("C", (3, 5), 2), ("D", (2, 3), 2), ("U", None, 1)),
    (("L", "sq", 4), ("L", "ns", 3), ("X", "ns", 2), ("C", (2, 3), 4), ("D", (3, 5), 2),
     ("U", None, 2)),
)
CLI_GERM_SLOT = (("L", "sq", 3), ("L", "ns", 2), ("C", (2, 3), 1), ("X", "sq", 2), ("U", None, 1))
# Coefficient magnitudes follow from a factor's place in its slot ("sq":
# squares, so t/a is a square and the zeros are exact; "ns": not squares),
# and every germ is evaluated at the same three t = 1/m^2.  The signs
# alternate along the slot, and the seed draws only the factor order and the
# job order.  Coefficient growth inside gcd and squarefree decomposition is
# erratic in the magnitudes, the signs and t (a germ's cost moved by up to
# 1.5x between magnitudes or between sign patterns), and the median job of a
# pass lies between two slots, so any of these drawn from the seed moved
# job_p50_ms with the seed (a quartile spread of 0.11 over ten seeds with
# random signs).
SQUARE_COEFFS = (Fraction(9, 4), Fraction(4, 9))
PLAIN_COEFFS = (Fraction(5, 2), Fraction(2, 5), Fraction(5, 3), Fraction(3, 5),
                Fraction(5, 4), Fraction(4, 5))
BINOMIAL_COEFFS = (Fraction(5, 2), Fraction(5, 3), Fraction(5, 4))
GERM_TS = (Fraction(1, 43 ** 2), Fraction(1, 61 ** 2), Fraction(1, 83 ** 2))
DELTA = 0.1                                   # semicontinuity_check default polydisc


def _term(coeff: Fraction, mono: str) -> str:
    sign = "-" if coeff > 0 else "+"
    mag = abs(coeff)
    return f"{sign} {mono}" if mag == 1 else f"{sign} {_fmt_rational(mag)}*{mono}"


def _pow(var: str, k: int) -> str:
    return var if k == 1 else f"{var}^{k}"


def _factor_text(f) -> str:
    kind = f[0]
    if kind == "L":
        return f"y {_term(f[1], 'x')}"
    if kind == "X":
        return f"x {_term(f[1], 'y')}"
    if kind == "C":
        _, p, q, b = f
        return f"{_pow('y', p)} {_term(b, _pow('x', q))}"
    if kind == "D":
        _, p, q, b = f
        return f"{_pow('x', p)} {_term(b, _pow('y', q))}"
    return "1 + x + y"


def _factor_orders(f):
    """(x-axis order, y-axis order, Newton edge (dx, dy)) of one factor."""
    kind = f[0]
    if kind in ("L", "X"):
        return 1, 1, (1, 1)
    if kind == "C":
        return f[2], f[1], (f[2], f[1])
    if kind == "D":
        return f[1], f[2], (f[1], f[2])
    return 0, 0, None


def _fiber_roots(f, t: Fraction):
    """Zeros of one factor on the fiber xy = t, as (degree k, w) with x^k = w."""
    kind = f[0]
    if kind == "L":
        return 2, t / f[1]
    if kind == "X":
        return 2, f[1] * t
    if kind == "C":
        _, p, q, b = f
        return p + q, t ** p / b
    if kind == "D":
        _, p, q, b = f
        return p + q, b * t ** q
    return None


def expected_zeros(factors, t: Fraction):
    """[(complex root, multiplicity)] of the germ on the fiber, from its factors."""
    out = []
    for f, e in factors:
        kw = _fiber_roots(f, t)
        if kw is None:
            continue
        k, w = kw
        r = abs(float(w)) ** (1.0 / k)
        phi = math.pi if w < 0 else 0.0
        out.extend((cmath.rect(r, (phi + 2 * math.pi * j) / k), e) for j in range(k))
    return out


def expected_polygon(factors):
    """Newton polygon vertices of the product: the Minkowski sum of the factors'
    polygons, ordered from the y-axis endpoint to the x-axis endpoint."""
    edges = {}
    k = l = 0
    for f, e in factors:
        ox, oy, edge = _factor_orders(f)
        k += e * ox
        l += e * oy
        if edge is not None:
            dx, dy = edge
            slope = Fraction(dy, dx)
            sx, sy = edges.get(slope, (0, 0))
            edges[slope] = (sx + e * dx, sy + e * dy)
    verts = [(0, l)]
    for slope in sorted(edges, reverse=True):   # steepest edge first
        dx, dy = edges[slope]
        x, y = verts[-1]
        verts.append((x + dx, y - dy))
    return k, l, tuple(verts)


def expected_estimate(verts) -> str:
    """min over the polygon's segments of (a+b)/N(a,b), clamped at 1."""
    best = Fraction(1)
    for (m1, n1), (m2, n2) in zip(verts, verts[1:]):
        a, b = n1 - n2, m2 - m1
        g = math.gcd(a, b)
        a, b = a // g, b // g
        best = min(best, Fraction(a + b, a * m1 + b * n1))
    return str(best)


def _draw_germ(rng, slot):
    """The factors of the germ of `slot`, in an order drawn from `rng`, and
    the t to evaluate it at.  The signs alternate along the slot."""
    factors = []
    for i, (kind, flavor, e) in enumerate(slot):
        sign = (-1) ** i
        if kind in ("L", "X"):
            mags = SQUARE_COEFFS if flavor == "sq" else PLAIN_COEFFS
            f = (kind, sign * mags[i % len(mags)])
        elif kind in ("C", "D"):
            f = (kind, flavor[0], flavor[1], sign * BINOMIAL_COEFFS[i % len(BINOMIAL_COEFFS)])
        else:
            f = ("U",)
        factors.append((f, e))
    if not (len({f for f, _ in factors}) == len(factors)
            and all(_zeros_separated(factors, t) for t in GERM_TS)):
        raise ValueError(f"slot {slot}: the fiber zeros of its germ are not separated")
    rng.shuffle(factors)
    return factors, GERM_TS


def _zeros_separated(factors, t):
    """The multiplicity oracle needs the factors' fiber zeros pairwise apart
    and inside the polydisc of radius DELTA with a margin."""
    roots = [z for z, _ in expected_zeros(factors, t)]
    for z in roots:
        if not (abs(z) <= 0.9 * DELTA and float(t) / abs(z) <= 0.9 * DELTA):
            return False
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if abs(a - b) <= 1e-6 * max(abs(a), abs(b)):
                return False
    return True


def semicontinuity_scan_jobs(seed: int, ref):
    rng = random.Random(f"semicontinuity_scan:{seed}")
    jobs = []
    for slot in GERM_SLOTS:
        factors, ts = _draw_germ(rng, slot)
        text = "*".join(f"({_factor_text(f)})" + (f"^{e}" if e > 1 else "")
                        for f, e in factors)
        k, l, verts = expected_polygon(factors)
        shape = (k, l, verts, expected_estimate(verts))
        for t in ts:
            jobs.append(Job("germ", (text, t), (shape, tuple(expected_zeros(factors, t)))))
    rng.shuffle(jobs)
    first = min(jobs, key=lambda j: len(j.params[0]))
    return jobs, [first]


def _prepare_germ(job):
    text, t = job.params
    return parse_expression(text), t


def _run_germ(prepared):
    f, t = prepared
    report = semicontinuity_check(f, [t])
    polygon = compute_polygon(f)
    return report, central_exponent(f, "min"), polygon.vertices, lct_polygon_estimate(f)


def _check_germ(job, result, ref):
    (k, l, verts, estimate), zeros = job.expect
    report, cmin, vertices, est = result
    if report.verdict != "holds" or not report.holomorphic:
        return f"{job.params}: verdict {report.verdict}, expected holds"
    got = (str(report.central_x), str(report.central_y), str(cmin), str(report.central_max))
    want = (_exp_str(k), _exp_str(l), _exp_str(max(k, l)), _exp_str(min(k, l)))
    if got != want:
        return f"{job.params}: central exponents {got}, expected {want}"
    if tuple(vertices) != verts:
        return f"{job.params}: polygon {vertices}, expected {verts}"
    if str(est) != estimate:
        return f"{job.params}: polygon estimate {est}, expected {estimate}"
    found = [(z.location_complex(), z.multiplicity, str(e)) for z, e in report.rows[0].zeros]
    if len(found) != len(zeros):
        return f"{job.params}: {len(found)} fiber zeros, expected {len(zeros)}"
    left = list(zeros)
    for loc, mult, exp in found:
        i = min(range(len(left)), key=lambda i: abs(left[i][0] - loc))
        root, want_mult = left.pop(i)
        if abs(root - loc) > 1e-7 * abs(root):
            return f"{job.params}: zero at {loc} matches no factor zero"
        if mult != want_mult or exp != _exp_str(want_mult):
            return f"{job.params}: zero {loc} has multiplicity {mult}, expected {want_mult}"
    return None


# ---------------------------------------------------------------------------
# fiber_integrals: K_t, sweeps and uniform bounds, plus the accuracy corpus
# ---------------------------------------------------------------------------

FIBER_FUNCTIONS = (      # (expression, c_0 = central exponent)
    ("y^2 - x^3", Fraction(1, 3)),
    ("x^2 - y^2", Fraction(1, 2)),
    ("(x + y)^2", Fraction(1, 2)),
    ("y^3 - x^5", Fraction(1, 5)),
    ("x + y", Fraction(1)),
)
CRITERION_05_TS = tuple([Fraction(1, 100) * Fraction(1, 4) ** j for j in range(7)]
                        + [Fraction(1, 10 ** 6)])
# Fixed sweeps with a known verdict: the cusp's "inconclusive" is the true
# answer (its ratio at t = 1e-6 is about 0.70, rate t^0.08); the line converges.
FIXED_SWEEPS = (
    ("y^2 - x^3", 0.3, 0.5, "inconclusive"),
    ("x + y", 0.5, 1.0, "converged"),
)


def _log_uniform_t(rng, lo_exp: float, hi_exp: float) -> Fraction:
    return Fraction(1, round(10 ** rng.uniform(lo_exp, hi_exp)))


def _c_in(rng, c0: Fraction, lo: float, hi: float) -> float:
    return round(float(c0) * rng.uniform(lo, hi), 4)


def fiber_integrals_jobs(seed: int, ref):
    rng = random.Random(f"fiber_integrals:{seed}")
    jobs = []
    # Narrow strata of log t and c / c_0 keep the cost of each job, and with
    # it the median job, nearly independent of the seed: the median falls
    # among the sweep and bound jobs, whose cost depends on t and c.
    for text, c0 in FIBER_FUNCTIONS:
        jobs.append(Job("K", (text, _log_uniform_t(rng, 4.9, 5.1), _c_in(rng, c0, 0.39, 0.41),
                              0.5, "default")))
        jobs.append(Job("K", (text, _log_uniform_t(rng, 2.9, 3.1), _c_in(rng, c0, 0.59, 0.61),
                              0.5, "default")))
        jobs.append(Job("K", (text, _log_uniform_t(rng, 3.9, 4.1), _c_in(rng, c0, 0.49, 0.51),
                              0.5, "tight")))
        start = _log_uniform_t(rng, 2.45, 2.55)
        ts = (start, start / 10, start / 100)
        jobs.append(Job("sweep", (text, _c_in(rng, c0, 0.49, 0.51), 0.5, ts), ("",)))
        jobs.append(Job("bound", (text, _c_in(rng, c0, 0.49, 0.51), 0.5, ts)))
    for text, c, radius, verdict in FIXED_SWEEPS:
        jobs.append(Job("sweep", (text, c, radius, CRITERION_05_TS), (verdict,)))
    for case in ref["corpus"]:
        for config in ("default", "tight"):
            jobs.append(Job("corpus", (case["f"], Fraction(case["t"]), case["c"],
                                       case["R"], config), (case["K_ref"],)))
    rng.shuffle(jobs)
    warmup = [Job("K", ("y^2 - x^3", Fraction(1, 100), 0.2, 0.5, "default")),
              Job("sweep", ("x + y", 0.5, 1.0, (Fraction(1, 100), Fraction(1, 1000))), ("",)),
              Job("bound", ("x + y", 0.5, 1.0, (Fraction(1, 100), Fraction(1, 1000))))]
    return jobs, warmup


_CONFIGS = {"default": DEFAULT_CFG, "tight": TIGHT_CFG}


def _prepare_fiber(job):
    return (parse_expression(job.params[0]),) + tuple(job.params[1:])


def _run_K(prepared):
    f, t, c, radius, config = prepared
    return fiber_integral_K(f, t, c, radius, _CONFIGS[config])


def _run_sweep(prepared):
    f, c, radius, ts = prepared
    return convergence_sweep(f, c, radius, list(ts), DEFAULT_CFG)


def _run_bound(prepared):
    f, c, radius, ts = prepared
    return uniform_bound_check(f, c, radius, list(ts), DEFAULT_CFG)


def _finite_positive(*values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _check_corpus(job, result, ref):
    """As _check_K, and K within CORPUS_REL_TOL of the committed reference."""
    msg = _check_K(job, result, ref)
    if msg:
        return msg
    (k_ref,) = job.expect
    err = abs(result.k_report.value - k_ref) / k_ref
    if err > CORPUS_REL_TOL:
        return f"{job.params}: |K - K_ref|/K_ref = {err:.3g} exceeds {CORPUS_REL_TOL:g}"
    return None


def _check_K(job, result, ref):
    # c < c_0 makes every K_t finite (the stability hypothesis), and the
    # x-chart weights satisfy K = I + J on the shared grid.
    k, i, j = result.k_report, result.i_report, result.j_report
    if k.divergent or not _finite_positive(k.value, i.value, j.value):
        return f"{job.params}: K={k.value}, I={i.value}, J={j.value}; expected finite"
    if abs(k.value - (i.value + j.value)) > 1e-6 * k.value:
        return f"{job.params}: K - (I + J) = {k.value - i.value - j.value}"
    if not math.isfinite(k.error_estimate):
        return f"{job.params}: error estimate {k.error_estimate}"
    return None


def _check_sweep(job, result, ref):
    (verdict,) = job.expect
    if not _finite_positive(result.k0):
        return f"{job.params}: K_0={result.k0}; expected finite"
    for row in result.rows:
        if not _finite_positive(row.k_t, row.ratio):
            return f"{job.params}: row t={row.t} K_t={row.k_t}; expected finite"
    if result.verdict not in ("converged", "inconclusive"):
        return f"{job.params}: verdict {result.verdict}"
    if verdict and result.verdict != verdict:
        return f"{job.params}: verdict {result.verdict}, expected {verdict}"
    return None


def _check_bound(job, result, ref):
    if not _finite_positive(result.bound):
        return f"{job.params}: bound {result.bound}; expected finite"
    if result.growth_flag:
        return f"{job.params}: growth flagged for c < c_0, where K_t is bounded"
    return None


def corpus_stats(jobs, results):
    """Accuracy of the corpus jobs against the committed reference values.

    Returns (k_rel_err_max, err_bar_miss, cells_per_digit, cases): the largest
    |K - K_ref|/K_ref, the share of cases whose error estimate is below the
    true error, and cells used per correct digit (cells / -log10(rel err)).
    """
    errs, misses, cells, digits = [], 0, 0, 0.0
    for job, res in zip(jobs, results):
        if job.kind != "corpus" or isinstance(res, JobFailure):
            continue
        (k_ref,) = job.expect
        k = res.k_report
        true_err = abs(k.value - k_ref)
        errs.append(true_err / k_ref)
        misses += k.error_estimate < true_err
        cells += k.cells_used
        digits += -math.log10(max(true_err / k_ref, 1e-16))
    if not errs:
        return 0.0, 0.0, 0.0, 0
    return max(errs), misses / len(errs), cells / digits, len(errs)


# ---------------------------------------------------------------------------
# cli_batch: the seven subcommands as subprocesses
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("cusp", "node", "tacnode", "smooth", "ord-3", "x^2+y^3", "x^3+y^4")


def cli_batch_jobs(seed: int, ref):
    """One call of each subcommand on small seeded inputs of fixed size; the
    seeded parameters lie in narrow ranges, so a job's cost hardly depends
    on the seed."""
    rng = random.Random(f"cli_batch:{seed}")
    factors, _ = _draw_germ(rng, CLI_GERM_SLOT)
    germ = "*".join(f"({_factor_text(f)})" + (f"^{e}" if e > 1 else "") for f, e in factors)
    s = Fraction(rng.randint(10, 30), rng.randint(10, 30))
    argvs = [
        ["exponent", "--f", germ, "--t", f"1/{rng.randint(20, 40) ** 2}",
         "--t", f"1/{rng.randint(60, 90) ** 2}"],
        ["lct", "--name", rng.choice(CATALOG_NAMES)],
        ["polygon", "--f", germ],
        ["sweep", "--f", "y^2 - x^3", "--c", str(_c_in(rng, Fraction(1, 3), 0.45, 0.55)),
         "--R", "0.5", "--t-start", "1/100", "--t-ratio", "1/4", "--t-count", "3",
         "--format", "csv"],
        ["bound", "--f", "x^2 - y^2", "--c", str(_c_in(rng, Fraction(1, 2), 0.28, 0.32)),
         "--R", "0.5", "--t", "1/100", "--t", "1/400", "--t", "1/1600",
         "--factor", "x + y", "--factor", "x - y"],
        ["counterexample", "--n", "2", "--s", _fmt_rational(s)],
        ["probe", "--kind", "multiplicity", "--f", "(x + y)^2", "--t", "1/1000",
         "--c", str(round(rng.uniform(0.14, 0.16), 3))],
    ]
    jobs = [Job("cli", tuple(a)) for a in argvs]
    rng.shuffle(jobs)
    return jobs, [Job("cli", ("lct", "--name", "cusp"))]


def cli_env() -> dict:
    """The CLI subprocess environment: this one (with its BLAS thread pins)
    plus the checkout's sources on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _prepare_cli(job):
    """The oracle: the same argv through cselab.cli.main in this process."""
    from cselab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(job.params))
    return list(job.params), cli_env(), (code, out.getvalue())


@dataclass(frozen=True)
class CliResult:
    expected: tuple     # (exit code, stdout) of the in-process run
    code: int
    out: str
    err: str
    max_rss_kb: int


def _run_cli(prepared):
    argv, env, expected = prepared
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "cli-stderr.txt", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cselab.cli", *argv], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        err_text = err.read().decode("utf-8", "replace")
    return CliResult(expected, proc.returncode, out.decode("utf-8"), err_text, usage.ru_maxrss)


def _check_cli(job, result, ref):
    want_code, want_out = result.expected
    if result.code != want_code:
        return (f"cselab {' '.join(job.params)}: exit {result.code}, in-process {want_code}: "
                f"{result.err[-300:]}")
    if result.out != want_out:
        return f"cselab {' '.join(job.params)}: output differs from the in-process result"
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class JobFailure:
    """A job that raised; it counts as failed."""

    def __init__(self, message: str):
        self.message = message


KINDS = {   # kind -> (prepare, run, check)
    "family": (_prepare_family, _run_family, _check_family),
    "germ": (_prepare_germ, _run_germ, _check_germ),
    "K": (_prepare_fiber, _run_K, _check_K),
    "corpus": (_prepare_fiber, _run_K, _check_corpus),
    "sweep": (_prepare_fiber, _run_sweep, _check_sweep),
    "bound": (_prepare_fiber, _run_bound, _check_bound),
    "cli": (_prepare_cli, _run_cli, _check_cli),
}

WORKLOADS = {
    "exact_families": exact_families_jobs,
    "semicontinuity_scan": semicontinuity_scan_jobs,
    "fiber_integrals": fiber_integrals_jobs,
    "cli_batch": cli_batch_jobs,
}


def check(job, result, ref):
    """None when the result passes its oracle, else a failure message."""
    if isinstance(result, JobFailure):
        return result.message
    return KINDS[job.kind][2](job, result, ref)
