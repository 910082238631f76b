"""Tests of the benchmark itself: seeding, oracles, tail choice, span arithmetic.

    python3 -m pytest bench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

REF = wl.load_reference()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_same_job_list(name):
    gen = wl.WORKLOADS[name]
    assert gen(7, REF) == gen(7, REF)
    assert gen(7, REF)[0] != gen(8, REF)[0]


def _one_pass(jobs):
    prepared = [wl.KINDS[job.kind][0](job) for job in jobs]
    passes = run.run_passes(wl, REF, jobs, prepared, 0.0, run.Passes())
    return run.error_rate(len(passes.failures), passes.attempted)


def test_planted_wrong_answer_raises_error_rate(monkeypatch):
    jobs = [wl.Job("K", ("y^2 - x^3", Fraction(1, 100), 0.2, 0.5, "default")),
            wl.Job("K", ("x + y", Fraction(1, 1000), 0.5, 1.0, "default"))]
    assert _one_pass(jobs) == 0.0

    real = wl.fiber_integral_K

    def planted(f, t, c, radius, config=None):
        rep = real(f, t, c, radius, config)
        rep.k_report.value *= 1.01          # K no longer equals I + J
        return rep

    monkeypatch.setattr(wl, "fiber_integral_K", planted)
    assert _one_pass(jobs) == 1.0


def test_raising_job_counts_as_failed(monkeypatch):
    def broken(*args):
        raise ArithmeticError("planted")

    monkeypatch.setattr(wl, "fiber_integral_K", broken)
    jobs = [wl.Job("K", ("x + y", Fraction(1, 1000), 0.5, 1.0, "default"))]
    assert _one_pass(jobs) == 1.0


def test_germ_oracle_rejects_a_wrong_multiplicity():
    jobs, _ = wl.semicontinuity_scan_jobs(3, REF)
    job = min(jobs, key=lambda j: len(j.params[0]))
    result = wl.KINDS["germ"][1](wl.KINDS["germ"][0](job))
    assert wl.check(job, result, REF) is None
    shape, zeros = job.expect
    wrong = wl.Job(job.kind, job.params, (shape, ((zeros[0][0], zeros[0][1] + 1),) + zeros[1:]))
    assert "multiplicity" in wl.check(wrong, result, REF)


def test_expected_polygon_of_a_product():
    # (y - x)^2 (y^2 - 2x^3): edges (2, 2) of slope 1, then (3, 2) of slope 2/3
    factors = [(("L", Fraction(1)), 2), (("C", 2, 3, Fraction(2)), 1)]
    assert wl.expected_polygon(factors) == (5, 4, ((0, 4), (2, 2), (5, 0)))
    assert wl.expected_estimate(((0, 4), (2, 2), (5, 0))) == "1/2"


@pytest.mark.parametrize("n, percentile, beyond", [
    (19, 100.0, 0), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (99, 75.0, 24),
    (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (999, 95.0, 49),
    (1000, 99.0, 10), (10000, 99.9, 10)])
def test_tail_percentile_choice(n, percentile, beyond):
    values = list(range(n, 0, -1))
    pct, value, count = run.tail_percentile(values)
    assert (pct, count) == (percentile, beyond)
    assert value == n - beyond          # nearest rank of 1..n


@pytest.mark.parametrize("kernel", [run.DEFAULT_KERNEL, run.KERNELS["cli_batch"]])
@pytest.mark.parametrize("jobs", [7, 12, 21, 42, 49])
def test_reported_tail_job_does_not_depend_on_the_pass_count(jobs, kernel):
    # job i takes i + 1 units on a host that a pass-dependent factor slows,
    # and the calibration kernel timed before each job shows that factor
    reported = set()
    for n_passes in (1, 3, 4, 5, 7, 12):
        passes = run.Passes(kernel)
        slow = [[1.0 + 0.1 * (p % 3)] * jobs for p in range(n_passes)]
        passes.latencies = [[(i + 1) * f for i, f in enumerate(fs)] for fs in slow]
        passes.kernels = [[passes.reference * f for f in fs + fs[-1:]] for fs in slow]
        pct, value, beyond = passes.tail()
        assert beyond == jobs - round(value)    # counts jobs, not job runs
        reported.add((pct, round(value, 9)))
    assert len(reported) == 1


def test_corpus_oracle_compares_K_with_the_reference():
    case = REF["corpus"][0]
    params = (case["f"], Fraction(case["t"]), case["c"], case["R"], "default")
    job = wl.Job("corpus", params, (case["K_ref"],))
    result = wl.KINDS["corpus"][1](wl.KINDS["corpus"][0](job))
    assert wl.check(job, result, REF) is None
    # the same K against a reference it misses by 2%
    off = wl.Job("corpus", params, (result.k_report.value * 1.02,))
    assert "K_ref" in wl.check(off, result, REF)


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, None]


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        _span("m.a", 0.0, 10.0, -1),     # 0
        _span("m.b", 1.0, 4.0, 0),       # 1
        _span("n.c", 5.0, 9.0, 0),       # 2
        _span("m.d", 6.0, 8.0, 2),       # 3
        _span("m.a", 12.0, 13.0, -1, job=1),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert tracing.covered(spans, {"m.b", "m.d"}) == 5.0
    assert tracing.covered(spans, {"m.a", "m.d"}) == 11.0
    # time in module m below m.a, not counting the n.c call (nor m.d under it)
    assert tracing.module_self(spans, "m.a") == 3.0 + 3.0 + 1.0
    assert [s[3] for s in tracing.subset(spans, lambda s: s[4] == 0)] == [-1, 0, 0, 2]
    assert [s[3] for s in tracing.subset(spans, lambda s: s[4] == 1)] == [-1]


def test_tracer_records_rebound_names_and_restores_them():
    import cselab.quadrature as quadrature

    original = quadrature.fiber_zeros
    prepared = wl.KINDS["K"][0](wl.Job("K", ("y^2 - x^3", Fraction(1, 100), 0.2, 0.5, "default")))
    tracer = tracing.Tracer()
    tracer.install(also=(wl,))
    try:
        tracer.job = 0
        wl.KINDS["K"][1](prepared)
    finally:
        tracer.uninstall()
    assert quadrature.fiber_zeros is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "quadrature.fiber_integral_K"
    k = tracer.spans[0]
    zeros = [s for s in tracer.spans if s[tracing.NAME] == "degeneration.fiber_zeros"]
    assert zeros and all(s[tracing.PARENT] == 0 for s in zeros)
    assert k[tracing.ATTRS]["cells"] > 0 and tracer.ops > 0
    metrics = tracing.layer_metrics(tracer.spans, tracer.ops, 1, k[2] - k[1])
    assert metrics["quadrature.K_calls"] == 1
    assert 0 < metrics["quadrature.K_ms"] < 1000 * (k[2] - k[1])


def test_layer_map_matches_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "bench" / "layers.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(layers)
    computed = set(tracing.layer_metrics([], 0, 1, 1.0)) | {
        "accuracy.k_rel_err_max", "accuracy.err_bar_miss", "quadrature.cells_per_digit",
        "cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.startup_share",
        "trace.overhead_s"}
    assert set(names) == computed
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
