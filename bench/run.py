"""The cselab benchmark: one closed-loop client per workload.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

A single client sends each job only after the previous one returns.  A run
sets up (imports cselab, builds the seeded job list, runs a few small
warm-up jobs, parses the inputs), repeats passes over the job list until
``--seconds`` have elapsed, checks every result against its oracle, and
prints each metric by name and unit.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The exit code is 1 when any oracle failed.

End-to-end loop times take each job's median latency over the passes, in
units of the workload's calibration kernel, timed around every job (see
Passes); the raw figures are printed beside them.  setup_s is the median of
SETUP_SAMPLES set-ups, all but the first in fresh interpreters; on the
workloads in SETUP_SCALED each is scaled by the Fraction kernel time taken
just before it in the same process.

``--trace 1`` spends the first half of the time untraced and the second half
with every public cselab function wrapped in a span recorder (see
tracing.py); the difference of the two halves' pass times is the tracing
overhead.  Spans are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_KERNEL_REPEATS = 3
# Scaling cut the spread of setup_s (imports and parsing) from 0.20-0.30 to
# 0.12-0.22 on the first three, but raised it from 0.06 to 0.27 on
# cli_batch, whose set-up is dominated by its warm-up CLI subprocess.
SETUP_SCALED = ("exact_families", "semicontinuity_scan", "fiber_integrals")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
# percentiles in tenths of a percent, highest first
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(values):
    """(percentile, value, count beyond) for the highest percentile of the
    ladder with at least MIN_BEYOND values beyond it (nearest rank).  With
    too few values for any of them, the largest value."""
    ordered = sorted(values)
    n = len(ordered)
    for tenths in TAIL_LADDER:
        rank = -(-tenths * n // 1000)
        if n - rank >= MIN_BEYOND:
            return tenths / 10, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def error_rate(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    src = sorted((ROOT / "src" / "cselab").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    numpy = sys.modules.get("numpy")
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not imported"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


# ---------------------------------------------------------------------------
# set-up and the closed loop
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, tracer=None):
    """Import cselab, build the job list, run the warm-up jobs, prepare the jobs.

    A tracer is installed only for the preparation, so its set-up spans are
    those of parsing the inputs (and, for cli_batch, of the in-process
    oracle run).  Returns (seconds, module, reference, jobs, prepared,
    warm-up failures).
    """
    start = perf_counter()
    import workloads as wl  # imports cselab: part of set-up

    ref = wl.load_reference()
    jobs, warmup = wl.WORKLOADS[workload](seed, ref)
    failures = [msg for job in warmup
                if (msg := checked(wl, job, run_job(wl, job, wl.KINDS[job.kind][0](job)), ref))]
    if tracer is not None:
        tracer.install(also=(wl,))
    prepared = [wl.KINDS[job.kind][0](job) for job in jobs]
    return perf_counter() - start, wl, ref, jobs, prepared, failures


def run_job(wl, job, prepared):
    try:
        return wl.KINDS[job.kind][1](prepared)
    except Exception as exc:  # a failing job is counted, the run goes on
        return wl.JobFailure(f"{job.kind} {job.params}: {type(exc).__name__}: {exc}")


def checked(wl, job, result, ref):
    try:
        return wl.check(job, result, ref)
    except Exception as exc:  # a malformed result fails its oracle
        return f"{job.kind} {job.params}: oracle raised {type(exc).__name__}: {exc}"


def fraction_kernel():
    """Fixed interpreter-bound work (Fraction arithmetic) that runs no cselab code."""
    a = Fraction(1, 3)
    for i in range(250):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        a = Fraction(a.numerator % 10 ** 30, a.denominator % 10 ** 30 + 1)


def bigint_kernel():
    """Fixed big-integer work (gcds and products of numbers of a few thousand
    digits) that runs no cselab code."""
    x, y = 3 ** 4000, 7 ** 3500
    for _ in range(40):
        math.gcd(x, y)
        x = x * 3 + 1


def interpreter_kernel():
    """Start a bare interpreter and wait for it to exit."""
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)


# A workload's calibration kernel, its time on a quiet host (a scaled time is
# in units of the kernel time / that reference), and whether its times are
# pooled over a pass (see Passes).  On a shared 2-vCPU host the speed one
# process sees moves by up to 2x in phases of seconds to minutes, and not
# alike for all work.  Over four minutes of such phases the time of a
# semicontinuity_scan germ moved by 1.42x, that of the big-integer kernel by
# 1.44x and that of the Fraction kernel by 1.96x (medians over 20 s): the
# germ's gcd and squarefree work is big-integer arithmetic.  Over three
# minutes a CLI call moved by 1.37x, a bare interpreter start by 1.27x and
# the Fraction kernel by 1.78x: a CLI call is mostly interpreter start-up and
# imports.  The other workloads' work is interpreter-bound like the Fraction
# kernel.  One interpreter start varies about as much as a CLI call does, so
# on cli_batch the kernel times of a pass are pooled: over five seeds the
# quartile spreads of wall_s, job_p50_ms and job_tail_ms were 0.063, 0.077
# and 0.093 pooled, 0.084, 0.091 and 0.132 with the times around each job,
# and 0.130, 0.143 and 0.104 raw.
KERNELS = {"semicontinuity_scan": (bigint_kernel, 0.0065, False),
           "cli_batch": (interpreter_kernel, 0.06, True)}
DEFAULT_KERNEL = (fraction_kernel, 0.0015, False)


def kernel_time(kernel=fraction_kernel, repeats=1) -> float:
    """The fastest of `repeats` runs of `kernel`, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


class Passes:
    """Timings and oracle outcomes of the timed passes.

    The calibration kernel is timed before every job and once after the
    last.  Each latency is divided by the mean of the kernel times just
    before and just after it, or with `pooled` by the median of the pass's
    kernel times, and multiplied by the kernel's reference time, so a slow
    phase of the host cancels out.  A job's figure is the median over the
    passes.
    """

    def __init__(self, kernel=DEFAULT_KERNEL):
        self.kernel, self.reference, self.pooled = kernel
        self.walls = []
        self.latencies = []     # per pass, per job, in seconds
        self.kernels = []       # per pass: kernel_time() before each job and after the last
        self.attempted = 0
        self.failures = []
        self.last_results = []
        self.child_rss_kb = 0

    def figures(self):
        """Each job's median kernel-scaled latency over the passes."""
        def factor(ks, j):
            k = statistics.median(ks) if self.pooled else (ks[j] + ks[j + 1]) / 2
            return self.reference / k

        return [statistics.median(t * factor(ks, j) for t, ks in zip(times, self.kernels))
                for j, times in enumerate(zip(*self.latencies))]

    def raw(self):
        """Each job's median latency over the passes."""
        return [statistics.median(times) for times in zip(*self.latencies)]

    def tail(self):
        """tail_percentile over the jobs, each counted once with its figure,
        so the job reported does not depend on the number of passes."""
        return tail_percentile(self.figures())


def run_passes(wl, ref, jobs, prepared, seconds: float, out: Passes, tracer=None,
               between=None):
    """Repeat whole passes until `seconds` have elapsed (at least one);
    `between`, when given, is called before each job, outside its timing."""
    deadline = perf_counter() + seconds
    while True:
        results, latencies, kernels = [], [], []
        base = len(out.walls) * len(jobs)
        for i, (job, prep) in enumerate(zip(jobs, prepared)):
            if between is not None:
                between()
            kernels.append(kernel_time(out.kernel))
            if tracer is not None:
                tracer.job = base + i
            t0 = perf_counter()
            results.append(run_job(wl, job, prep))
            latencies.append(perf_counter() - t0)
        kernels.append(kernel_time(out.kernel))
        out.walls.append(sum(latencies))
        if tracer is not None:
            tracer.job = -1
        out.latencies.append(latencies)
        out.kernels.append(kernels)
        out.attempted += len(jobs)
        for job, res in zip(jobs, results):
            msg = checked(wl, job, res, ref)
            if msg:
                out.failures.append(msg)
            out.child_rss_kb = max(out.child_rss_kb, getattr(res, "max_rss_kb", 0))
        out.last_results = results
        if perf_counter() >= deadline:
            return out


def setup_samples(args, first):
    """`first` plus SETUP_SAMPLES - 1 set-ups, each in a fresh interpreter,
    as (set-up seconds, kernel_time() before it)."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["kernel_s"]))
    return samples


class StartTimes:
    """Interpreter starts taken between the CLI jobs of the traced half:
    alternately a bare interpreter and one that imports cselab.cli."""

    CODES = ("pass", "import cselab.cli")

    def __init__(self, env):
        self.env = env
        self.times = {code: [] for code in self.CODES}

    def __call__(self):
        code = min(self.CODES, key=lambda c: len(self.times[c]))
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True,
                       timeout=60)
        self.times[code].append(perf_counter() - start)

    def fastest(self):
        """(bare interpreter, import cselab.cli minus it), each its fastest, in seconds."""
        bare = min(self.times["pass"])
        return bare, min(self.times["import cselab.cli"]) - bare


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(args, spec_key, values, notes, prov, passes, extra_lines=()):
    spec = load_spec()
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[spec_key]}
    failed = len(passes.failures)
    print(f"cselab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"passes={len(passes.walls)} jobs={passes.attempted} failed={failed} "
          f"error_rate={error_rate(failed, passes.attempted):.6g}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:11s} {note}")
    for line in extra_lines:
        print("  " + line)
    for msg in passes.failures[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": passes.attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, notes=notes, failures=passes.failures[:50],
                  workload=args.workload, trace=args.trace, seconds=args.seconds,
                  pass_walls_s=passes.walls, job_latencies_s=passes.latencies,
                  job_kernels_s=passes.kernels)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


def accuracy_lines(wl, jobs, passes):
    kmax, miss, cpd, cases = wl.corpus_stats(jobs, passes.last_results)
    if not cases:
        return (kmax, miss, cpd), []
    return (kmax, miss, cpd), [
        f"{'k_rel_err_max':38s} {kmax:14.6g} {'ratio':11s} (largest |K - K_ref|/K_ref, "
        f"{cases} corpus evaluations)",
        f"{'err_bar_miss':38s} {miss:14.6g} {'ratio':11s} (share whose error estimate "
        "is below the true error)",
    ]


def run_untraced(args):
    kernel = kernel_time(repeats=SETUP_KERNEL_REPEATS)
    setup_s, wl, ref, jobs, prepared, failures = setup(args.workload, args.seed)
    passes = Passes(KERNELS.get(args.workload, DEFAULT_KERNEL))
    passes.failures.extend(failures)
    run_passes(wl, ref, jobs, prepared, args.seconds, passes)
    samples = setup_samples(args, (setup_s, kernel))
    setups = [t * DEFAULT_KERNEL[1] / k if args.workload in SETUP_SCALED else t
              for t, k in samples]
    figures, raw = passes.figures(), passes.raw()
    pct, tail, beyond = passes.tail()
    rss_kb = (passes.child_rss_kb if args.workload == "cli_batch"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    values = {
        "wall_s": sum(figures),
        "job_p50_ms": 1000.0 * statistics.median(figures),
        "job_tail_ms": 1000.0 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw_tail = tail_percentile(raw)[1]
    notes = {
        "wall_s": (f"(sum over {len(jobs)} jobs of each one's median over {len(passes.walls)} "
                   f"passes; raw {sum(raw):.6g} s)"),
        "job_p50_ms": f"(median over {len(jobs)} jobs; raw {1000 * statistics.median(raw):.6g} ms)",
        "job_tail_ms": (f"(p{pct:g} of {len(jobs)} jobs, {beyond} beyond it; "
                        f"raw {1000 * raw_tail:.6g} ms)"),
        "setup_s": (f"(median of {len(samples)} set-ups: import, inputs, warm-up; "
                    f"raw {statistics.median(t for t, _ in samples):.6g} s)"),
        "peak_rss_mb": ("(largest CLI child process)" if args.workload == "cli_batch"
                        else "(this process)"),
    }
    _, extra = accuracy_lines(wl, jobs, passes)
    kernels = [k for ks in passes.kernels for k in ks]
    extra.append(f"loop times are in units of {passes.kernel.__name__} / "
                 f"{1000 * passes.reference:g} ms; its {len(kernels)} timings took "
                 f"{1000 * min(kernels):.4g} ms to {1000 * max(kernels):.4g} ms, "
                 f"median {1000 * statistics.median(kernels):.6g} ms")
    return emit(args, "end_to_end", values, notes, provenance(args.seed), passes, extra)


def run_traced(args):
    from tracing import END, JOB, NAME, START, Tracer, layer_metrics

    tracer = Tracer()
    _, wl, ref, jobs, prepared, failures = setup(args.workload, args.seed, tracer)
    tracer.uninstall()
    setup_ops = tracer.ops
    kernel = KERNELS.get(args.workload, DEFAULT_KERNEL)
    plain = Passes(kernel)
    plain.failures.extend(failures)
    run_passes(wl, ref, jobs, prepared, args.seconds / 2, plain)
    tracer.install(also=(wl,))
    ops0 = tracer.ops
    traced = Passes(kernel)
    starts = StartTimes(wl.cli_env()) if args.workload == "cli_batch" else None
    try:
        run_passes(wl, ref, jobs, prepared, args.seconds / 2, traced, tracer, starts)
    finally:
        tracer.uninstall()
    if args.workload == "cli_batch":
        # The CLI's layers run in child processes, out of the tracer's reach.
        # Set-up ran every job's argv once in this process (the oracle), so
        # that run stands for one pass.
        mains = [sp[END] - sp[START] for sp in tracer.spans if sp[NAME] == "cli.main"]
        values = layer_metrics(tracer.spans, setup_ops, 1, sum(mains),
                               timed=lambda sp: sp[JOB] < 0)
    else:
        values = layer_metrics(tracer.spans, tracer.ops - ops0, len(traced.walls),
                               sum(traced.walls))
    (kmax, miss, cpd), extra = accuracy_lines(wl, jobs, traced)
    values.update({"accuracy.k_rel_err_max": kmax, "accuracy.err_bar_miss": miss,
                   "quadrature.cells_per_digit": cpd})
    interp = imp = main_s = share = 0.0
    if starts is not None:
        interp, imp = starts.fastest()
        main_s = statistics.median(mains)
        share = (interp + imp) / (interp + imp + main_s)
    values.update({
        "cli.interpreter_ms": 1000.0 * interp,
        "cli.import_ms": 1000.0 * imp,
        "cli.main_ms": 1000.0 * main_s,
        "cli.startup_share": share,
        "trace.overhead_s": sum(traced.figures()) - sum(plain.figures()),
    })
    prov = provenance(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(trace_path, {"provenance": prov, "workload": args.workload,
                             "jobs": [f"{j.kind} {j.params}" for j in jobs]})
    # both halves count towards the oracle totals
    merged = Passes()
    merged.walls = plain.walls + traced.walls
    merged.attempted = plain.attempted + traced.attempted
    merged.failures = plain.failures + traced.failures
    notes = {"trace.overhead_s": f"(traced {sum(traced.figures()):.4g} s - "
                                 f"untraced {sum(plain.figures()):.4g} s per pass)"}
    extra = list(extra) + [f"per-pass figures over {len(traced.walls)} traced passes; "
                           f"spans in {trace_path.relative_to(ROOT)}"]
    return emit(args, "per_layer", values, notes, prov, merged, extra)


def run_all(args):
    """Every workload in turn, each in its own process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in load_spec()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = 1
        if not lines:
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name['name']}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="exact_families, semicontinuity_scan, fiber_integrals, "
                        "cli_batch or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # set up once and print its duration
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cselab" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/cselab to benchmark", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is imported, inherited by children
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in [w["name"] for w in load_spec()["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        kernel = kernel_time(repeats=SETUP_KERNEL_REPEATS)
        setup_s, *_, failures = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel}))
        return 1 if failures else 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
