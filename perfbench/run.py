"""Run one workload of the cfspectra benchmark and print its metrics.

    python3 perfbench/run.py --workload cli_roundtrip --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Load shape: a closed loop with one client, one operation in flight, one
process, BLAS threads capped at 1.  A pass is the workload's fixed list of
operations.  After one warm-up pass, passes run back to back until
--seconds have gone by and at least MIN_OPS operations were timed.  Right
before each operation the reference kernel runs; each operation's time is
divided by that kernel time, and every end-to-end timing is reported in
`ref` units, with the raw seconds printed beside it.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the layers'
public functions (see tracing.py), alternates traced and untraced passes,
and prints the per-layer metrics and the tracing overhead.  Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Any other failure exits with code 2
without printing one.
"""

import argparse
import functools
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

# numpy (imported later, with the program) reads these when it loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 11  # cold set-ups per run, each in a fresh process
SETUP_PER_PASS = 2  # set-ups taken after each measured pass, until there are enough
MIN_OPS = 100  # so that at least ten samples lie beyond the p90
MEASURE_CAP_S = 120.0  # stop measuring here even if MIN_OPS is not reached
SETUP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "ref", "op_p50_ref": "ref",
                    "op_p90_ref": "ref", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def import_program():
    """Import cfspectra from this checkout's src/ and nowhere else."""
    if not (SRC / "cfspectra" / "__init__.py").is_file():
        raise BenchError(f"no cfspectra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cfspectra

    if not Path(cfspectra.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"cfspectra imported from {cfspectra.__file__}, not {SRC}")


def prepare(workload, seed, workdir):
    """Everything a run does before it is ready: returns the pass's operations."""
    reference = wl.load_reference()
    inputs = wl.make_inputs(workload, seed, reference)
    return wl.build(workload, ROOT, workdir, inputs, reference)


def setup_child(workload, seed):
    """Body of one set-up sample: import, prepare, report when ready."""
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        import_program()
        prepare(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(perf_counter()))


def setup_sample(workload, seed):
    """Process start to workload ready, in one fresh process.

    perf_counter reads CLOCK_MONOTONIC, which is shared by all processes,
    so the child's ready time and the parent's spawn time compare directly.
    """
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError("set-up failed:\n" + proc.stderr.strip())
    return float(proc.stdout.strip().splitlines()[-1]) - start


class Runner:
    """Times operations against the reference kernel and counts failures."""

    def __init__(self, ops, recorder=None):
        from refkernel import reference_kernel  # numpy: only after BLAS_THREAD_VARS

        self.ops = ops
        self.kernel = reference_kernel
        self.recorder = recorder
        self.attempted = 0
        self.failures = []

    def run_pass(self, pass_no, traced=False):
        """One pass; returns [(op name, seconds, kernel seconds)]."""
        rec = self.recorder if traced else None
        out = []
        for i, op in enumerate(self.ops):
            gc.collect()
            k0 = perf_counter()
            self.kernel()
            k1 = perf_counter()
            if rec is not None:
                rec.op_id = (pass_no, i)
                rec.active = True
            try:
                result, error = op.run(), None
            except Exception as exc:  # a raising operation fails; the run goes on
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            finally:
                t = perf_counter()
                if rec is not None:
                    rec.active = False
            if error is None:
                error = op.check(result)
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{op.name}: {error}")
            out.append((op.name, t - k1, k1 - k0))
        return out


def pass_figures(samples):
    """Raw seconds, kernel median and ref-normalised time of one pass.

    Each operation is divided by the kernel time taken right before it, not
    by a pass-wide figure: host speed moves within a pass, and the nearest
    kernel sample tracks it best.
    """
    kernel = statistics.median(k for _, _, k in samples)
    raw = sum(s for _, s, _ in samples)
    return raw, kernel, sum(s / k for _, s, k in samples)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(runner, seconds, trace, take_setup_sample=None):
    """Warm-up, then passes until the time and the op count are both reached.

    Only pass time counts toward ``seconds``.  Set-up samples are taken
    between passes, so that they see the same spread of host speed as the
    passes do.  In a traced run, passes alternate untraced / traced.
    """
    runner.run_pass(0)
    passes = []  # (traced, samples)
    setup = []
    elapsed = 0.0
    pass_no = 1
    while True:
        timed = sum(len(s) for _, s in passes)
        enough = elapsed >= seconds and timed >= MIN_OPS
        if trace:
            enough = elapsed >= seconds and {t for t, _ in passes} == {True, False}
        if enough or (passes and elapsed >= MEASURE_CAP_S):
            break
        traced = trace and pass_no % 2 == 0
        start = perf_counter()
        passes.append((traced, runner.run_pass(pass_no, traced)))
        elapsed += perf_counter() - start
        pass_no += 1
        for _ in range(SETUP_PER_PASS):
            if take_setup_sample is not None and len(setup) < SETUP_REPEATS:
                setup.append(take_setup_sample())
    while take_setup_sample is not None and len(setup) < SETUP_REPEATS:
        setup.append(take_setup_sample())
    return passes, setup


def end_to_end(passes, setup):
    figures = [pass_figures(s) for _, s in passes]
    op_refs, op_raw = [], []
    for _, samples in passes:
        op_refs += [s / k for _, s, k in samples]
        op_raw += [s for _, s, _ in samples]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_ref": statistics.median(f[2] for f in figures),
        "op_p50_ref": statistics.median(op_refs),
        "op_p90_ref": p90(op_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "pass_s": statistics.median(f[0] for f in figures),
        "kernel_ms": 1000 * statistics.median(f[1] for f in figures),
        "op_p50_s": statistics.median(op_raw),
        "op_p90_s": p90(op_raw),
        "passes": len(figures),
        "ops": len(op_refs),
    }
    return metrics, raw


def print_end_to_end(workload, metrics, raw, setup, fail_ratio):
    print(f"[{workload}] {raw['passes']} passes, {raw['ops']} timed operations; "
          f"reference kernel median {raw['kernel_ms']:.3f} ms "
          "(1 ref: the kernel time right before each operation)")
    print(f"  setup_s     = {metrics['setup_s']:.4f} s  "
          f"(median of {len(setup)} fresh-process set-ups: "
          + ", ".join(f"{s:.3f}" for s in setup) + ")")
    print(f"  pass_ref    = {metrics['pass_ref']:.3f} ref  (raw median pass {raw['pass_s']:.3f} s)")
    print(f"  op_p50_ref  = {metrics['op_p50_ref']:.4f} ref  "
          f"(raw {raw['op_p50_s']:.4f} s, {raw['ops']} samples)")
    print(f"  op_p90_ref  = {metrics['op_p90_ref']:.4f} ref  "
          f"(raw {raw['op_p90_s']:.4f} s, {raw['ops']} samples)")
    print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio  = {fail_ratio:.4f} (1)")


def traced_metrics(recorder, passes):
    traced_ids = [no for no, (t, _) in enumerate(passes, start=1) if t]
    tables = tracing.pass_tables(recorder, traced_ids)
    metrics = tracing.per_layer_metrics(tables)
    traced = statistics.median(pass_figures(s)[2] for t, s in passes if t)
    plain = statistics.median(pass_figures(s)[2] for t, s in passes if not t)
    metrics["trace.pass_ref"] = (traced, "ref")
    metrics["trace.untraced_pass_ref"] = (plain, "ref")
    metrics["trace.overhead_ratio"] = (traced / plain, "1")
    setup = tracing.pass_tables(recorder, ["setup"])[0]
    return metrics, setup, len(traced_ids)


def print_traced(workload, metrics, setup, n_traced, absent):
    print(f"[{workload}] traced: {n_traced} traced passes; figures are medians per pass")
    print(f"  {'span':44s} {'calls':>9s} {'self_s':>10s} {'setup calls':>12s} {'setup self_s':>12s}")
    for name in tracing.span_names():
        note = "  (absent)" if name in absent else ""
        print(f"  {name:44s} {metrics[name + '.calls'][0]:9.0f} "
              f"{metrics[name + '.self_s'][0]:10.5f} {setup['calls'][name]:12d} "
              f"{setup['self'][name]:12.5f}{note}")
    for layer in list(tracing.LAYERS) + ["cli"]:
        print(f"  {layer + '.self_s':44s} {metrics[layer + '.self_s'][0]:20.5f}")
    for name in tracing.EXTRAS:
        print(f"  {name:44s} {metrics[name][0]:20.6g}")
    print(f"  trace.pass_ref = {metrics['trace.pass_ref'][0]:.3f} ref, untraced "
          f"{metrics['trace.untraced_pass_ref'][0]:.3f} ref, tracing overhead "
          f"{100 * (metrics['trace.overhead_ratio'][0] - 1):+.1f}%")


def run(args):
    import_program()
    recorder = installation = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        installation = tracing.install(recorder)
    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    try:
        if recorder is not None:
            recorder.op_id, recorder.active = ("setup",), True
        ops = prepare(args.workload, args.seed, workdir)
        if recorder is not None:
            recorder.active = False
        runner = Runner(ops, recorder)
        take_setup_sample = None if args.trace else functools.partial(
            setup_sample, args.workload, args.seed)
        passes, setup = measure(runner, args.seconds, bool(args.trace), take_setup_sample)
        if args.trace:
            metrics, setup_table, n_traced = traced_metrics(recorder, passes)
            recorder.write(WORK / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
        else:
            values, raw = end_to_end(passes, setup)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        if installation is not None:
            installation.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"  FAILED {failure}")
    if args.trace:
        print_traced(args.workload, metrics, setup_table, n_traced, installation.absent)
        reported = tracing.JSON_METRICS
    else:
        print_end_to_end(args.workload, values, raw, setup, failed / runner.attempted)
        reported = list(END_TO_END_UNITS)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }
    print(json.dumps(result))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args()
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed)
        else:
            run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
