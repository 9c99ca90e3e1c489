"""Layered benchmark of jfrac.  Run from the repository root:

    python3 perfbench/run.py --workload exact_roundtrip --seed 1 --seconds 25 --trace 0

Workloads: exact_roundtrip, verify_suite, cli_session (see README.md).  A run
measures set-up in fresh interpreters, then makes whole closed-loop passes
over the workload's seeded operations, one at a time on one thread, until
--seconds have passed.  Every output is checked; a failed check is a failed
operation.  Times are in reference-speed seconds (refclock.py).  The last
line of stdout is one JSON object: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics from spans around jfrac's public
functions.  Diagnostics go to stderr.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 11


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("exact_roundtrip", "verify_suite", "cli_session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    """Environment of the processes the benchmark starts: jfrac from the
    checkout's sources, no inherited precision override, and bytecode
    caching on (whatever the caller's PYTHONDONTWRITEBYTECODE), so they run
    from a warm cache, as an installed jfrac does."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("JFRAC_PRECISION_BITS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_probe(workload, seed, env):
    """A fresh interpreter that imports jfrac, builds the workload's inputs
    and says so; returns the process and the line it said."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    return proc, proc.stdout.readline()


def end_probe(proc, line):
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")


def measure_setup(clock, workload, seed, env):
    """Median reference-speed seconds from a fresh interpreter to jfrac
    imported and the workload's inputs built."""
    times = []
    for _ in range(SETUP_PROBES):
        (proc, line), dt = clock.time(start_probe, workload, seed, env)
        end_probe(proc, line)
        times.append(dt)
    return statistics.median(times)


def tail(times):
    """Highest percentile with at least ten operations beyond it, or None
    below forty operations, where it would be no tail."""
    if len(times) < 40:
        return None
    ranked = sorted(times)
    return ranked[len(ranked) - 11], 100.0 * (len(ranked) - 10) / len(ranked)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jfrac", "__init__.py")):
        print(f"error: no jfrac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One core for this process and every child it starts, so the kernel
    # samples the core the timed work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)
    env = child_env()
    # A first, untimed probe writes the bytecode cache before this process
    # imports jfrac, so every run imports from it, the first in a checkout too.
    end_probe(*start_probe(args.workload, args.seed, env))
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import refclock
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    traced = bool(args.trace)
    clock = refclock.RefClock()
    setup_s = None if traced else measure_setup(clock, args.workload, args.seed, env)

    tracer = layers = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        layers = tracing.LayerTotals()
    work = workloads.build(args.workload, args.seed, ROOT, env, traced)
    work.warmup()

    times = []
    raw = []
    by_label = {}
    attempted = failed = passes = 0
    child_spans = []
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        for op in work.ops:
            attempted += 1
            try:
                if tracer is not None:
                    tracer.enabled = True
                try:
                    out, dt = clock.time(work.run, op, sample=not traced)
                finally:
                    if tracer is not None:
                        tracer.enabled = False
                problems = work.check(op, out)
                if traced and args.workload == "cli_session":
                    with open(out[3]) as fh:
                        child = json.load(fh)
                    os.remove(out[3])
                    layers.add(child["summary"])
                    layers.stdout_bytes += len(out[1])
                    child_spans.append(child["spans"])
            except Exception:  # a crash is a failed operation, not a lost run
                problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"FAILED {op[0]}: " + "; ".join(problems), file=sys.stderr)
            else:
                times.append(dt)
                raw.append(clock.raw_s[-1])
                by_label.setdefault(op[0], []).append(dt)
        passes += 1
        if tracer is not None:
            tracer.end_scope()
    elapsed = time.perf_counter() - start

    p50 = statistics.median(times) if times else float("nan")
    diag = (
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops in {passes} passes, "
        f"{elapsed:.1f} s wall; op_s.p50 {p50:.4f} (raw {statistics.median(raw) if raw else float('nan'):.4f}), "
        f"kernel median {1000 * statistics.median(clock.kernel_s):.3f} ms"
    )
    tail_op = tail(times)
    if tail_op:
        diag += f", op_s.tail p{tail_op[1]:.0f} {tail_op[0]:.4f}"
    print(diag, file=sys.stderr)
    print("  op_s.p50 by op: " + ", ".join(
        f"{label} {statistics.median(v):.4f}" for label, v in sorted(by_label.items())), file=sys.stderr)

    if traced:
        summary = tracer.summary()
        layers.add(summary)
        metrics = layers.metrics(passes, clock.run_factor())
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracing.write_spans(path, [(0, tracer.spans)] + list(enumerate(child_spans, 1)))
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": p50, "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
