"""The clonebound benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload certify|landscape|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports clonebound from the
checkout's src/ and nothing else; without src/clonebound it exits 2
and prints no result.  Each workload is one client in a closed loop:
it sends the next operation when the last one has returned, for S
seconds, and checks every output.  Inputs come from --seed alone.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the in-process
loop with every other operation traced, and prints the per-layer metrics
from the traced half's spans, plus the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Results, with the environment, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("certify", "landscape", "cli")
#: fresh processes that repeat the set-up, besides the measuring process
SETUP_REPEATS = 4

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import clonebound from the checkout, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "clonebound", "__init__.py")):
        fail(f"no clonebound package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import clonebound
    from clonebound import bounds, buzek_hillery, cli, family, pauli, serialize, signaling

    if not os.path.abspath(clonebound.__file__).startswith(SRC + os.sep):
        fail(f"imported clonebound from {clonebound.__file__}, not from {SRC}")
    return argparse.Namespace(pauli=pauli, family=family, bounds=bounds, cli=cli,
                              buzek_hillery=buzek_hillery, signaling=signaling,
                              serialize=serialize)


def make_workload(name, seed, lib):
    import workloads

    if name == "certify":
        return workloads.Certify(lib, seed)
    if name == "landscape":
        os.makedirs(OUT, exist_ok=True)
        return workloads.Landscape(lib, seed, OUT)
    return workloads.Cli(ROOT, child_env(), seed, lib)


def set_up(name, seed):
    """Import, input generation and warm-up, timed together."""
    start = time.perf_counter()
    lib = load_library()
    workload = make_workload(name, seed, lib)
    workload.warm_up()
    return time.perf_counter() - start, workload


def setup_seconds_in_fresh_process(name, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def closed_loop(workload, run, seconds, tracer=None, child_cpu=False):
    """One client: next operation after the last returns, until `seconds` pass.

    Latency and CPU time cover the call into the program only; the
    output checks run between operations, untimed.  With a tracer, every
    other operation runs traced, so both halves see the machine in the
    same states and their difference is the cost of tracing.
    """
    def cpu_now():
        if child_cpu:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime
        return time.process_time()

    latencies, cpu, traced, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(workload):
        if len(latencies) >= 2 and time.perf_counter() >= deadline:
            break
        problems = []
        on = tracer is not None and index % 2 == 1
        with tracer.operation(index) if on else contextlib.nullcontext():
            c0, t0 = cpu_now(), time.perf_counter()
            try:
                out = run(op)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                problems = [f"raised {exc!r}"]
            t1, c1 = time.perf_counter(), cpu_now()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        traced.append(on)
        if not problems:
            try:
                problems = workload.check(op, out)
            except Exception as exc:  # an output the checks cannot read fails them
                problems = [f"check raised {exc!r}"]
        if problems:
            failures.append((index, problems))
    return latencies, cpu, traced, failures


def finish(workload):
    """Run-level checks, as one failure entry if any fails."""
    problems = workload.finish()
    return [(-1, problems)] if problems else []


def tail_stats(latencies, percentile):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile * len(ordered) / 100 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(name, seed, seconds):
    child = name == "cli"
    if child:
        # users pay import on every call, so set-up is script generation only
        lib = load_library()
        samples = []
        for _ in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            workload = make_workload(name, seed, lib)
            samples.append(time.perf_counter() - t0)
    else:
        first, workload = set_up(name, seed)
        samples = [first] + [setup_seconds_in_fresh_process(name, seed)
                             for _ in range(SETUP_REPEATS)]
    latencies, cpu, _, failures = closed_loop(workload, workload.run, seconds, child_cpu=child)
    failures += finish(workload)
    who = resource.RUSAGE_CHILDREN if child else resource.RUSAGE_SELF
    tail, beyond = tail_stats(latencies, workload.tail_percentile)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "cpu_ms_per_op": sum(cpu) / len(cpu) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": statistics.median(samples),
    }
    notes = {
        "op_tail_ms": f"p{workload.tail_percentile:g} of {len(latencies)} samples, "
                      f"{beyond} beyond it",
        "setup_s": f"median of {len(samples)} set-ups",
    }
    return len(latencies), failures, metrics, notes, END_TO_END_UNITS


def import_times():
    """Median numpy and clonebound import times of `python -X importtime`, ms."""
    env = child_env()
    numpy_ms, own_ms = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import clonebound.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        total = numpy = 0
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not match:
                continue
            cumulative, indent, module = int(match[1]), len(match[2]), match[3]
            if module == "numpy":
                numpy = cumulative
            elif indent == 1 and module.split(".")[0] == "clonebound":
                total += cumulative
        numpy_ms.append(numpy / 1e3)
        own_ms.append((total - numpy) / 1e3)
    bare = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       timeout=60)
        bare.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(numpy_ms), statistics.median(own_ms), statistics.median(bare)


def per_layer(name, seed, seconds):
    """In-process loop, every other operation traced; per-layer figures from the spans."""
    from tracing import LAYER_FUNCTIONS, Tracer

    _, workload = set_up(name, seed)
    run = workload.run_in_process if name == "cli" else workload.run
    tracer = Tracer(f"{name}.op")
    latencies, _, traced_flags, failures = closed_loop(workload, run, seconds, tracer=tracer)
    failures += finish(workload)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{name}-spans.npz"))
    plain = [t for t, on in zip(latencies, traced_flags) if not on]
    traced = [t for t, on in zip(latencies, traced_flags) if on]
    ops = len(traced)
    spans = tracer.summary()
    rows = []  # (metric, value, unit)
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            calls, self_ns = spans.get(f"{layer}.{fn}", (0, 0.0))
            rows += [(f"{layer}.{fn}.calls", calls / ops, "count/op"),
                     (f"{layer}.{fn}.self_ms", self_ns / 1e6 / ops, "ms/op")]
    rows += [(counter, tracer.counts[counter] / ops, unit) for counter, unit in (
        ("signaling.mc_shots", "count/op"), ("bounds.grid_points", "count/op"),
        ("serialize.bytes", "B/op"))]
    numpy_ms, own_ms, bare_ms = import_times()
    plain_rate, traced_rate = len(plain) / sum(plain), ops / sum(traced)
    rows += [("bounds.max_eta_grid.peak_mb", tracer.grid_peak_bytes / 2 ** 20, "MB"),
             ("cli.import.numpy_ms", numpy_ms, "ms"),
             ("cli.import.clonebound_ms", own_ms, "ms"),
             ("cli.interpreter_ms", bare_ms, "ms"),
             ("trace.ops_per_s_delta", traced_rate - plain_rate, "1/s")]
    metrics = {name: value for name, value, _ in rows}
    units = {name: unit for name, _, unit in rows}
    notes = {"trace.ops_per_s_delta": f"traced {traced_rate:.6g} minus untraced "
                                      f"{plain_rate:.6g} ops/s, {len(tracer.start)} spans"}
    return len(latencies), failures, metrics, notes, units


def child_env():
    """Environment for measured child processes: thread caps, checkout's src/."""
    env = dict(os.environ)
    env.update({cap: "1" for cap in THREAD_CAPS})
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def environment(seed):
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), None)
    except OSError:
        cpu_model = platform.processor() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model, "git_commit": commit,
        "seed": seed, **{cap: os.environ.get(cap) for cap in THREAD_CAPS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # numpy reads the caps when it loads, which happens after this point
    os.environ.update({cap: "1" for cap in THREAD_CAPS})

    if args.setup_only:
        print(set_up(args.workload, args.seed)[0])
        return 0
    measure = per_layer if args.trace else end_to_end
    attempted, failures, metrics, notes, units = measure(args.workload, args.seed, args.seconds)
    failed = min(attempted, len(failures))
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} "
          f"({failed} failed of {attempted} attempted)")
    for index, problems in failures[:20]:
        print(f"FAILED op {index}: {'; '.join(problems)}", file=sys.stderr)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "notes": notes,
                   "error_rate": failed / attempted}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
