"""Steadiness mode: rerun each workload over several seeds and report spreads.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads certify,cli]

For each end-to-end metric it prints the median of the runs, the
distance between their first and third quartiles as a share of the
median (`statistics.quantiles(values, n=4)`), and that spread against
the metric's bound in BENCHMARK.json: "steady" below a third of the
bound, "wide" up to the bound, "TOO WIDE" beyond it.  setup_s is
exempt from the spread gate.  With --sets 2 the same seeds run twice
and each metric's second median must not be worse than the first by
more than its bound.  Exits 1 if any gate fails.  The figures also go
to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} failed",
              file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    values = {}  # (set, workload, metric) -> [value per seed]
    for set_index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                measured = run_once(bench["command"], workload, seed, args.seconds)
                for name in metrics:
                    values.setdefault((set_index, workload, name), []).append(measured[name])
                print(f"set {set_index + 1} seed {seed} {workload}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in measured.items()), flush=True)

    ok, report = True, []
    print(f"\n{'workload':10s} {'metric':14s} {'median':>11s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in workloads:
        for name, meta in metrics.items():
            bound = meta["bound"]
            row = {"workload": workload, "metric": name, "bound": bound, "sets": []}
            for set_index in range(args.sets):
                vals = values[(set_index, workload, name)]
                share = spread(vals)
                verdict = ("steady" if share < bound / 3 else
                           "wide" if share <= bound else "TOO WIDE")
                if name == "setup_s" and verdict == "TOO WIDE":
                    verdict = "wide (exempt)"
                ok &= not verdict.startswith("TOO")
                row["sets"].append({"values": vals, "median": statistics.median(vals),
                                    "spread": share, "verdict": verdict})
                print(f"{workload:10s} {name:14s} {statistics.median(vals):11.5g} "
                      f"{share:7.3f} {bound:6.3f}  {verdict}")
            if args.sets == 2:
                first, second = (s["median"] for s in row["sets"])
                worse = (second - first) / first
                if meta["better"] == "higher":
                    worse = -worse
                row["second_vs_first"] = worse
                ok &= worse <= bound
                print(f"{'':10s} {'':14s} second median worse by {worse:+.3f}"
                      f" ({'ok' if worse <= bound else 'FAIL'})")
            report.append(row)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(seeds), "seconds": args.seconds, "rows": report}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
