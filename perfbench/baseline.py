"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Each run is its own process (run.py), one after another, so memory peaks do
not leak between workloads. For every workload and end-to-end metric it
prints the median, the quartiles and the spread (quartile distance over the
median, the figure a bound is set against). Figures without a bound are
printed by run.py but not gated. It then makes one traced run per workload
with the first seed, prints its per-layer metrics and checks that its input
hash and deterministic counts equal those of the untraced run.
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


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    return info, json.loads(lines[-1])


def summary(values):
    q1 = q2 = q3 = values[0]
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0,
            "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1 to N")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(1, args.seeds + 1)
    report = {"seconds": seconds, "seeds": list(seeds), "workloads": {}}
    print(f"{'workload':10s} {'metric':20s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
          f" {'spread':>7s} {'bound':>6s}")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        failed = sum(result["failed"] for _, result in runs)
        attempted = sum(result["attempted"] for _, result in runs)
        row = {"failed": failed, "attempted": attempted,
               "answers": [info["answers"] for info, _ in runs], "metrics": {}}
        values = {name: [result["metrics"][name]["value"] for _, result in runs]
                  for name in runs[0][1]["metrics"]}
        values.update({name: [info["not_gated"][name] for info, _ in runs]
                       for name in runs[0][0]["not_gated"]})
        for name, series in values.items():
            stats = row["metrics"][name] = summary(series)
            bound = f"{bounds[name]:6.2f}" if name in bounds else "     -"
            print(f"{workload:10s} {name:20s} {stats['median']:11.5g} {stats['q1']:11.5g}"
                  f" {stats['q3']:11.5g} {stats['spread']:7.3f} {bound}")
        if not args.no_trace:
            info, result = run(workload, seeds[0], seconds, 1)
            same = (info["input_sha256"], info["counts"]) == (runs[0][0]["input_sha256"], runs[0][0]["counts"])
            row["trace"] = {name: m["value"] for name, m in result["metrics"].items()}
            row["trace_counts_match"] = same
            for name, m in result["metrics"].items():
                print(f"{workload:10s}   {name:32s} {m['value']:12.5g} {m['unit']}")
            print(f"{workload:10s}   traced counts equal untraced: {same}")
        report["workloads"][workload] = row
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
