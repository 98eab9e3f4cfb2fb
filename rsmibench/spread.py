#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 rsmibench/spread.py --workload skewed-read --seeds 1-10 [--seconds 10]

Runs the workload once per seed with tracing off and prints, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median, next to the metric's bound from BENCHMARK.json.
A spread above a third of the bound is marked; `setup_s` is exempt from
the spread rule.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = a.seconds or spec["run_seconds"]
    runs = []
    for s in seeds(a.seeds):
        out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", a.workload,
                              "--seed", str(s), "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (s, out.stderr[-3000:]))
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: %d of %d answers wrong" % (s, result["failed"], result["attempted"]))
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print("seed %d done: %s" % (s, " ".join("%s=%.4g" % (k, v) for k, v in runs[-1].items())),
              file=sys.stderr)
    print("%-16s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  > bound/3"
        print("%-16s %14.6g %8.2f%% %6.0f%%%s" % (m["name"], med, 100 * spread, 100 * m["bound"], flag))


if __name__ == "__main__":
    main()
