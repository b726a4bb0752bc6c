"""Run-to-run spread of the benchmark: one run per seed, then each
metric's median, quartiles and spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them).

    python3 perfbench/spread.py --workload bangles --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workload census --seeds 1-10 --seconds 20 \\
        --json spread-census.json

Run from the root of a source checkout, like run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args()
    values, runs = {}, []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **res})
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, (v["unit"], []))[1].append(v["value"])
    summary = {}
    for name, (unit, vals) in values.items() if len(runs) > 1 else ():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None}
        print(f"{name:40s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 "
              f"{q3:.6g}  spread {summary[name]['spread']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
