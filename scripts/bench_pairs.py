"""Alternating parent/change pairs of the benchmark, written to a BENCH file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload oracles \
        --pairs 10 --first-seed 31 --out BENCH_20.json

The repository is the one holding this script.  The parent side is a
`git archive` of --parent, unpacked into a fresh temporary directory;
the change side is a fresh copy of the working tree's files that git
tracks or does not ignore (`git ls-files -co --exclude-standard`), so
neither side holds a `__pycache__` and both compile from scratch.  Pair
k runs `perfbench/run.py --workload W --seed (first_seed + k) --seconds
S --trace 0` on both sides, with S the `run_seconds` of BENCHMARK.json,
the parent first when k is even and the change first when it is odd,
one run at a time.

Each run contributes the JSON summary line run.py prints last (correct,
attempted, failed, metrics) and the payload digest from its first line.
Per workload the file holds `<W>_pairs` (seed, order, both runs) and
`<W>_summary`: per end-to-end metric of BENCHMARK.json the medians and
interquartile ranges (distance between the inclusive quartiles) of both
sides, in how many pairs the change was better in that metric's
direction, and two verdicts:

- `gain`: the change is better in at least 9 of 10 pairs, and its
  median is better than the parent's by more than the parent's IQR;
- `regression`: "unresolved" when the parent's IQR is wider than the
  metric's bound (a fraction of the parent's median) and some run of
  the change is no better than some run of the parent, else "yes" when
  the change's median is worse than the parent's by more than the
  bound, else "no".

Then the number of pairs with equal digests and the failed op executions
per side.  An existing --out file of the same parent keeps
its other workloads, so one file can collect several invocations.
Stdlib only; a run that fails or an --out file of another parent stops
the script with exit 2.
"""

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = re.compile(r"digest ([0-9a-f]{64})")


def iqr(values):
    """Distance between the inclusive quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, metrics):
    """The `<W>_summary` of a list of pairs; `metrics` maps each metric
    name to (better, bound): better is "higher" or "lower", bound the
    largest tolerated worsening as a fraction of the parent's median."""
    out = {}
    for name, (direction, bound) in metrics.items():
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        p_med, c_med, spread = statistics.median(par), \
            statistics.median(chg), iqr(par)
        wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
        step = sign * (c_med - p_med)  # > 0 when the change is better
        allowed = bound * abs(p_med)
        # every run of the change better than every run of the parent
        apart = min(sign * c for c in chg) > max(sign * p for p in par)
        out[name] = {
            "parent_median": round(p_med, 4),
            "change_median": round(c_med, 4),
            "parent_iqr": round(spread, 4),
            "change_iqr": round(iqr(chg), 4),
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and step > spread,
            "regression": ("unresolved" if spread > allowed and not apart
                           else "yes" if -step > allowed else "no"),
        }
    out["digests_equal_pairs"] = sum(
        p["parent"]["digest"] == p["change"]["digest"] for p in pairs)
    out["failed_executions"] = {
        side: sum(p[side]["failed"] for p in pairs)
        for side in ("parent", "change")}
    return out


def parse_run(stdout):
    """The summary line of a run.py output with the digest added."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = DIGEST.search(stdout)
    result["digest"] = found.group(1) if found else None
    return result


def run_side(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: run.py exited with {proc.returncode} in {tree}",
              file=sys.stderr)
        raise SystemExit(2)
    return parse_run(proc.stdout)


def unpack(rev, into):
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def copy_working_tree(into):
    """Copy the working tree's files that git tracks or does not ignore
    into `into`: a tracked file deleted from the tree is left out, and so
    is every ignored one (compiled modules, run outputs)."""
    names = subprocess.run(["git", "ls-files", "-co", "--exclude-standard",
                            "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in names:
        path = os.path.join(ROOT, name)
        if name and os.path.isfile(path):
            os.makedirs(os.path.dirname(os.path.join(into, name)),
                        exist_ok=True)
            shutil.copy2(path, os.path.join(into, name))


NOTE = ("each run is the summary line (last stdout line) of run.py, on the "
        "files of the parent (a git archive) and of the change (a copy of "
        "the working tree's files), each in its own directory; pairs "
        "alternate which side runs first (order); IQR is the distance "
        "between the inclusive quartiles; digest is the payload digest "
        "run.py prints")


def benchmark_spec():
    """The run length and {metric: (better, bound)} of the end-to-end
    metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"])
                                 for m in spec["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    short = subprocess.run(["git", "rev-parse", "--short", args.parent],
                           cwd=ROOT, check=True, capture_output=True,
                           text=True).stdout.strip()
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
        if doc.get("parent") != short:
            print(f"error: {args.out} holds pairs against "
                  f"{doc.get('parent')}, not {short}", file=sys.stderr)
            return 2
    seconds, metrics = benchmark_spec()
    doc.update({
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds} --trace 0",
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}",
        "parent": short,
        "note": NOTE,
    })
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side)
                 for side in ("parent", "change")}
        unpack(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        for workload in args.workload:
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ["parent", "change"][::1 if k % 2 == 0 else -1]
                pair = {"seed": seed, "order": order}
                for side in order:
                    pair[side] = run_side(trees[side], workload, seed,
                                          seconds)
                pairs.append(pair)
                ops = {side: pair[side]["metrics"]["ops_per_s"]["value"]
                       for side in order}
                print(f"{workload} seed {seed}: parent {ops['parent']:.1f}"
                      f", change {ops['change']:.1f} ops/s", flush=True)
            doc[f"{workload}_pairs"] = pairs
            doc[f"{workload}_summary"] = summarize(pairs, metrics)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
