"""Benchmark of the gentlelam library: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
`src/`).  Workloads: census, oracles, bangles (see workloads.py).  Every
pass runs in a fresh interpreter with a fixed PYTHONHASHSEED; one client
runs ops in a closed loop, on one thread.

Times are scaled to an idle host (see reference.py): each op's wall time
is multiplied by REFERENCE_S / the reference time probed around it.

--trace 0 times the workload's op list in PASSES passes, one after the
other, with a set-up-only interpreter before each, and takes each op's
latency as the median of its scaled times over the passes.  It prints
the end-to-end metrics:
  ops_per_s    ops / summed op latency
  op_p50_ms    median op latency
  op_tail_ms   op latency at the highest percentile with >= 10 ops
               beyond it (nearest rank; printed with the metrics)
  setup_s      interpreter start to the end of set-up, scaled by the
               probe after it; median over all the run's interpreters
  peak_rss_mb  largest maximum RSS of the passes' interpreters
and, on its summary line, the same times unscaled.  fail_ratio (failed
/ attempted op executions) is printed on the summary line and carried by
the `attempted` and `failed` fields.  An op also fails if its exact
outputs differ between passes.

--trace 1 runs the first pass twice: untraced, then with spans
(spans.py), and prints the per-layer metrics plus trace.overhead (traced
/ untraced summed scaled op latency).  The digests of exact outputs of
the two runs must agree.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `--workload all` runs every workload in turn and prefixes each
metric with its workload.  Exits 2 without a result when the library is
missing or a child fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("census", "oracles", "bangles")
PASSES = 3  # an op's latency is its median over this many interpreters
BUDGET_S = 170  # the whole run, children included


class ChildFailed(Exception):
    pass


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, -(-q * len(sorted_values) // 100) - 1)]


def tail_percentile(n):
    """Highest percentile whose nearest rank leaves >= 10 of n beyond."""
    return max(0, 100 * (n - 10) // n)


def child(args, workload, mode, deadline, pass_no=0):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--pass", str(pass_no), "--spawned", repr(spawned),
           "--workdir", WORKDIR]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} run exceeded the time budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(payloads):
    return hashlib.sha256(",".join(payloads).encode()).hexdigest()


def scaled(seconds, ref_s):
    """A wall time scaled to the idle host (see reference.py)."""
    return seconds * REFERENCE_S / ref_s


def latency_metrics(lat, setups):
    lat = sorted(lat)
    tail = tail_percentile(len(lat))
    return tail, {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * percentile(lat, tail), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(args, workload, deadline):
    # the set-up-only interpreters run between the passes, so the set-up
    # samples, like the op samples, are spread over the whole run
    passes, setups = [], []
    for pass_no in range(PASSES):
        setups.append(child(args, workload, "setup", deadline))
        passes.append(child(args, workload, "run", deadline, pass_no))
    setups += passes
    first = passes[0]
    failed = sum(res["failed"] for res in passes)
    lat, raw = [], []
    for k, payload in enumerate(first["payloads"]):
        if any(res["payloads"][k] != payload for res in passes):
            failed += 1
            print(f"op {k}: outputs differ between passes", file=sys.stderr)
        lat.append(statistics.median(
            scaled(res["latencies"][k], res["refs"][k]) for res in passes))
        raw.append(statistics.median(res["latencies"][k] for res in passes))
    tail, metrics = latency_metrics(
        lat, [scaled(r["setup_s"], r["setup_ref_s"]) for r in setups])
    metrics["peak_rss_mb"] = (
        max(res["peak_rss_mb"] for res in passes), "MiB")
    _, unscaled = latency_metrics(raw, [r["setup_s"] for r in setups])
    ref_s = statistics.median(r for res in passes for r in res["refs"])
    summary = {
        "ops": len(lat),
        "attempted": sum(len(res["latencies"]) for res in passes),
        "failed": failed,
        "digest": digest(first["payloads"]),
        "note": f"{len(passes)} passes; op_tail_ms is the p{tail} latency; "
                "unscaled: " + ", ".join(
                    f"{k} {v:.6g} {u}" for k, (v, u) in unscaled.items())
                + f"; median reference {1000 * ref_s:.4g} ms",
    }
    return summary, metrics


def per_layer(args, workload, deadline):
    base = child(args, workload, "run", deadline)
    traced = child(args, workload, "trace", deadline)
    metrics = dict(traced["layers"])

    def total(res):
        return sum(map(scaled, res["latencies"], res["refs"]))

    metrics["trace.overhead"] = (total(traced) / total(base), "ratio")
    metrics["trace.spans"] = (traced["spans"], "count")
    base_digest, traced_digest = (digest(base["payloads"]),
                                  digest(traced["payloads"]))
    same = base_digest == traced_digest
    summary = {
        "ops": len(base["latencies"]),
        "attempted": len(base["latencies"]) + len(traced["latencies"]),
        "failed": base["failed"] + traced["failed"] + (not same),
        "digest": traced_digest,
        "note": f"untraced digest {base_digest} "
                f"({'equal' if same else 'DIFFERENT'}); spans in "
                f"{os.path.relpath(traced['spans_file'], ROOT)}",
    }
    return summary, metrics


def run_workload(args, workload):
    """One workload: prints its summary, returns (attempted, failed,
    metrics)."""
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        res, metrics = per_layer(args, workload, deadline)
    else:
        res, metrics = end_to_end(args, workload, deadline)
    print(f"{workload} seed {args.seed}: {res['ops']} ops, "
          f"{res['attempted']} executions, {res['failed']} failed, "
          f"fail_ratio {res['failed'] / res['attempted']} (ratio), "
          f"digest {res['digest']}\n  {res['note']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    return res["attempted"], res["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gentlelam", "__init__.py")):
        print(f"error: no gentlelam sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    try:
        for w in workloads:
            n, bad, m = run_workload(args, w)
            attempted += n
            failed += bad
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
