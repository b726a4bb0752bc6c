"""One pass of a benchmark run in a fresh interpreter; started by run.py.

Modes:
  setup  build the workload's inputs, report the set-up time, exit;
  run    set up, then time every op of pass --pass once;
  trace  the same with the span tracer installed after set-up.

Set-up time runs from --spawned (the parent's monotonic clock just before
it started this process) to the end of set-up: interpreter start-up,
imports, input generation and algebra/triangulation construction.  No
library cache is warmed.  A probe of the host's speed (reference.probe)
follows set-up and each op; each op is reported with the mean of the
probes on either side of it, set-up with the probe after it.  The ops of
a pass run in an order seeded by (--seed, --pass); results are reported
per op, indexed by the op's place in the workload's list.  The result is
one JSON object on stdout.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time

from reference import probe
from workloads import WORKLOADS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir)
    items = workload.items
    order = list(range(len(items)))
    random.Random(f"{args.seed}/{args.pass_no}").shuffle(order)
    ops = {k: workload.op(items[k]) for k in order}
    setup_s = time.monotonic() - args.spawned
    ref = setup_ref = probe()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref}))
        return 0

    tracer = None
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    latencies = [None] * len(items)
    refs = [None] * len(items)
    payloads = [None] * len(items)
    failed = 0
    clock = time.perf_counter
    for k in order:
        run, check = ops[k]
        if tracer is not None:
            tracer.op = k
        # each op starts with an empty heap of garbage, so that the
        # collections it pays for do not depend on the ops before it
        gc.collect()
        t0 = clock()
        try:
            out = run()
            err = None
        except Exception as exc:  # counted as a failed op
            err = f"{type(exc).__name__}: {exc}"
        latencies[k] = clock() - t0
        ref_after = probe()
        refs[k] = (ref + ref_after) / 2
        ref = ref_after
        if err is None:
            try:
                ok, payload = check(out)
            except Exception as exc:
                ok, payload = False, f"{type(exc).__name__}: {exc}"
        else:
            ok, payload = False, err
        if not ok:
            failed += 1
            print(f"op {k} failed: {payload[:300]}", file=sys.stderr)
        payloads[k] = hashlib.sha256(payload.encode()).hexdigest()[:16]

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref,
        "latencies": latencies,
        "refs": refs,
        "payloads": payloads,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.span_id)
        spans = os.path.join(
            args.workdir, f"spans-{args.workload}-{args.seed}.tsv.gz")
        tracer.write_spans(spans)
        result["spans_file"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
