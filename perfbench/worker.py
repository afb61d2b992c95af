"""One benchmark process: set up a workload, time it, check it, report.

Started by run.py with `src` on PYTHONPATH.  It prints `@@perfbench ready`
as soon as set-up is done (run.py times set-up from process start to that
line) and `@@perfbench result <json>` at the end.

Modes:
  setup  build the inputs and exit
  run    cold workload: one pass; warm workload: warm up, then passes until
         --seconds have gone by
  trace  as run, then one more pass with every layer wrapped in spans
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Failed

MARK = "@@perfbench"
OUT = Path(__file__).resolve().parent / "out"


def timed_pass(workload, tracer=None):
    """Run the operation list once: (wall seconds, per-op seconds, results)."""
    lat, results = [], []
    t_start = perf_counter()
    for op in workload.ops:
        span = tracer.open("bench." + op.kind) if tracer is not None else None
        t0 = perf_counter()
        try:
            r = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            r = Failed(exc)
        lat.append(perf_counter() - t0)
        if span is not None:
            tracer.close(span)
        results.append(r)
    return perf_counter() - t_start, lat, results


class Tally:
    """Attempted and failed operations across passes.

    The first pass is checked in full after all timing is done; every later
    pass must reproduce its fingerprints.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.prints = None
        self.mismatch = [0] * len(workload.ops)
        self.passes = 0

    def add(self, results):
        prints = [self.workload.fingerprint(op, r) for op, r in zip(self.workload.ops, results)]
        if self.reference is None:
            self.reference, self.prints = results, prints
        else:
            for i, (a, b) in enumerate(zip(self.prints, prints)):
                if a != b:
                    self.mismatch[i] += 1
        self.passes += 1

    def finish(self) -> tuple[int, int, list]:
        verdicts = self.workload.check(self.reference)
        failed = 0
        for ok, mism in zip(verdicts, self.mismatch):
            failed += self.passes if not ok else mism
        errors = sorted({r.error for r in self.reference if isinstance(r, Failed)})
        return len(self.workload.ops) * self.passes, failed, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir=OUT)
    print(MARK, "ready", flush=True)
    try:
        if args.mode == "setup":
            report = {}
        else:
            report = measure(workload, args.seconds, traced=args.mode == "trace")
    finally:
        workload.close()
    print(MARK, "result", json.dumps(report), flush=True)
    return 0


def measure(workload, seconds: float, traced: bool = False) -> dict:
    """Timed passes for `seconds` (one pass if cold), then optionally a traced one."""
    tally = Tally(workload)
    walls, lat = [], []
    if not workload.cold:
        workload.warm_up()
    t_end = perf_counter() + seconds
    # a cold workload gets one pass per process; a traced run's is the traced one
    while not (workload.cold and (traced or walls)):
        wall, op_lat, results = timed_pass(workload)
        walls.append(wall)
        lat.extend(op_lat)
        tally.add(results)
        del results
        if len(walls) == 1:
            # later passes would add the first pass's results, held for the
            # checks, to their own: peak memory is taken through pass one
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not workload.cold and perf_counter() >= t_end:
            break
    report = {"walls": walls, "lat": lat}
    if walls:
        report["rss_mib"] = rss_mib
    if traced:
        tracer = tracing.Tracer()
        hits_before = tracing.memo_hits()
        installed = tracing.Installed(tracer)
        try:
            traced_wall, _, results = timed_pass(workload, tracer)
        finally:
            installed.remove()
        metrics = tracing.layer_metrics(tracer, hits_before, tracing.memo_hits())
        metrics["trace.wall_s"] = traced_wall
        tally.add(results)
        del results
        tracer.dump(OUT / f"spans-{workload.name}-{workload.seed}.json.gz")
        report.update(traced_wall=traced_wall, metrics=metrics)
    report["attempted"], report["failed"], report["errors"] = tally.finish()
    report["properties"] = workload.properties(tally.reference)
    return report


if __name__ == "__main__":
    sys.exit(main())
