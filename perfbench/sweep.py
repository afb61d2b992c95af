"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 15 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (Python's statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median and the sample count, next to the metric's bound from
BENCHMARK.json.  With --trace-seeds it also runs traced passes and records
the per-layer metrics of each.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="matrices,walks,posets,queries")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="", help="seeds for traced runs, e.g. 1,1")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []

    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        samples: dict[str, list[int]] = {}
        failed = attempted = 0
        properties = {}
        elapsed: list[float] = []
        for seed in seeds:
            t0 = time.perf_counter()
            detail, result = run_once(workload, seed, seconds, 0)
            elapsed.append(time.perf_counter() - t0)
            failed += result["failed"]
            attempted += result["attempted"]
            properties[str(seed)] = detail.get("properties")
            for name, m in detail["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                samples.setdefault(name, []).append(m["samples"])
            print(f"{workload} seed {seed} ({elapsed[-1]:.0f} s): " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"attempted": attempted, "failed": failed, "run_s": statistics.median(elapsed),
                 "fail_ratio": failed / attempted, "metrics": {}, "properties": properties}
        for name, vals in values.items():
            s = summarise(vals)
            s["values"] = vals
            s["samples_per_run"] = statistics.median(samples[name])
            s["bound"] = bounds.get(name)
            entry["metrics"][name] = s
            flag = ""
            if s["bound"] and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {workload:9s} {name:13s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.3f} bound={s['bound']} "
                  f"samples/run={s['samples_per_run']:g}{flag}", flush=True)
        traces = []
        for seed in trace_seeds:
            _, result = run_once(workload, seed, seconds, 1)
            traces.append({"seed": seed, "failed": result["failed"],
                           "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
            print(f"  {workload} traced seed {seed}: overhead_s="
                  f"{result['metrics']['trace.overhead_s']['value']:.4g}", flush=True)
        if traces:
            entry["traced"] = traces
        report["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
