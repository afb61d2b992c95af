"""rimhook benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload walks --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from `src/`; there
is nothing to build.  Worker processes run one at a time, so the load is one
process with no extra threads.

--trace 0 prints the end-to-end metrics: wall_s (median time of one pass over
the workload's operation list), op_p50_ms and op_p99_ms (per-operation
latency), setup_s (median over several fresh processes of the time from
process start through `import rimhook` and input generation) and
peak_rss_mib (ru_maxrss of the measuring process through its first timed
pass).

--trace 1 prints the per-layer metrics from a separate traced pass, plus
trace.wall_s and trace.overhead_s (traced minus untraced wall_s).

The line before the last one holds the details: sample counts, the
failure ratio, and measured properties of the generated inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MARK = "@@perfbench"
SETUP_PROBES = 2          # set-up-only processes per run, besides the measuring ones
MIN_COLD_PASSES = 3       # a cold workload runs at least this many fresh processes
RUN_LIMIT = 170           # seconds; a run that would take longer fails instead


class WorkerFailed(RuntimeError):
    pass


def _lines(proc, deadline: float):
    """Yield (arrival time, line) from a worker's stdout until it closes."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        left = deadline - perf_counter()
        if left <= 0:
            raise WorkerFailed("worker ran past the run's time limit")
        if not select.select([fd], [], [], left)[0]:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        now = perf_counter()
        *done, buf = (buf + chunk).split(b"\n")
        for line in done:
            yield now, line.decode()


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    """Run one worker to completion: (set-up seconds, report)."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    t0 = perf_counter()
    setup_s = None
    report = None
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        try:
            for now, line in _lines(proc, deadline):
                if line.startswith(MARK + " ready"):
                    setup_s = now - t0
                elif line.startswith(MARK + " result "):
                    report = json.loads(line[len(MARK + " result "):])
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None or report is None:
        raise WorkerFailed(f"{mode} worker for {workload} exited with {proc.returncode}")
    return setup_s, report


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = [spawn(workload, seed, "setup", seconds, deadline)[0] for _ in range(SETUP_PROBES)]
    reports = []
    t_end = perf_counter() + seconds
    while True:
        setup_s, rep = spawn(workload, seed, "run", seconds, deadline)
        setups.append(setup_s)
        reports.append(rep)
        # a warm workload times itself for `seconds` in one process
        if not WORKLOADS[workload].cold or (len(reports) >= MIN_COLD_PASSES
                                            and perf_counter() >= t_end):
            break
    walls = [w for r in reports for w in r["walls"]]
    lat_ms = [x * 1000 for r in reports for x in r["lat"]]
    rss = [r["rss_mib"] for r in reports]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "op_p50_ms": (statistics.median(lat_ms), "ms", len(lat_ms)),
        "op_p99_ms": (statistics.quantiles(lat_ms, n=100, method="inclusive")[98], "ms",
                      len(lat_ms)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mib": (statistics.median(rss), "MiB", len(rss)),
    }
    detail = {
        "fail_ratio": failed / attempted,
        "samples_beyond_p99": sum(1 for x in lat_ms if x > metrics["op_p99_ms"][0]),
        "walls": walls,
        "setups": setups,
        "errors": sorted({e for r in reports for e in r["errors"]}),
        "properties": reports[0]["properties"],
    }
    return metrics, attempted, failed, detail


def traced(workload: str, seed: int, seconds: float, deadline: float):
    reports = []
    untraced = []
    if WORKLOADS[workload].cold:
        # cold: the untraced pass needs a fresh process of its own
        _, rep = spawn(workload, seed, "run", seconds, deadline)
        reports.append(rep)
        untraced = rep["walls"]
    _, rep = spawn(workload, seed, "trace", seconds, deadline)
    reports.append(rep)
    untraced = untraced or rep["walls"]
    layer = dict(rep["metrics"])
    layer["trace.overhead_s"] = rep["traced_wall"] - statistics.median(untraced)
    metrics = {name: (layer[name], unit, 1) for name, unit in PER_LAYER.items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    detail = {
        "fail_ratio": failed / attempted,
        "untraced_walls": untraced,
        "errors": sorted({e for r in reports for e in r["errors"]}),
    }
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rimhook" / "__init__.py").is_file():
        print(f"error: no rimhook sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        fn = traced if args.trace else end_to_end
        deadline = perf_counter() + RUN_LIMIT
        metrics, attempted, failed, detail = fn(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail["workload"] = args.workload
    detail["seed"] = args.seed
    detail["metrics"] = {
        name: {"value": v, "unit": unit, "samples": n} for name, (v, unit, n) in metrics.items()
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
