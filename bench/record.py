"""Record the benchmark's quality references and its baseline.

    python3 bench/record.py quality --seeds 1-12 --write
    python3 bench/record.py baseline --runs 10 --write

`quality` runs each workload once per seed (one iteration) and keeps
its quality metrics per seed. A recorded seed must later reproduce its
value within `tol`; any other seed must land in `band`, the span of the
recorded values widened by that span on each side.

`baseline` runs the benchmark --runs times per workload, seeds 1..runs,
untraced, and prints each end-to-end metric's median and its quartile
spread (Q3 - Q1 over the median, as statistics.quantiles(n=4) gives
them). Both commands print what they measured; with --write they also
store it in bench/reference.json, together with the machine and the git
commit measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH, REFERENCE, ROOT, WORKLOADS, machine_info
from workloads import QUALITY, SIZES, TIME_METRICS

# Absolute tolerance on a recorded seed's value: mAUC moves in steps of
# one frame's share of the IoU thresholds; the L1 metrics are fits whose
# last digits follow floating-point summation order.
TOLERANCE = {"mauc_raw": 1e-3, "mauc_kf": 1e-3, "mauc_pm": 1e-3}
L1_RELATIVE_TOLERANCE = 0.01


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(workload: str, seed: int, seconds: float, *extra):
    """One untraced benchmark process; returns (result JSON, human lines)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def git_commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or "unknown"


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def record_quality(seeds, workloads) -> dict:
    out = {}
    for workload in workloads:
        per_metric = {name: {} for name in QUALITY[workload]}
        for seed in seeds:
            # Recording ignores the old references: no reference file.
            _, lines = run_bench(workload, seed, 0, "--reference", os.devnull)
            for line in lines:
                name, _, rest = line.partition(" ")
                if name in per_metric:
                    per_metric[name][str(seed)] = float(rest.split()[0])
        out[workload] = {}
        for name, values in per_metric.items():
            lo, hi = min(values.values()), max(values.values())
            tol = TOLERANCE.get(name, L1_RELATIVE_TOLERANCE * statistics.median(values.values()))
            width = max(hi - lo, tol)
            out[workload][name] = {"tol": tol, "band": [lo - width, hi + width],
                                   "values": values}
            print(f"{workload} {name}: {lo:.6f} .. {hi:.6f} over {len(values)} seeds")
    return out


def record_baseline(runs: int, seconds: float, workloads) -> dict:
    out = {}
    for workload in workloads:
        results = {}
        for seed in range(1, runs + 1):
            result, lines = run_bench(workload, seed, seconds)
            if result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
            for name, metric in result["metrics"].items():
                results.setdefault(name, []).append(metric["value"])
            for line in lines:
                name, _, rest = line.partition(" ")
                if name in TIME_METRICS[workload] or name in ("setup_s", "wall_s"):
                    if name not in result["metrics"]:
                        results.setdefault(name, []).append(float(rest.split()[0]))
                    measured = rest.split("measured ")[1].split()[0]
                    results.setdefault(f"{name}.measured", []).append(float(measured))
        out[workload] = {}
        for name, values in results.items():
            row = {"median": statistics.median(values), "spread": spread(values),
                   "values": values}
            out[workload][name] = row
            print(f"{workload} {name}: median {row['median']:.4f} "
                  f"spread {row['spread']:.3f} over {len(values)} runs: "
                  f"{[round(v, 3) for v in values]}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("quality", "baseline"))
    parser.add_argument("--seeds", default="1-12", help="quality seeds, e.g. 1-12 or 1,5,9")
    parser.add_argument("--runs", type=int, default=10, help="baseline runs per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed loop length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--write", action="store_true", help="store in bench/reference.json")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.what == "quality":
        doc.setdefault("quality", {}).setdefault("full", {}).update(
            record_quality(seed_list(args.seeds), workloads))
    else:
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        baseline = doc.setdefault("baseline", {})
        baseline.update({"commit": git_commit(), "machine": machine_info(),
                         "seconds": seconds, "seeds": list(range(1, args.runs + 1)),
                         "sizes": SIZES["full"]})
        baseline.setdefault("workloads", {}).update(
            record_baseline(args.runs, seconds, workloads))
    if args.write:
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
