"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload score --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1      # score, online and fit, one process each

Set-up (configs, corpus, the checkpoint and noise fixtures) runs
SETUP_REPEATS times in fresh directories and `setup_s` is the median.
The workload's steps then run in a loop until --seconds have passed,
each loop one iteration; per-step times are medians over iterations.
Outputs are checked after every step, and quality metrics against
bench/reference.json once after the loop. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are normalized to a reference CPU speed. The speed of a shared
machine drifts by tens of percent over seconds, so a fixed calibration
loop runs between every two steps, and each step's measured seconds
are scaled by CALIBRATION_REF_S over the mean of the calibration times
on either side of it. The measured seconds are printed too, and so is
the run's median calibration time.

--trace 0 reports the end-to-end metrics. --trace 1 alternates
untraced and traced iterations and reports the per-layer metrics of
the traced ones (medians) plus `trace.overhead_s`, the traced minus
the untraced median wall time.

Exit codes: 0 all checks passed, 1 a check or operation failed,
2 the checkout has no latetrack source to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("score", "online", "fit")
SETUP_REPEATS = 3
# Calibration time that defines the reference speed: normalized times
# are seconds on a machine where `calibrate` takes this long. On the
# machine recorded in bench/reference.json it took 7.5-13.5 ms.
CALIBRATION_REF_S = 0.010
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))


class Ledger:
    """Every step call and every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.startswith("us_per_"):
        return "us"
    if last == "rows_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last.endswith("_pct"):
        return "%"
    if last in ("bytes", "bytes_written"):
        return "B"
    return "count"


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        try:
            getter = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        threads = getter()
    return {"name": deps.get("name"), "version": deps.get("version"), "threads": threads,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info()}


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work and small numpy kernels
    takes now (median of three), i.e. the machine's current speed."""
    import numpy as np

    mat = np.eye(8)
    acts = np.linspace(-1.0, 1.0, 64 * 3 * 64).reshape(64, 3, 64)
    weights = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    times = []
    for _ in range(3):
        t0 = perf_counter()
        vec = np.ones(8)
        acc = 0.0
        for i in range(3000):
            vec = mat @ vec
            acc += (i * 0.5) % 3.0
        for _ in range(15):
            acc += float(np.maximum(np.einsum("bkc,oc->bko", acts, weights), 0.0).sum())
        times.append(perf_counter() - t0)
    return statistics.median(times)


def load_reference(path: Path, scale: str, workload: str) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("quality", {}).get(scale, {}).get(workload, {})


def check_quality(values: dict, refs: dict, seed: int, ledger: Ledger) -> None:
    """A recorded seed must reproduce its value within `tol`; any other
    seed must land inside `band`, the range the recorded seeds span plus
    a margin."""
    for name, value in values.items():
        ref = refs.get(name)
        if ref is None:
            continue
        recorded = ref.get("values", {}).get(str(seed))
        if recorded is not None:
            ok = math.isfinite(value) and abs(value - recorded) <= ref["tol"]
            want = f"{recorded} +- {ref['tol']}"
        else:
            lo, hi = ref["band"]
            ok = math.isfinite(value) and lo <= value <= hi
            want = f"[{lo}, {hi}]"
        ledger.record(f"quality.{name}", ok, f"got {value}, want {want}")


class Iteration:
    """One pass over a workload's steps, with the time of each."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.times = {}       # end-to-end metric -> normalized seconds
        self.measured = {}    # end-to-end metric -> measured seconds
        self.stages = {}      # verb -> manifest stage -> normalized seconds
        self.windows = []     # (start, end, speed factor) per step
        self.cals = []        # calibration time after each step

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def measured_wall(self) -> float:
        return sum(self.measured.values())


def run_iteration(workload, ledger: Ledger, cal: float, tracer=None):
    """Run every step once; `cal` is the calibration time measured just
    before. Returns the Iteration and the last calibration time."""
    it = Iteration(tracer is not None)
    for step in workload.steps:
        for path in step.outputs:
            path.unlink(missing_ok=True)
        traced = tracer is not None and step.verb.startswith("cli.")
        span = tracer.span(step.verb) if traced else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with span:
                code = step.run()
        except Exception:
            traceback.print_exc()
            code = None
        t1 = perf_counter()
        after = calibrate()
        factor = 2.0 * CALIBRATION_REF_S / (cal + after)
        cal = after
        it.cals.append(cal)
        it.windows.append((t0, t1, factor))
        it.times[step.metric] = it.times.get(step.metric, 0.0) + (t1 - t0) * factor
        it.measured[step.metric] = it.measured.get(step.metric, 0.0) + t1 - t0
        ledger.record(step.verb, code == 0, f"exit code {code}")
        missing = [p.name for p in step.outputs if not p.is_file()]
        ledger.record(f"{step.verb}.outputs", not missing, f"missing {missing}")
        if step.manifest is not None and step.manifest.is_file():
            verb = it.stages.setdefault(step.verb.split(".", 1)[1], {})
            for stage, secs in json.loads(step.manifest.read_text())["stage_seconds"].items():
                verb[stage] = verb.get(stage, 0.0) + secs * factor
    return it, cal


def measure(args, work: Path):
    from tracing import Tracer, layer_metrics
    from workloads import SETUP, SIZES

    ledger = Ledger()
    sizes = SIZES[args.scale]
    setups = []          # (normalized, measured) seconds
    workload = None
    cal = calibrate()
    cals = [cal]
    for i in range(SETUP_REPEATS):
        root = work / f"setup{i}"
        root.mkdir(parents=True)
        t0 = perf_counter()
        workload = SETUP[args.workload](root, args.seed, sizes)
        secs = perf_counter() - t0
        after = calibrate()
        setups.append((secs * 2.0 * CALIBRATION_REF_S / (cal + after), secs))
        cal = after
        cals.append(cal)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")

    iterations = []
    layers = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        tracer = Tracer() if traced else None
        if traced:
            tracer.install()
        try:
            it, cal = run_iteration(workload, ledger, cal, tracer)
        finally:
            if traced:
                tracer.uninstall()
        iterations.append(it)
        cals.extend(it.cals)
        if traced:
            layers.append(layer_metrics(tracer.spans, tracer.counts, it.stages, it.windows))
        if (not args.trace or len(iterations) >= 2) and perf_counter() >= deadline:
            break

    values = workload.quality()
    check_quality(values, load_reference(args.reference, args.scale, args.workload),
                  args.seed, ledger)
    for name, ok, detail in workload.checks():
        ledger.record(name, ok, detail)
    return ledger, setups, iterations, layers, values, cals


def report(args, ledger, setups, iterations, layers, values, cals) -> dict:
    """Print every metric by name with its unit; return the JSON metrics."""
    from tracing import VERB_STAGES, median_metrics
    from workloads import TIME_METRICS

    med = statistics.median
    plain = [it for it in iterations if not it.traced]
    n = len(plain)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"iterations {len(iterations)} ({n} untraced)")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print(f"calibration_ms {med(cals) * 1e3:.3f} ms (median of {len(cals)}; "
          f"reference {CALIBRATION_REF_S * 1e3:.3f} ms)")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": med(s[0] for s in setups), "wall_s": med(it.wall for it in plain),
           "peak_rss_mb": rss}
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {len(setups)}; "
          f"measured {med(s[1] for s in setups):.4f} s)")
    print(f"wall_s {e2e['wall_s']:.4f} s (median of {n}; "
          f"measured {med(it.measured_wall for it in plain):.4f} s)")
    for metric in TIME_METRICS[args.workload]:
        print(f"{metric} {med(it.times[metric] for it in plain):.4f} s (median of {n}; "
              f"measured {med(it.measured[metric] for it in plain):.4f} s)")
    print("iteration_wall_s " + " ".join(f"{it.wall:.3f}" for it in plain)
          + " s (measured " + " ".join(f"{it.measured_wall:.3f}" for it in plain) + ")")
    print(f"peak_rss_mb {rss:.1f} MiB (one process)")
    for name, value in values.items():
        print(f"{name} {value!r} 1")
    fail_ratio = len(ledger.failures) / ledger.attempted
    print(f"fail_ratio {fail_ratio:.4f} 1 ({len(ledger.failures)} of {ledger.attempted})")
    for verb, stages in VERB_STAGES.items():
        for stage in stages:
            secs = [it.stages[verb][stage] for it in plain if stage in it.stages.get(verb, {})]
            if secs:
                print(f"cli.{verb}.{stage}_s {med(secs):.4f} s (median of {n})")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)

    if not args.trace:
        return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    per_layer = median_metrics(layers)
    per_layer["trace.overhead_s"] = (med(it.wall for it in iterations if it.traced)
                                     - e2e["wall_s"])
    for name, value in per_layer.items():
        print(f"{name} {value:.6g} {unit_of(name)} (median of {len(layers)} traced)")
    return {name: {"value": value, "unit": unit_of(name)} for name, value in per_layer.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all",
                        help="one workload, or all of them one after another (default)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed loop runs (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny only exercises every path")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="quality reference file (default bench/reference.json)")
    return parser.parse_args(argv)


def run_all(argv) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, *argv, "--workload", name],
                              check=False)
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(argv)
    if not (SRC / "latetrack" / "__init__.py").is_file():
        print(f"error: no latetrack source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import everything before the first timer starts.
    import latetrack.cli  # noqa: F401

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        results = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    ledger = results[0]
    metrics = report(args, *results)
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 1 if ledger.failures else 0


if __name__ == "__main__":
    sys.exit(main())
