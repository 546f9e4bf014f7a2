"""In-memory span tracing for the benchmark's traced run.

A Tracer swaps each traced latetrack function for a wrapper in every
latetrack module that holds it, so a call is caught where its caller
looks the name up (``latetrack.cli.run_stream`` as well as
``latetrack.simulate.run_stream``). Each call becomes a span: name,
start, end, parent span and an optional work count. ``iou`` and
``center_error`` run once per (frame, sigma) match, millions of times
per sweep, so they are only counted. Spans stay in memory;
``layer_metrics`` turns them into the per-layer figures at the end.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("latetrack", "latetrack.boxes", "latetrack.motion", "latetrack.simulate",
           "latetrack.evaluate", "latetrack.predictors", "latetrack.network",
           "latetrack.training", "latetrack.report", "latetrack.config", "latetrack.cli")

# Span record fields.
NAME, START, END, PARENT, WORK = range(5)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _run_stream_work(args, log):
    seq = args[0]
    return (len(log.processed), len(seq.ground_truth) - len(log.processed),
            log.predictor_invocations)


def _sweep_work(args, _):
    from latetrack.evaluate import sigma_grid

    annotated = sum(1 for seq in args[0] for gt in seq.ground_truth if gt is not None)
    return annotated * len(sigma_grid())


def _first_arg_bytes(args, _):
    return _file_bytes(args[0])


def _second_arg_bytes(args, _):
    return _file_bytes(args[1])


# (module, function, span name, work count taken from (args, result))
SPANNED = (
    ("latetrack.simulate", "run_stream", "simulate.run_stream", _run_stream_work),
    ("latetrack.simulate", "pick_horizon_n", "simulate.pick_horizon_n", None),
    ("latetrack.simulate", "save_run_log", "simulate.io.write", _second_arg_bytes),
    ("latetrack.simulate", "save_trace", "simulate.io.write", _second_arg_bytes),
    ("latetrack.simulate", "load_run_log", "simulate.io.read", None),
    ("latetrack.simulate", "load_trace", "simulate.io.read", None),
    ("latetrack.evaluate", "sweep", "evaluate.sweep", _sweep_work),
    ("latetrack.predictors", "kf_update", "predictors.kf_update", None),
    ("latetrack.predictors", "kf_predict", "predictors.kf_predict", None),
    ("latetrack.predictors", "kf_fit_noise", "predictors.kf_fit_noise", None),
    ("latetrack.network", "forward_batch", "network.forward_batch",
     lambda args, _: len(args[1])),
    ("latetrack.network", "backward_batch", "network.backward_batch",
     lambda args, _: len(args[2])),
    ("latetrack.network", "pm_predict", "network.pm_predict", None),
    ("latetrack.training", "sample_windows", "training.sample_windows",
     lambda _, windows: len(windows)),
    ("latetrack.training", "train_pm", "training.train_pm", None),
    ("latetrack.training", "gen_synthetic", "training.gen_synthetic", None),
    ("latetrack.motion", "encode_motion", "motion.encode_motion", None),
    ("latetrack.boxes", "load_sequence", "boxes.load_sequence", None),
    ("latetrack.boxes", "save_sequence", "boxes.save_sequence", None),
    ("latetrack.report", "build_manifest", "report.build_manifest", None),
    ("latetrack.report", "write_csv", "report.write", _first_arg_bytes),
    ("latetrack.report", "write_json", "report.write", _first_arg_bytes),
    ("latetrack.report", "write_markdown_table", "report.write", _first_arg_bytes),
    ("latetrack.report", "svg_line_plot", "report.write", _first_arg_bytes),
    ("latetrack.report", "write_manifest", "report.write", lambda _, path: _file_bytes(path)),
)
METHODS = (
    ("latetrack.evaluate", "EstimateMatcher", "__init__", "evaluate.EstimateMatcher.build"),
    ("latetrack.training", "AdamW", "step", "training.AdamW.step"),
)
COUNTED = (
    ("latetrack.boxes", "iou", "boxes.iou"),
    ("latetrack.boxes", "center_error", "boxes.center_error"),
)


class Tracer:
    """Records spans while installed; `uninstall` restores every name."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for _, _, name in COUNTED}
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _kf_motion_batch(self, factory):
        # The factory only builds a closure; the work happens when the
        # closure runs, so that call is the span.
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self._spanned("predictors.kf_motion_batch", factory(*args, **kwargs),
                                 lambda call_args, _: len(call_args[0]))
        return wrapper

    def _swap_everywhere(self, modules, home, attr, make):
        orig = getattr(modules[home], attr)
        new = make(orig)
        for module in modules.values():
            if module.__dict__.get(attr) is orig:
                self._undo.append((module, attr, orig))
                setattr(module, attr, new)

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        for home, attr, name, work in SPANNED:
            self._swap_everywhere(modules, home, attr,
                                  lambda fn, name=name, work=work: self._spanned(name, fn, work))
        for home, attr, name in COUNTED:
            self._swap_everywhere(modules, home, attr,
                                  lambda fn, name=name: self._counted(name, fn))
        self._swap_everywhere(modules, "latetrack.predictors", "kf_motion_batch",
                              self._kf_motion_batch)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(modules[home], cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._spanned(name, orig, None))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# Per-layer metrics

# Layers whose self time (duration minus the time covered by child spans)
# is reported next to their busy time.
SELF_TIMED = ("simulate.run_stream", "evaluate.sweep", "predictors.kf_fit_noise",
              "network.pm_predict", "training.train_pm", "training.AdamW.step")

# Stages each verb records in its manifest.json `stage_seconds`.
VERB_STAGES = {
    "gen": ("generate", "write"),
    "simulate": ("simulate", "write"),
    "evaluate": ("score", "write"),
    "train": ("windows", "train", "write"),
    "compare": ("pre_run", "simulate_and_score", "write"),
    "horizon": ("pre_run", "write"),
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it
    (the median when there are too few samples for any)."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, counts, stage_seconds, windows) -> dict:
    """Per-layer figures of one traced iteration.

    `stage_seconds` maps a verb to the summed `stage_seconds` of its
    manifests in that iteration. `windows` holds (start, end, speed
    factor) per step; each span's duration is scaled by the factor of
    the step it ran in, as the step times are. A layer the workload
    never calls reads 0 on every figure.
    """
    starts = [w[0] for w in windows]
    dur = []
    for rec in spans:
        k = bisect.bisect_right(starts, rec[START]) - 1
        dur.append((rec[END] - rec[START]) * (windows[k][2] if k >= 0 else 1.0))
    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def durations(name):
        return [dur[i] for i in by_name.get(name, ())]

    def works(name):
        return [spans[i][WORK] for i in by_name.get(name, ())]

    def under(i, ancestor):
        parent = spans[i][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == ancestor:
                return True
            parent = spans[parent][PARENT]
        return False

    child_time = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += dur[i]

    m = {}
    run = durations("simulate.run_stream")
    run_work = works("simulate.run_stream")
    frames = sum(w[0] for w in run_work)
    pct = tail_percentile(len(run))
    m["simulate.run_stream.calls"] = len(run)
    m["simulate.run_stream.busy_s"] = sum(run)
    m["simulate.run_stream.us_per_frame"] = _ratio(sum(run), frames, 1e6)
    m["simulate.run_stream.p50_ms"] = percentile(run, 50.0) * 1e3
    m["simulate.run_stream.tail_ms"] = percentile(run, pct) * 1e3
    m["simulate.run_stream.tail_pct"] = pct if run else 0.0
    m["simulate.run_stream.frames_processed"] = frames
    m["simulate.run_stream.frames_skipped"] = sum(w[1] for w in run_work)
    m["simulate.run_stream.predictor_invocations"] = sum(w[2] for w in run_work)
    m["simulate.pick_horizon_n.busy_s"] = sum(durations("simulate.pick_horizon_n"))
    m["simulate.io.write_s"] = sum(durations("simulate.io.write"))
    m["simulate.io.read_s"] = sum(durations("simulate.io.read"))
    m["simulate.io.bytes_written"] = sum(works("simulate.io.write"))

    sweep = durations("evaluate.sweep")
    matches = sum(works("evaluate.sweep"))
    m["evaluate.sweep.calls"] = len(sweep)
    m["evaluate.sweep.busy_s"] = sum(sweep)
    m["evaluate.sweep.matches"] = matches
    m["evaluate.sweep.us_per_match"] = _ratio(sum(sweep), matches, 1e6)
    m["evaluate.EstimateMatcher.build_s"] = sum(durations("evaluate.EstimateMatcher.build"))
    m["boxes.iou.calls"] = counts["boxes.iou"]
    m["boxes.center_error.calls"] = counts["boxes.center_error"]

    upd = durations("predictors.kf_update")
    m["predictors.kf_update.calls"] = len(upd)
    m["predictors.kf_update.busy_s"] = sum(upd)
    m["predictors.kf_update.us_per_call"] = _ratio(sum(upd), len(upd), 1e6)
    pred = durations("predictors.kf_predict")
    m["predictors.kf_predict.calls"] = len(pred)
    m["predictors.kf_predict.busy_s"] = sum(pred)
    m["predictors.kf_motion_batch.windows"] = sum(works("predictors.kf_motion_batch"))
    m["predictors.kf_motion_batch.busy_s"] = sum(durations("predictors.kf_motion_batch"))
    m["predictors.kf_fit_noise.loss_evals"] = sum(
        1 for i in by_name.get("predictors.kf_motion_batch", ())
        if under(i, "predictors.kf_fit_noise"))
    m["predictors.kf_fit_noise.busy_s"] = sum(durations("predictors.kf_fit_noise"))

    # The single-window path (pm_predict -> pm_forward -> forward_batch)
    # is reported under pm_predict only, so the batched figures below
    # describe the batched path alone.
    for name in ("network.forward_batch", "network.backward_batch"):
        ids = [i for i in by_name.get(name, ()) if not under(i, "network.pm_predict")]
        busy = sum(dur[i] for i in ids)
        rows = sum(spans[i][WORK] for i in ids)
        m[f"{name}.calls"] = len(ids)
        m[f"{name}.rows"] = rows
        m[f"{name}.busy_s"] = busy
        m[f"{name}.rows_per_s"] = _ratio(rows, busy)
    pm = durations("network.pm_predict")
    m["network.pm_predict.calls"] = len(pm)
    m["network.pm_predict.busy_s"] = sum(pm)
    m["network.pm_predict.us_per_call"] = _ratio(sum(pm), len(pm), 1e6)

    step = durations("training.AdamW.step")
    m["training.AdamW.step.calls"] = len(step)
    m["training.AdamW.step.busy_s"] = sum(step)
    m["training.sample_windows.windows"] = sum(works("training.sample_windows"))
    m["training.sample_windows.busy_s"] = sum(durations("training.sample_windows"))
    m["training.train_pm.busy_s"] = sum(durations("training.train_pm"))
    m["training.gen_synthetic.busy_s"] = sum(durations("training.gen_synthetic"))
    enc = durations("motion.encode_motion")
    m["motion.encode_motion.calls"] = len(enc)
    m["motion.encode_motion.busy_s"] = sum(enc)

    m["boxes.load_sequence.busy_s"] = sum(durations("boxes.load_sequence"))
    m["boxes.save_sequence.busy_s"] = sum(durations("boxes.save_sequence"))
    m["report.build_manifest.busy_s"] = sum(durations("report.build_manifest"))
    m["report.write.busy_s"] = sum(durations("report.write"))
    m["report.write.bytes"] = sum(works("report.write"))

    for verb, stages in VERB_STAGES.items():
        for stage in stages:
            m[f"cli.{verb}.{stage}_s"] = stage_seconds.get(verb, {}).get(stage, 0.0)
    for layer, name in (("run_stream", "simulate.run_stream"), ("sweep", "evaluate.sweep")):
        m[f"cli.compare.{layer}_s"] = sum(
            dur[i] for i in by_name.get(name, ())
            if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "cli.compare")

    for name in SELF_TIMED:
        m[f"{name}.self_s"] = sum(dur[i] - child_time[i] for i in by_name.get(name, ()))
    return m


def median_metrics(per_iteration) -> dict:
    """Median of each figure over the traced iterations."""
    return {key: statistics.median(it[key] for it in per_iteration)
            for key in per_iteration[0]}
