"""Discrete-event simulation of a tracker (plus optional predictor)
consuming a fixed-rate frame stream under processing latency.

The scheduling rule: after finishing a frame, the tracker grabs the
latest frame already captured (largest f with capture_time(f) <= finish).
A real-time tracker, having finished before the next capture, idles and
processes the next frame at its capture instant. Frame indices strictly
increase; no frame is processed twice.

When a predictor rides along, each new-frame arrival first triggers a
prediction batch covering the previous frame + 1 .. + N (available after
the predictor's own latency), and only then does tracking of the arrived
frame start; both latencies land on the raw output's finish time.

Neither the schedule nor the tracker's boxes depend on a prediction,
so run_stream simulates a run schedule-first, in three passes. The
float schedule takes each latency stream as one block of draws and
gives the processed frames, their arrivals and finish times, and each
predictor invocation's availability. The tracker's rows for those
frames follow, then every prediction of the run from one
`predictions` call (see `predictors`). Boxes are (x, y, w, h) rows of
floats. Each processed frame gives one (frame, t_start, t_finish)
tuple and its outputs one (target_frame, available_at, kind, row)
tuple each, in emission order. A RunLog takes those tuples, holds them
as columns and checks them once, as a whole, when it is built. The log
and trace files are written straight from the columns, and both load
back as RunLogs: a trace is the schedule plus one raw output per
frame, which is what a replay tracker re-emits.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .boxes import PREDICTED, RAW, BoundingBox, FrameClock, Sequence
from .errors import ValidationError
from .latency import LatencyProfile, exhausted
from .network import load_weights
from .predictors import KalmanBoxPredictor, MotionNetPredictor, ZeroMotionPredictor, load_kf_noise
from .seeding import derive_seed, rng_for

NONE = "none"
ZERO_MOTION = "zero"
KF = "kf"
KF_LEARNED = "kf_learned"
NEURAL_PM = "pm"


_RUN_COLUMNS = ("frame", "t_start", "t_finish", "target_frame", "available_at", "kind", "boxes")


def _column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype)
    col.flags.writeable = False
    return col


class RunLog:
    """One run as read-only numpy columns.

    It takes one (frame, t_start, t_finish) tuple per processed frame,
    one (target_frame, available_at, kind, (x, y, w, h)) tuple per
    output in emission order, and one latency per predictor invocation,
    and keeps the columns `frame`, `t_start`, `t_finish`, `target_frame`,
    `available_at`, `kind` and `boxes`, an (m, 4) array of rows. One
    vectorized pass checks every output row, requires each start time
    to be finite and within [0, its finish time], and requires frames
    and finish times to strictly increase. `processed` and `outputs` give
    the tuples back.
    """

    def __init__(self, sequence_name: str, schedule, outputs, predictor_latencies=()):
        frame, t_start, t_finish = zip(*schedule) if schedule else ((), (), ())
        target, available, kind, boxes = zip(*outputs) if outputs else ((), (), (), ())
        self.sequence_name = sequence_name
        self.frame = _column(frame, np.int64)
        self.t_start = _column(t_start, np.float64)
        self.t_finish = _column(t_finish, np.float64)
        self.target_frame = _column(target, np.int64)
        self.available_at = _column(available, np.float64)
        self.kind = _column(kind, str)
        self.boxes = _column(boxes, np.float64).reshape(-1, 4)
        self.predictor_latencies = tuple(predictor_latencies)
        self._check()

    def _check(self):
        b, avail = self.boxes, self.available_at
        ok = (np.isfinite(b).all(axis=1) & (b[:, 2] > 0) & (b[:, 3] > 0)
              & (self.target_frame >= 0) & np.isfinite(avail) & (avail >= 0)
              & ((self.kind == RAW) | (self.kind == PREDICTED)))
        if not ok.all():
            # the first bad row raises its first failing check: the box
            # as BoundingBox words it, then target, availability and kind
            i = int(np.argmin(ok))
            BoundingBox(*b[i].tolist())
            target, available, kind = int(self.target_frame[i]), float(avail[i]), str(self.kind[i])
            if target < 0:
                raise ValidationError(f"target_frame must be >= 0, got {target}")
            if not (math.isfinite(available) and available >= 0):
                raise ValidationError(f"available_at must be >= 0, got {available}")
            raise ValidationError(f"kind must be {RAW!r} or {PREDICTED!r}, got {kind!r}")
        started = np.isfinite(self.t_start) & (self.t_start >= 0) & (self.t_start <= self.t_finish)
        if not started.all():
            i = int(np.argmin(started))
            raise ValidationError(f"frame {self.frame[i]}: t_start must be finite and within "
                                  f"[0, t_finish], got {self.t_start[i]} and {self.t_finish[i]}")
        if np.any(self.frame[1:] <= self.frame[:-1]):
            raise ValidationError(f"processed frames must strictly increase, got {self.frame.tolist()}")
        if np.any(self.t_finish[1:] <= self.t_finish[:-1]):
            raise ValidationError("finish times must strictly increase")

    def __eq__(self, other):
        if not isinstance(other, RunLog):
            return NotImplemented
        return (self.sequence_name == other.sequence_name
                and self.predictor_latencies == other.predictor_latencies
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in _RUN_COLUMNS))

    def __repr__(self) -> str:
        return (f"RunLog({self.sequence_name!r}, {len(self.frame)} processed frames, "
                f"{len(self.kind)} outputs)")

    @property
    def processed(self) -> tuple:
        """The schedule as (frame, t_start, t_finish) tuples."""
        return tuple(zip(self.frame.tolist(), self.t_start.tolist(), self.t_finish.tolist()))

    @property
    def outputs(self) -> tuple:
        """The outputs as (target_frame, available_at, kind, (x, y, w, h)) tuples."""
        return tuple(zip(self.target_frame.tolist(), self.available_at.tolist(),
                         self.kind.tolist(), map(tuple, self.boxes.tolist())))

    @property
    def predictor_invocations(self) -> int:
        return len(self.predictor_latencies)


@dataclass(frozen=True)
class TrackerAdapter:
    """The simulated tracker: ground truth plus seeded position and
    log-scale noise, or, given a trace, a recorded run's raw boxes
    re-emitted by frame. Per-run state is built inside run_stream."""

    latency: LatencyProfile
    sigma_pos: float = 0.0
    sigma_scale: float = 0.0
    trace: RunLog = None

    def __post_init__(self):
        if not (0.0 <= self.sigma_pos < math.inf and 0.0 <= self.sigma_scale < math.inf):
            raise ValidationError(f"noise sigmas must be finite and >= 0, got "
                                  f"{self.sigma_pos} and {self.sigma_scale}")
        if self.trace is not None and not np.any(self.trace.kind == RAW):
            raise ValidationError("replay tracker needs per-frame boxes")

    @classmethod
    def replay(cls, trace: RunLog, latency: LatencyProfile = None) -> "TrackerAdapter":
        """Tracker that re-emits a recorded run's raw boxes, by frame.
        Without a latency profile it replays the recorded per-frame
        durations, t_finish - t_start."""
        if latency is None:
            latency = LatencyProfile.replay((trace.t_finish - trace.t_start).tolist())
        return cls(latency, trace=trace)


@dataclass(frozen=True)
class PredictorAdapter:
    """The predictor that runs alongside the tracker. `make()` builds a
    fresh online predictor (reset, observe, predict) for one run, which
    predicts `horizon_n` frames ahead; each invocation charges a draw
    from `latency`. `predictor_for` builds one per predictor kind."""

    make: Callable
    horizon_n: int
    latency: LatencyProfile

    def __post_init__(self):
        if self.horizon_n < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon_n}")


def predictor_for(kind: str, latency: LatencyProfile, *, file=None, horizon: int = None,
                  default_horizon: int = 2):
    """The predictor vocabulary, and the one place that maps a kind to
    its predictor: none | zero | kf | kf_learned | pm.

    `file` is the fitted-noise JSON of kf_learned or the checkpoint of
    pm; the other kinds take none. A pm horizon is the checkpoint's head
    count, and an explicit `horizon` must agree with it; the other kinds
    run `horizon`, else `default_horizon`, frames ahead. Returns None
    for none, the raw tracker alone.
    """
    if kind not in (NONE, ZERO_MOTION, KF, KF_LEARNED, NEURAL_PM):
        raise ValidationError(f"unknown predictor kind {kind!r}; use none, zero, kf, "
                              "kf_learned:<noise file>, pm:<checkpoint>")
    needs_file = kind in (KF_LEARNED, NEURAL_PM)
    if needs_file != bool(file):
        raise ValidationError(f"predictor {kind!r} {'needs' if needs_file else 'takes no'} file")
    if kind == NONE:
        return None
    if kind == ZERO_MOTION:
        make = ZeroMotionPredictor
    elif kind == KF:
        make = KalmanBoxPredictor
    elif kind == KF_LEARNED:
        make = partial(KalmanBoxPredictor, *load_kf_noise(file))
    else:
        weights = load_weights(file)
        if horizon not in (None, weights.n_heads):
            raise ValidationError(
                f"checkpoint predicts {weights.n_heads} frames but horizon is {horizon}")
        make, default_horizon = partial(MotionNetPredictor, weights), weights.n_heads
    return PredictorAdapter(make, default_horizon if horizon is None else horizon, latency)


def next_frame(clock: FrameClock, prev_finish: float, prev_frame: int,
               last_frame: int):
    """Frame the tracker processes after finishing prev_frame at
    prev_finish; None once the stream is exhausted.

    Picks the largest f with capture_time(f) <= prev_finish. If even the
    next frame is not captured yet (real-time tracker), the next frame
    is chosen and processing waits for its capture.
    """
    if prev_finish < 0:
        raise ValidationError(f"finish time must be >= 0, got {prev_finish}")
    if prev_frame >= last_frame:
        return None
    cand = int(math.floor(prev_finish * clock.framerate_kappa))
    # Align the floor estimate with capture_time comparisons exactly.
    while clock.capture_time(cand + 1) <= prev_finish:
        cand += 1
    while cand > 0 and clock.capture_time(cand) > prev_finish:
        cand -= 1
    if cand <= prev_frame:
        return prev_frame + 1
    return min(cand, last_frame)


def _oracle_rows(seq: Sequence, sigma_pos: float, sigma_scale: float, rng, frames) -> list:
    """The tracker's rows for the processed frames: ground truth (the
    last annotated box on an unannotated frame) plus seeded noise. Frame
    0 is exact; the i-th processed frame after it takes the i-th row of
    one (n - 1, 4) standard normal block. Sizes scale by math.exp, which
    np.exp differs from by an ulp on some inputs."""
    last = np.maximum.accumulate(np.where(seq.annotated, np.arange(len(seq)), 0))
    rows = seq.boxes[last[frames]]
    sigmas = (sigma_pos, sigma_pos, sigma_scale, sigma_scale)
    noise = (rng.normal(size=(len(seq) - 1, 4)) * sigmas)[:len(frames) - 1]
    rows[1:, :2] += noise[:, :2]
    rows[1:, 2:] *= np.array([math.exp(v) for v in noise[:, 2:].ravel().tolist()]).reshape(-1, 2)
    return list(map(tuple, rows.tolist()))


def _replay_rows(trace: RunLog, frames) -> list:
    """A trace's raw rows for the processed frames, by the frame they
    answer; the first frame the trace lacks raises."""
    raw = trace.kind == RAW
    recorded = dict(zip(trace.target_frame[raw].tolist(), map(tuple, trace.boxes[raw].tolist())))
    try:
        return [recorded[f] for f in frames]
    except KeyError as exc:
        raise ValidationError(f"replay trace {trace.sequence_name!r} has no box "
                              f"for frame {exc.args[0]}") from None


def _schedule(clock: FrameClock, last_frame: int, tracker_lat: list, predictor_lat):
    """The float schedule of a run from its latency blocks: processed
    frames, arrivals, finish times, and each predictor invocation's
    availability, plus the exhausted block if a replay one ran out
    (the schedule then ends at the last frame that got its draws).

    Frame 0 arrives at 0. After frame 0, a predictor draw runs from each
    arrival before the tracker's draw does."""
    frames, arrivals, finishes, available = [], [], [], []
    f, finish = 0, 0.0
    while f is not None:
        j = len(frames)
        arrival = start = max(finish, clock.capture_time(f))
        if predictor_lat is not None and j:
            if j > len(predictor_lat):
                return frames, arrivals, finishes, available, predictor_lat
            start = arrival + predictor_lat[j - 1]
        if j == len(tracker_lat):
            return frames, arrivals, finishes, available, tracker_lat
        finish = start + tracker_lat[j]
        frames.append(f)
        arrivals.append(arrival)
        finishes.append(finish)
        if predictor_lat is not None and j:
            available.append(start)
        f = next_frame(clock, finish, f, last_frame)
    return frames, arrivals, finishes, available, None


def run_stream(seq: Sequence, tracker: TrackerAdapter, predictor: PredictorAdapter = None,
               *, seed: int = 0) -> RunLog:
    """Simulate one sequence; deterministic for a fixed seed.

    Every stochastic component draws from its own stream, derived from
    `seed` under a fixed key: tracker noise, tracker latency and
    predictor latency. Each latency stream is one block of len(seq)
    draws; a run uses one tracker draw per processed frame and one
    predictor draw per later frame, and never sees the rest.

    Three passes: the float schedule, the tracker's rows for the
    processed frames, then every prediction of the run in one
    `predictions` call on a fresh predictor. A replay block that runs
    out raises after the rows and predictions of the frames before it.
    """
    n = len(seq)
    tracker_lat = tracker.latency.draws(derive_seed(seed, "tracker-latency"), n)
    predictor_lat = None
    if predictor is not None:
        predictor_lat = predictor.latency.draws(derive_seed(seed, "predictor-latency"), n)
    frames, arrivals, finishes, available, short = _schedule(seq.clock, seq.last_frame,
                                                             tracker_lat, predictor_lat)
    if tracker.trace is not None:
        rows = _replay_rows(tracker.trace, frames)
    else:
        rows = _oracle_rows(seq, tracker.sigma_pos, tracker.sigma_scale,
                            rng_for(seed, "tracker-noise"), frames)
    raw = list(zip(frames, finishes, [RAW] * len(frames), rows))
    if predictor is None:
        outputs = raw
    else:
        predicted = predictor.make().predictions(seq.b0, frames[1:], rows[1:],
                                                 predictor.horizon_n)
        outputs = [raw[0]]
        for prev, avail, batch, out in zip(frames, available, predicted, raw[1:]):
            outputs.extend((target, avail, PREDICTED, row)
                           for target, row in enumerate(batch, start=prev + 1))
            outputs.append(out)
    if short is not None:
        raise exhausted(short)
    return RunLog(seq.name, list(zip(frames, arrivals, finishes)), outputs,
                  predictor_lat[:len(available)] if predictor else ())


def pick_horizon_n(seq: Sequence, tracker: TrackerAdapter, trials: int = 3,
                   *, seed: int = 0) -> int:
    """Maximum frame gap observed over `trials` seeded pre-runs.

    This is how the prediction horizon N is chosen: the predictor must
    cover the worst frame skip the tracker exhibits.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    gaps = (np.diff(run_stream(seq, tracker, seed=derive_seed(seed, "prerun", t)).frame).max()
            for t in range(trials))
    return int(max(gaps))


# ---------------------------------------------------------------------------
# File formats

_LOG_COLUMNS = ["kind", "target_frame", "available_at", "x", "y", "w", "h"]
_TRACE_COLUMNS = ["frame", "t_start", "t_finish", "x", "y", "w", "h"]


def _write_rows(path, header, lines, manifest_ref) -> None:
    """Write a header and pre-formatted lines. The fields are ints, float
    reprs and the two kind names, none of which csv would quote, so the
    bytes are csv.writer's, "\r\n" line endings included."""
    with open(path, "w", newline="") as fh:
        if manifest_ref:
            fh.write(f"# manifest={manifest_ref}\n")
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(lines))


def save_run_log(log: RunLog, path, manifest_ref: str = None) -> None:
    _write_rows(path, _LOG_COLUMNS, [
        f"{kind},{target},{available!r},{x!r},{y!r},{w!r},{h!r}\r\n"
        for kind, target, available, (x, y, w, h) in zip(
            log.kind.tolist(), log.target_frame.tolist(), log.available_at.tolist(),
            log.boxes.tolist())], manifest_ref)


def _read_csv_rows(path, expected_header):
    rows = []
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != expected_header:
        raise ValidationError(f"{path}: expected header {expected_header}, got {header}")
    for row in reader:
        if row:
            rows.append(row)
    return rows


def _checked_run_log(path, name, schedule, outputs) -> RunLog:
    try:
        return RunLog(name or Path(path).stem, schedule, outputs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_run_log(path, name: str = None) -> RunLog:
    outputs = []
    for row in _read_csv_rows(path, _LOG_COLUMNS):
        try:
            kind, target, avail, x, y, w, h = row
            outputs.append((int(target), float(avail), kind,
                            (float(x), float(y), float(w), float(h))))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad log row {row}: {exc}") from None
    return _checked_run_log(path, name, (), outputs)


def save_trace(log: RunLog, path, manifest_ref: str = None) -> None:
    """Write the processed-frame schedule with its raw boxes; the file
    doubles as a replay source for scoring recorded runs."""
    raw = log.kind == RAW
    if np.count_nonzero(raw) != len(log.frame):
        raise ValidationError("log has no full schedule; cannot write a trace")
    _write_rows(path, _TRACE_COLUMNS, [
        f"{frame},{t0!r},{t1!r},{x!r},{y!r},{w!r},{h!r}\r\n"
        for frame, t0, t1, (x, y, w, h) in zip(
            log.frame.tolist(), log.t_start.tolist(), log.t_finish.tolist(),
            log.boxes[raw].tolist())], manifest_ref)


def load_trace(path, name: str = None) -> RunLog:
    """A trace file as a RunLog: the schedule plus one raw output per
    processed frame, available when that frame finished. Frames and
    finish times must strictly increase."""
    schedule, outputs = [], []
    for row in _read_csv_rows(path, _TRACE_COLUMNS):
        try:
            frame, t0, t1, x, y, w, h = row
            frame, t1 = int(frame), float(t1)
            schedule.append((frame, float(t0), t1))
            outputs.append((frame, t1, RAW, (float(x), float(y), float(w), float(h))))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad trace row {row}: {exc}") from None
    return _checked_run_log(path, name, schedule, outputs)


def run_files(path, sequences, suffix: str) -> list:
    """The run file of each sequence: `<name><suffix>` (".log.csv" or
    ".trace.csv") in a directory, or the one file given, which serves a
    single sequence only. A missing file is a FileNotFoundError, the
    I/O error (exit 3) of every input file the CLI cannot open."""
    path = Path(path)
    if path.is_dir():
        files = [path / f"{seq.name}{suffix}" for seq in sequences]
    elif len(sequences) != 1:
        raise ValidationError(f"{path} is one file for {len(sequences)} sequences; "
                              f"give a directory of <name>{suffix} files")
    else:
        files = [path]
    for seq, file in zip(sequences, files):
        if not file.is_file():
            raise FileNotFoundError(f"no {suffix} file for sequence {seq.name!r}: {file}")
    return files
