"""Discrete-event simulation of a tracker (plus optional predictor)
consuming a fixed-rate frame stream under processing latency.

The scheduling rule: after finishing a frame, the tracker grabs the
latest frame already captured (largest f with capture_time(f) <= finish).
A real-time tracker, having finished before the next capture, idles and
processes the next frame at its capture instant. Frame indices strictly
increase; no frame is processed twice.

The schedule is one loop with a step per processed frame, over the
latency blocks as Python lists. A step finishes at its start plus the
draws it charges. If that is before the next frame's capture, the
tracker idles and the next step starts at that capture; otherwise the
next step takes the latest frame captured by the finish and starts
there. The loop ends at the last frame, or where a replay block of
draws runs out.

When a predictor rides along, each new-frame arrival first triggers a
prediction batch covering the previous frame + 1 .. + N (available after
the predictor's own latency), and only then does tracking of the arrived
frame start; both latencies land on the raw output's finish time.

Neither the schedule nor the tracker's boxes depend on a prediction,
and runs do not depend on each other, so run_streams simulates a
verb's runs schedule-first, in three passes. For each run, the float
schedule takes each latency stream as one block of draws and gives the
processed frames, their arrivals and finish times, and each predictor
invocation's availability, and the tracker's rows for those frames
follow as one (n, 4) array of (x, y, w, h) rows. Then every prediction
of every run comes from one `predictions` call (see `predictors`), and
index arithmetic lays each run's outputs out as RunLog columns.
run_stream is the batch of one. pick_horizon_n's pre-runs stop at the
schedule. The log and trace files are written straight from the
columns and parse straight back into them: a trace is the schedule
plus one raw output per frame, which is what a replay tracker
re-emits. Each float is written as its repr, and a run's log and trace
share one formatting pass that calls repr once per distinct float64
bit pattern of the run.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import PREDICTED, RAW, FrameClock, Sequence, check_rows, valid_boxes
from .errors import ValidationError, naming
from .latency import Exhausted, LatencyProfile
from .network import load_weights
from .predictors import KalmanBoxPredictor, MotionNetPredictor, ZeroMotionPredictor, load_kf_noise
from .seeding import derive_seed, rng_for

NONE = "none"
ZERO_MOTION = "zero"
KF = "kf"
KF_LEARNED = "kf_learned"
NEURAL_PM = "pm"
# a predictor invocation's latency (s) where none is set; pick_horizon_n's pre-runs
PREDICTOR_LATENCY = 0.005
HORIZON_TRIALS = 3

_RUN_COLUMNS = ("frame", "t_start", "t_finish", "target_frame", "available_at", "kind", "boxes")


def _column(values, dtype) -> np.ndarray:
    col = np.array(values, dtype=dtype)
    col.flags.writeable = False
    return col


class RunLog:
    """One run as read-only numpy columns.

    The schedule columns `frame`, `t_start` and `t_finish` hold one
    entry per processed frame, the output columns `target_frame`,
    `available_at`, `kind` and `boxes` (an (m, 4) array of rows) one per
    output in emission order, plus one latency per predictor invocation.
    The constructor checks that `boxes` is (m, 4) and that each group's
    columns share one length. Then one vectorized pass checks every
    output row, requires each start time to be finite and within [0, its
    finish time], and requires frames and finish times to strictly
    increase.
    """

    # the float strings save_run_log formatted, kept for save_trace of
    # the same run, which drops them
    _text = None

    def __init__(self, sequence_name: str, frame, t_start, t_finish, target_frame,
                 available_at, kind, boxes, predictor_latencies=()):
        self.sequence_name = sequence_name
        self.frame = _column(frame, np.int64)
        self.t_start = _column(t_start, np.float64)
        self.t_finish = _column(t_finish, np.float64)
        self.target_frame = _column(target_frame, np.int64)
        self.available_at = _column(available_at, np.float64)
        self.kind = _column(kind, str)
        self.boxes = _column(boxes, np.float64)
        self.predictor_latencies = tuple(predictor_latencies)
        if self.boxes.ndim != 2 or self.boxes.shape[1] != 4:
            raise ValidationError(f"boxes must be (m, 4), got shape {self.boxes.shape}")
        for group, names in (("schedule", _RUN_COLUMNS[:3]), ("output", _RUN_COLUMNS[3:])):
            lengths = [len(getattr(self, name)) for name in names]
            if len(set(lengths)) > 1:
                raise ValidationError(f"{group} columns must have one length, got {lengths}")
        self._check()

    def _check(self):
        b, avail = self.boxes, self.available_at
        ok = (valid_boxes(b) & (self.target_frame >= 0) & np.isfinite(avail) & (avail >= 0)
              & ((self.kind == RAW) | (self.kind == PREDICTED)))
        if not ok.all():
            # the first bad row raises its first failing check: the box
            # as check_rows words it, then target, availability and kind
            i = int(np.argmin(ok))
            check_rows(b[i])
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
        """The schedule as (frame, t_start, t_finish) tuples. Kept for
        bench/'s tracer until ROADMAP item 1."""
        return tuple(zip(self.frame.tolist(), self.t_start.tolist(), self.t_finish.tolist()))

    @property
    def predictor_invocations(self) -> int:
        return len(self.predictor_latencies)


@dataclass(frozen=True)
class TrackerAdapter:
    """The simulated tracker: ground truth plus seeded position and
    log-scale noise, or, given a trace, a recorded run's raw boxes
    re-emitted by frame. Per-run state is built inside run_streams."""

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
    """The predictor that runs alongside the tracker. `model`, built
    once, answers each run in one predictions call (see `predictors`)
    and keeps nothing between runs; it predicts `horizon_n` frames
    ahead, and each invocation charges a draw from `latency`.
    `predictor_for` builds one per predictor kind."""

    model: object
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
        model = ZeroMotionPredictor()
    elif kind == KF:
        model = KalmanBoxPredictor()
    elif kind == KF_LEARNED:
        model = KalmanBoxPredictor(*load_kf_noise(file))
    else:
        weights = load_weights(file)
        if horizon not in (None, weights.n_heads):
            raise ValidationError(
                f"checkpoint predicts {weights.n_heads} frames but horizon is {horizon}")
        model, default_horizon = MotionNetPredictor(weights), weights.n_heads
    return PredictorAdapter(model, default_horizon if horizon is None else horizon, latency)


def _oracle_rows(seq: Sequence, sigma_pos: float, sigma_scale: float, rng,
                 frames) -> np.ndarray:
    """The tracker's (n, 4) rows for the processed frames: ground truth
    (the last annotated box on an unannotated frame) plus seeded noise.
    Frame 0 is exact; the i-th processed frame after it takes the i-th
    row of one (n - 1, 4) standard normal block. Sizes scale by
    math.exp, which np.exp differs from by an ulp on some inputs."""
    last = np.maximum.accumulate(np.where(seq.annotated, np.arange(len(seq)), 0))
    rows = seq.boxes[last[frames]]
    sigmas = (sigma_pos, sigma_pos, sigma_scale, sigma_scale)
    noise = (rng.normal(size=(len(seq) - 1, 4)) * sigmas)[:len(frames) - 1]
    rows[1:, :2] += noise[:, :2]
    rows[1:, 2:] *= np.array([math.exp(v) for v in noise[:, 2:].ravel().tolist()]).reshape(-1, 2)
    return rows


def _replay_rows(trace: RunLog, frames) -> np.ndarray:
    """A trace's raw rows for the processed frames, by the frame they
    answer, as an (n, 4) array; the first frame the trace lacks raises."""
    raw = np.flatnonzero(trace.kind == RAW)
    recorded = dict(zip(trace.target_frame[raw].tolist(), raw.tolist()))
    try:
        return trace.boxes[[recorded[f] for f in frames.tolist()]]
    except KeyError as exc:
        raise ValidationError(f"replay trace {trace.sequence_name!r} has no box "
                              f"for frame {exc.args[0]}") from None


def _schedule(clock: FrameClock, last_frame: int, tracker_lat: list, predictor_lat):
    """The float schedule of a run from its latency blocks, as arrays:
    processed frames, arrivals, finish times, and each predictor
    invocation's availability, plus the exhausted block if a replay one
    ran out (the schedule then ends at the last step that got its
    draws; the predictor block is checked before the tracker's).

    Frame 0 arrives at 0. A step arrives at the later of the previous
    finish and its frame's capture; after frame 0, a predictor draw
    runs from each arrival before the tracker's draw does. One loop
    takes a step per processed frame over the two blocks as Python
    lists. A step that finishes before the next frame's capture idles,
    and that frame arrives at its capture; otherwise the latest frame
    captured by the finish, found by bisection among the capture
    instants so that it makes the f/κ comparisons, arrives at the
    finish."""
    captures = (np.arange(last_frame + 1) / clock.framerate_kappa).tolist()
    if predictor_lat is None:
        before, short = [0.0] * len(tracker_lat), tracker_lat
    else:
        before = [0.0, *predictor_lat]
        short = predictor_lat if len(tracker_lat) > len(predictor_lat) else tracker_lat
    frames, finishes = [], []
    f, start = 0, 0.0
    for wait, latency in zip(before, tracker_lat):
        finish = start + wait + latency
        frames.append(f)
        finishes.append(finish)
        if f == last_frame:
            short = None
            break
        if finish < captures[f + 1]:
            f += 1
            start = captures[f]
        else:
            f = bisect_right(captures, finish, f + 1) - 1
            start = finish
    frames, finishes = np.array(frames, dtype=np.int64), np.array(finishes)
    arrivals = np.maximum(np.concatenate(([0.0], finishes[:-1])), frames / clock.framerate_kappa)
    available = arrivals[1:] + before[1:len(frames)] if predictor_lat is not None else np.empty(0)
    return frames, arrivals, finishes, available, short


def _run_schedule(seq: Sequence, tracker: TrackerAdapter, predictor, seed: int):
    """_schedule over the latency blocks of one run, each stream keyed
    from `seed` and len(seq) draws long, plus the predictor draws the
    schedule used. A block that ran out comes back as the Exhausted
    error the run raises."""
    n = len(seq)
    tracker_lat = tracker.latency.draws(derive_seed(seed, "tracker-latency"), n)
    predictor_lat = (None if predictor is None
                     else predictor.latency.draws(derive_seed(seed, "predictor-latency"), n))
    *schedule, short = _schedule(seq.clock, seq.last_frame, tracker_lat, predictor_lat)
    if short is not None:
        short = Exhausted(short, "tracker" if short is tracker_lat else "predictor", seq.name)
    return (*schedule, short), () if predictor is None else predictor_lat[:len(schedule[3])]


def run_stream(seq: Sequence, tracker: TrackerAdapter, predictor: PredictorAdapter = None,
               *, seed: int = 0) -> RunLog:
    """Simulate one sequence: run_streams' batch of one."""
    return run_streams([seq], [tracker], predictor, [seed])[0]


def _schedule_and_rows(seq: Sequence, tracker: TrackerAdapter, predictor, seed: int) -> tuple:
    """A run's first pass: its float schedule, the predictor draws it
    used, and the tracker's (n, 4) rows for its processed frames."""
    schedule, predictor_lat = _run_schedule(seq, tracker, predictor, seed)
    frames = schedule[0]
    if tracker.trace is not None:
        rows = _replay_rows(tracker.trace, frames)
    else:
        rows = _oracle_rows(seq, tracker.sigma_pos, tracker.sigma_scale,
                            rng_for(seed, "tracker-noise"), frames)
    return schedule, predictor_lat, rows


def _run_log(seq: Sequence, schedule, predictor_lat, rows, horizon: int, predicted) -> RunLog:
    """A run's third pass: its outputs laid out as RunLog columns.

    Output 0 is frame 0's raw row. Each later frame adds the N rows
    predicted at its arrival (N = 0 without a predictor), then its own
    raw row, so after output 0 each column is an (n - 1, N + 1) block.
    A replay block that ran out raises here, after the rows and
    predictions of the frames before it."""
    frames, arrivals, finishes, available, exhausted = schedule
    # the raw outputs sit at the multiples of N + 1, the predicted ones between
    raw = np.arange(len(frames) + (len(frames) - 1) * horizon) % (horizon + 1) == 0
    target = np.empty(len(raw), dtype=np.int64)
    target[raw] = frames
    target[~raw] = np.add.outer(frames[:-1], np.arange(1, horizon + 1)).ravel()
    available_at = np.empty(len(raw))
    available_at[raw] = finishes
    available_at[~raw] = np.repeat(available, horizon)
    boxes = np.empty((len(raw), 4))
    boxes[raw] = rows
    boxes[~raw] = np.reshape(predicted, (-1, 4))
    if exhausted is not None:
        raise exhausted
    return RunLog(seq.name, frames, arrivals, finishes, target, available_at,
                  np.where(raw, RAW, PREDICTED), boxes, predictor_lat)


def run_streams(sequences, trackers, predictor: PredictorAdapter, seeds) -> list:
    """Simulate each sequence with its tracker and seed; one RunLog per
    sequence, each deterministic for its seed and equal to that
    sequence simulated alone.

    Every stochastic component draws from its own stream, derived from
    the run's seed under a fixed key: tracker noise, tracker latency and
    predictor latency. Each latency stream is one block of len(seq)
    draws; a run uses one tracker draw per processed frame and one
    predictor draw per later frame, and never sees the rest.

    `simulate` calls it once, and `compare` once per predictor. Three
    passes: each run's schedule and tracker rows in sequence order,
    then every prediction of every run in one `predictions` call, then
    each run's columns. A batch raises what running the
    sequences one by one would: the first failing run's error, after
    every earlier run has been laid out and checked. A run whose
    replay block runs out ends the first pass, so no later run's rows
    are read.
    """
    runs, failure = [], None
    for seq, tracker, seed in zip(sequences, trackers, seeds):
        try:
            schedule, predictor_lat, rows = _schedule_and_rows(seq, tracker, predictor, seed)
        except ValidationError as exc:  # raised once the runs before it are laid out
            failure = exc
            break
        runs.append((seq, schedule, predictor_lat, rows))
        if schedule[-1] is not None:  # its replay block ran out: no later run is read
            break
    horizon, predicted = 0, [()] * len(runs)
    if predictor is not None:
        horizon = predictor.horizon_n
        try:
            predicted = predictor.model.predictions(
                [seq.b0 for seq, *_ in runs], [schedule[0][1:] for _, schedule, *_ in runs],
                [rows[1:] for *_, rows in runs], horizon)
        except ValidationError:
            # each run predicts alone below, so the first failing one raises in its turn
            predicted = [None] * len(runs)
    logs = []
    for (seq, schedule, predictor_lat, rows), run_predicted in zip(runs, predicted):
        if run_predicted is None:
            [run_predicted] = predictor.model.predictions(
                [seq.b0], [schedule[0][1:]], [rows[1:]], horizon)
        logs.append(_run_log(seq, schedule, predictor_lat, rows, horizon, run_predicted))
    if failure is not None:
        raise failure
    return logs


def pick_horizon_n(seq: Sequence, tracker: TrackerAdapter, trials: int = HORIZON_TRIALS,
                   *, seed: int = 0) -> int:
    """Maximum frame gap observed over `trials` seeded pre-runs.

    This is how the prediction horizon N is chosen: the predictor must
    cover the worst frame skip the tracker exhibits. A pre-run stops at
    the schedule of run_stream without a predictor; a replay tracker's
    rows are read only for the error of a frame the trace lacks.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    gaps = []
    for t in range(trials):
        (frames, *_, exhausted), _ = _run_schedule(seq, tracker, None,
                                                   derive_seed(seed, "prerun", t))
        if tracker.trace is not None:
            _replay_rows(tracker.trace, frames)
        if exhausted is not None:
            raise exhausted
        gaps.append(np.diff(frames).max())
    return int(max(gaps))


# ---------------------------------------------------------------------------
# File formats

_LOG_COLUMNS = ["kind", "target_frame", "available_at", "x", "y", "w", "h"]
_TRACE_COLUMNS = ["frame", "t_start", "t_finish", "x", "y", "w", "h"]


def _write_rows(path, header, lines, manifest_ref) -> None:
    """Write a header and a run file's pre-formatted rows. The fields are
    ints, the float reprs of _run_text and the two kind names, none of
    which csv would quote, so the bytes are csv.writer's, "\r\n" row
    endings included."""
    with open(path, "w", newline="") as fh:
        if manifest_ref:
            fh.write(f"# manifest={manifest_ref}\n")
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(lines))


def _run_text(log: RunLog) -> tuple:
    """The repr of every float of a run: the t_start, t_finish and
    available_at columns and the (m, 4) boxes, as object arrays of
    strings. repr runs once per distinct float64 bit pattern, so a
    value the run repeats (a trace's finish time is its raw output's
    availability, N predictions share one) is formatted once, and -0.0
    stays apart from 0.0."""
    columns = (log.t_start, log.t_finish, log.available_at, log.boxes.ravel())
    bits, inverse = np.unique(np.concatenate(columns).view(np.uint64), return_inverse=True)
    strings = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse]
    t_start, t_finish, available_at, boxes = np.split(
        strings, np.cumsum([len(c) for c in columns[:3]]))
    return t_start, t_finish, available_at, boxes.reshape(-1, 4)


def save_run_log(log: RunLog, path, manifest_ref: str = None) -> None:
    """Write a run's outputs, one row each: kind, target frame,
    availability and box. A log with a schedule keeps its strings for
    save_trace of the same run."""
    text = _run_text(log)
    _, _, available_at, boxes = text
    _write_rows(path, _LOG_COLUMNS, [
        f"{kind},{target},{available},{x},{y},{w},{h}\r\n"
        for kind, target, available, (x, y, w, h) in zip(
            log.kind.tolist(), log.target_frame.tolist(), available_at.tolist(),
            boxes.tolist())], manifest_ref)
    if len(log.frame):
        log._text = text


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


def _checked_run_log(path, name, *columns) -> RunLog:
    with naming(path):
        return RunLog(name or Path(path).stem, *columns)


def load_run_log(path, name: str = None) -> RunLog:
    """A log file as a RunLog of outputs, with an empty schedule."""
    targets, available, kinds, boxes = [], [], [], []
    for row in _read_csv_rows(path, _LOG_COLUMNS):
        try:
            kind, target, avail, x, y, w, h = row
            targets.append(int(target))
            available.append(float(avail))
            boxes.append((float(x), float(y), float(w), float(h)))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad log row {row}: {exc}") from None
        kinds.append(kind)
    return _checked_run_log(path, name, (), (), (), targets, available, kinds,
                            np.reshape(boxes, (-1, 4)))


def save_trace(log: RunLog, path, manifest_ref: str = None) -> None:
    """Write the processed-frame schedule with its raw boxes; the file
    doubles as a replay source for scoring recorded runs. The log must
    have a full schedule whose raw outputs answer its frames in order.
    The strings save_run_log kept are used and dropped here, so they do
    not outlive the run's trace write."""
    text, log._text = log._text, None
    raw = np.flatnonzero(log.kind == RAW)
    if len(raw) != len(log.frame):
        raise ValidationError("log has no full schedule; cannot write a trace")
    wrong = np.flatnonzero(log.target_frame[raw] != log.frame)
    if len(wrong):
        i = wrong[0]
        raise ValidationError(f"frame {log.frame[i]}: its raw output answers frame "
                              f"{log.target_frame[raw[i]]}; cannot write a trace")
    t_start, t_finish, _, boxes = _run_text(log) if text is None else text
    _write_rows(path, _TRACE_COLUMNS, [
        f"{frame},{t0},{t1},{x},{y},{w},{h}\r\n"
        for frame, t0, t1, (x, y, w, h) in zip(
            log.frame.tolist(), t_start.tolist(), t_finish.tolist(),
            boxes[raw].tolist())], manifest_ref)


def load_trace(path, name: str = None) -> RunLog:
    """A trace file as a RunLog: the schedule plus one raw output per
    processed frame, available when that frame finished. Frames and
    finish times must strictly increase."""
    frames, starts, finishes, boxes = [], [], [], []
    for row in _read_csv_rows(path, _TRACE_COLUMNS):
        try:
            frame, t0, t1, x, y, w, h = row
            frame, t1 = int(frame), float(t1)
            starts.append(float(t0))
            boxes.append((float(x), float(y), float(w), float(h)))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad trace row {row}: {exc}") from None
        frames.append(frame)
        finishes.append(t1)
    return _checked_run_log(path, name, frames, starts, finishes, frames, finishes,
                            [RAW] * len(frames), np.reshape(boxes, (-1, 4)))


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
