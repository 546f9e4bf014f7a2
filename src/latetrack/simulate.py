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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .boxes import PREDICTED, RAW, BoundingBox, FrameClock, Sequence, TimedOutput
from .errors import ValidationError
from .latency import LatencyProfile
from .network import PMWeights, load_weights
from .predictors import (KalmanBoxPredictor, MotionNetPredictor, ZeroMotionPredictor,
                         load_kf_noise)
from .seeding import derive_seed, rng_for

ORACLE_NOISY = "oracle_noisy"
REPLAY_LOG = "replay_log"

NONE = "none"
ZERO_MOTION = "zero"
KF = "kf"
KF_LEARNED = "kf_learned"
NEURAL_PM = "pm"


@dataclass(frozen=True, slots=True)
class ProcessedFrame:
    j: int
    frame: int
    t_start: float
    t_finish: float

    def __post_init__(self):
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "frame", int(self.frame))
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_finish", float(self.t_finish))


@dataclass(frozen=True)
class RunLog:
    sequence_name: str
    processed: tuple
    outputs: tuple
    predictor_latencies: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "processed", tuple(self.processed))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "predictor_latencies", tuple(self.predictor_latencies))
        frames = [p.frame for p in self.processed]
        finishes = [p.t_finish for p in self.processed]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValidationError(f"processed frames must strictly increase, got {frames}")
        if any(b <= a for a, b in zip(finishes, finishes[1:])):
            raise ValidationError("finish times must strictly increase")

    @property
    def frames(self) -> tuple:
        return tuple(p.frame for p in self.processed)

    @property
    def predictor_invocations(self) -> int:
        return len(self.predictor_latencies)

    @property
    def mean_predictor_latency(self) -> float:
        if not self.predictor_latencies:
            return 0.0
        return sum(self.predictor_latencies) / len(self.predictor_latencies)


@dataclass(frozen=True)
class TrackerAdapter:
    """Config for the simulated tracker; per-run state is built inside
    run_stream so adapters can be shared across concurrent runs."""

    behavior: str
    latency: LatencyProfile
    sigma_pos: float = 0.0
    sigma_scale: float = 0.0
    seed: int = 0
    replay_boxes: tuple = ()

    def __post_init__(self):
        if self.behavior not in (ORACLE_NOISY, REPLAY_LOG):
            raise ValidationError(f"unknown tracker behavior {self.behavior!r}")
        if self.sigma_pos < 0 or self.sigma_scale < 0:
            raise ValidationError("noise sigmas must be >= 0")
        if self.behavior == REPLAY_LOG:
            object.__setattr__(self, "replay_boxes", tuple(self.replay_boxes))
            if not self.replay_boxes:
                raise ValidationError("replay tracker needs per-frame boxes")

    @classmethod
    def oracle_noisy(cls, latency: LatencyProfile, sigma_pos: float = 0.0,
                     sigma_scale: float = 0.0, seed: int = 0) -> "TrackerAdapter":
        return cls(ORACLE_NOISY, latency, sigma_pos=sigma_pos, sigma_scale=sigma_scale, seed=seed)

    @classmethod
    def replay(cls, boxes_by_frame, latency: LatencyProfile) -> "TrackerAdapter":
        return cls(REPLAY_LOG, latency, replay_boxes=tuple(sorted(boxes_by_frame.items())))


@dataclass(frozen=True)
class PredictorAdapter:
    """Which predictor runs alongside the tracker, its horizon, and the
    latency its invocations charge."""

    kind: str
    horizon_n: int
    latency: LatencyProfile
    q_diag: tuple = ()
    r_diag: tuple = ()
    weights: PMWeights = None

    def __post_init__(self):
        if self.kind not in (ZERO_MOTION, KF, KF_LEARNED, NEURAL_PM):
            raise ValidationError(f"unknown predictor kind {self.kind!r}")
        if self.horizon_n < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon_n}")
        if self.kind == KF_LEARNED and (len(self.q_diag) != 8 or len(self.r_diag) != 4):
            raise ValidationError("kf_learned needs fitted q (8) and r (4) diagonals")
        if self.kind == NEURAL_PM:
            if self.weights is None:
                raise ValidationError("pm needs trained weights")
            if self.weights.n_heads != self.horizon_n:
                raise ValidationError(
                    f"checkpoint predicts {self.weights.n_heads} frames but horizon is {self.horizon_n}"
                )

    def make_instance(self):
        if self.kind == ZERO_MOTION:
            return ZeroMotionPredictor()
        if self.kind == KF:
            return KalmanBoxPredictor()
        if self.kind == KF_LEARNED:
            return KalmanBoxPredictor(self.q_diag, self.r_diag)
        return MotionNetPredictor(self.weights)


def predictor_for(kind: str, latency: LatencyProfile, *, file=None, horizon: int = None,
                  default_horizon: int = 2):
    """The predictor vocabulary: none | zero | kf | kf_learned | pm.

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
    q_diag, r_diag, weights = (), (), None
    if kind == KF_LEARNED:
        q_diag, r_diag = load_kf_noise(file)
    if kind == NEURAL_PM:
        weights = load_weights(file)
        default_horizon = weights.n_heads
    return PredictorAdapter(kind, default_horizon if horizon is None else horizon, latency,
                            q_diag=q_diag, r_diag=r_diag, weights=weights)


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


class _OracleBoxes:
    def __init__(self, seq: Sequence, sigma_pos: float, sigma_scale: float, rng):
        self._filled = []
        last = seq.b0
        for box in seq.ground_truth:
            if box is not None:
                last = box
            self._filled.append(last)
        self._sigma_pos = sigma_pos
        self._sigma_scale = sigma_scale
        self._rng = rng

    def box_for(self, f: int) -> BoundingBox:
        gt = self._filled[f]
        if f == 0:
            return gt
        d = self._rng.normal(size=4)
        return BoundingBox(
            gt.x + self._sigma_pos * d[0],
            gt.y + self._sigma_pos * d[1],
            gt.w * math.exp(self._sigma_scale * d[2]),
            gt.h * math.exp(self._sigma_scale * d[3]),
        )


class _ReplayBoxes:
    def __init__(self, boxes):
        self._boxes = dict(boxes)

    def box_for(self, f: int) -> BoundingBox:
        try:
            return self._boxes[f]
        except KeyError:
            raise ValidationError(f"replay log has no box for frame {f}") from None


def _tracker_runtime(adapter: TrackerAdapter, seq: Sequence, seed):
    if seed is None:
        noise_rng = rng_for(adapter.seed, "tracker-noise", seq.name)
        lat_seed = None
    else:
        noise_rng = rng_for(seed, "tracker-noise")
        lat_seed = derive_seed(seed, "tracker-latency")
    if adapter.behavior == ORACLE_NOISY:
        source = _OracleBoxes(seq, adapter.sigma_pos, adapter.sigma_scale, noise_rng)
    else:
        source = _ReplayBoxes(adapter.replay_boxes)
    return source, adapter.latency.sampler(lat_seed)


def run_stream(seq: Sequence, tracker: TrackerAdapter, predictor: PredictorAdapter = None,
               *, seed: int = None) -> RunLog:
    """Simulate one sequence; deterministic for a fixed seed.

    `seed`, when given, overrides every stochastic component's own seed
    through fixed-key derivation, which is what the CLI and multi-trial
    helpers use.
    """
    source, tracker_latency = _tracker_runtime(tracker, seq, seed)
    instance = None
    if predictor is not None:
        instance = predictor.make_instance()
        instance.reset(seq.b0)
        pred_lat_seed = None if seed is None else derive_seed(seed, "predictor-latency")
        predictor_latency = predictor.latency.sampler(pred_lat_seed)

    outputs = []
    processed = []
    pred_lats = []
    prev_frame = None
    prev_finish = 0.0
    j = 0
    while True:
        if prev_frame is None:
            f = 0
        else:
            f = next_frame(seq.clock, prev_finish, prev_frame, seq.last_frame)
            if f is None:
                break
        arrival = max(prev_finish, seq.clock.capture_time(f))
        track_start = arrival
        if instance is not None and prev_frame is not None:
            lat_p = predictor_latency.draw()
            available = arrival + lat_p
            for i, box in enumerate(instance.predict(predictor.horizon_n), start=1):
                outputs.append(TimedOutput(prev_frame + i, box, available, PREDICTED))
            pred_lats.append(lat_p)
            track_start = available
        finish = track_start + tracker_latency.draw()
        box = source.box_for(f)
        outputs.append(TimedOutput(f, box, finish, RAW))
        processed.append(ProcessedFrame(j, f, arrival, finish))
        if instance is not None and f >= 1:
            instance.observe(f, box)
        prev_frame, prev_finish = f, finish
        j += 1
    return RunLog(seq.name, tuple(processed), tuple(outputs), tuple(pred_lats))


def pick_horizon_n(seq: Sequence, tracker: TrackerAdapter, trials: int = 3,
                   *, seed: int = 0) -> int:
    """Maximum frame gap observed over `trials` seeded pre-runs.

    This is how the prediction horizon N is chosen: the predictor must
    cover the worst frame skip the tracker exhibits.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    worst = 0
    for t in range(trials):
        frames = run_stream(seq, tracker, seed=derive_seed(seed, "prerun", t)).frames
        worst = max(worst, max(b - a for a, b in zip(frames, frames[1:])))
    return worst


# ---------------------------------------------------------------------------
# File formats

_LOG_COLUMNS = ["kind", "target_frame", "available_at", "x", "y", "w", "h"]
_TRACE_COLUMNS = ["frame", "t_start", "t_finish", "x", "y", "w", "h"]


def save_run_log(log: RunLog, path, manifest_ref: str = None) -> None:
    with open(path, "w", newline="") as fh:
        if manifest_ref:
            fh.write(f"# manifest={manifest_ref}\n")
        writer = csv.writer(fh)
        writer.writerow(_LOG_COLUMNS)
        for out in log.outputs:
            writer.writerow([out.kind, out.target_frame, repr(out.available_at),
                             repr(out.box.x), repr(out.box.y), repr(out.box.w), repr(out.box.h)])


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


def load_run_log(path, name: str = None) -> RunLog:
    outputs = []
    for row in _read_csv_rows(path, _LOG_COLUMNS):
        try:
            kind, target, avail, x, y, w, h = row
            outputs.append(TimedOutput(int(target), BoundingBox(float(x), float(y), float(w), float(h)),
                                       float(avail), kind))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}: bad log row {row}: {exc}") from None
    return RunLog(name or Path(path).stem, (), tuple(outputs))


def save_trace(log: RunLog, path, manifest_ref: str = None) -> None:
    """Write the processed-frame schedule with its raw boxes; the file
    doubles as a replay source for scoring recorded runs."""
    raw = [o for o in log.outputs if o.kind == RAW]
    if len(raw) != len(log.processed):
        raise ValidationError("log has no full schedule; cannot write a trace")
    with open(path, "w", newline="") as fh:
        if manifest_ref:
            fh.write(f"# manifest={manifest_ref}\n")
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for p, out in zip(log.processed, raw):
            writer.writerow([p.frame, repr(p.t_start), repr(p.t_finish),
                             repr(out.box.x), repr(out.box.y), repr(out.box.w), repr(out.box.h)])


def load_trace(path):
    """Trace rows as (frame, t_start, t_finish, box) tuples."""
    rows = []
    for row in _read_csv_rows(path, _TRACE_COLUMNS):
        try:
            frame, t0, t1, x, y, w, h = row
            rows.append((int(frame), float(t0), float(t1),
                         BoundingBox(float(x), float(y), float(w), float(h))))
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}: bad trace row {row}: {exc}") from None
    return rows


def run_log_from_trace(rows, name: str) -> RunLog:
    """Turn a recorded tracker trace into a scorable RunLog."""
    processed = tuple(ProcessedFrame(j, frame, t0, t1)
                      for j, (frame, t0, t1, _) in enumerate(rows))
    outputs = tuple(TimedOutput(frame, box, t1, RAW) for frame, _, t1, box in rows)
    return RunLog(name, processed, outputs)


def replay_adapter_from_trace(rows) -> TrackerAdapter:
    """Tracker that re-emits a recorded trace's boxes with its recorded
    per-frame durations."""
    boxes = {frame: box for frame, _, _, box in rows}
    durations = [t1 - t0 for _, t0, t1, _ in rows]
    return TrackerAdapter.replay(boxes, LatencyProfile.replay(durations))
