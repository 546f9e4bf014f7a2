"""Box predictors: constant-velocity Kalman filter, learned-noise variant,
zero-motion control, and the trained motion-network wrapper.

All predictors speak one online protocol on plain (x, y, w, h) rows of
floats, the form boxes take inside the simulation loop:

    reset(b0)            initialize at frame 0 with the ground-truth box
    observe(frame, row)  feed a raw tracker output (frames strictly increase)
    predict(horizon)     rows for the `horizon` frames after the last observed

A BoundingBox unpacks as its row, so b0 and observations may be either.
Rows are not checked here: run_stream checks every emitted row once,
when its RunLog is built.

run_stream asks for a whole run at once: predictions(b0, frames, rows,
horizon) gives, for each observed frame, the rows predict returned just
before that frame was observed. The Kalman filter and the zero-motion
control loop their reset, observe and predict; the motion net builds
every window of the run at once and runs them in one pm_predict call.

Each of (cx, cy, w, h) has its own constant-velocity filter over
(position, per-frame velocity). The transition [[I, I], [0, I]], the
measurement [I, 0] and diagonal Q, R and initial covariance (a fixed
DEFAULT_INIT_COV on each position and velocity) never couple
coordinates, so the 8-state filter is exactly four independent 2-state
filters, each with covariance [[a, b], [b, c]] and scalar innovation
variance a + r. Updates are gap-aware because a slow tracker skips
frames: the transition is applied once per skipped frame, then a single
measurement correction runs. The closed-form Joseph correction keeps
each block symmetric by construction and PSD.

KalmanBoxPredictor is the one online filter: its state is four (pos,
vel, a, b, c) float tuples, which kf_update and kf_predict advance.
kf_motion_batch runs the same _kf_step on (n, 4) stacks of windows, and
kf_fit_noise reads Q and R from the predictor it starts from.
make_kf_state (a predictor reset at b0) is kept only for the
benchmark's noise-fit step.

The motion-net wrapper keeps its window as the (k, 4) motion and (k,)
gap arrays a training window holds. A run's windows are those arrays
at each invocation, stacked: the run's motions and gaps, left-padded
with k zero motions at gap 1, read k rows at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ValidationError
from .motion import encode_motion, encode_motion_rows
from .network import PMWeights, pm_predict
from .seeding import rng_for
from .training import AdamW, OptimizerConfig, Windows, motion_l1_on_samples, sample_windows

DEFAULT_Q_DIAG = (1e-2, 1e-2, 1e-2, 1e-2, 1e-3, 1e-3, 1e-3, 1e-3)
DEFAULT_R_DIAG = (1.0, 1.0, 1.0, 1.0)
DEFAULT_INIT_COV = 10.0


def _check_noise(q_diag, r_diag):
    """Q and R diagonals as float arrays, defaults for None; each entry
    must be positive and finite."""
    q = np.asarray(DEFAULT_Q_DIAG if q_diag is None else q_diag, dtype=np.float64)
    r = np.asarray(DEFAULT_R_DIAG if r_diag is None else r_diag, dtype=np.float64)
    if q.shape != (8,) or r.shape != (4,):
        raise ValidationError(f"need 8 Q and 4 R entries, got shapes {q.shape} and {r.shape}")
    if not (np.all((0.0 < q) & (q < np.inf)) and np.all((0.0 < r) & (r < np.inf))):
        raise ValidationError("Q and R diagonals must be positive and finite")
    return q, r


def _kf_step(pos, vel, a, b, c, q_pos, q_vel, r, z, gap: int):
    """One gap-aware update of a (position, velocity) filter: `gap`
    single-frame time updates, then one correction on the measurement z.

    Every argument but gap is a float for one coordinate's filter, or an
    array for many: kf_motion_batch passes (n, 4) stacks of pos, vel and
    z that share the (4,) covariance blocks a, b, c and noise q_pos,
    q_vel, r. Python floats and numpy round each + - * / alike and fuse
    none, so both forms give the same bits. The covariance and gain
    depend only on (a, b, c, q, r, gap), never on z, so a stack of
    windows with one gap pattern shares a single covariance recursion.
    With r > 0 and a >= 0 the innovation variance s = a + r is positive.
    """
    for _ in range(gap):
        pos = pos + vel
        bc = b + c
        a = a + b + bc + q_pos
        b = bc
        c = c + q_vel
    s = a + r
    k1, k2 = a / s, b / s
    innov = z - pos
    pos = pos + k1 * innov
    vel = vel + k2 * innov
    # Joseph form (I - KH) P (I - KH)^T + K r K^T with I - KH = [[1 - k1, 0], [-k2, 1]]
    j = 1.0 - k1
    return (pos, vel, j * j * a + k1 * k1 * r, j * (b - k2 * a) + k1 * k2 * r,
            c - 2.0 * k2 * b + k2 * k2 * s)


def kf_update(filters, q_diag, r_diag, row, gap: int) -> tuple:
    """The four filters advanced `gap` frames, then corrected on the
    measured (x, y, w, h) row.

    The gap update is literally `gap` single-frame time updates, so a
    gap-2 update equals two gap-1 time updates followed by one
    correction, covariance included. KalmanBoxPredictor checked the
    noise and the gap; nothing is checked here.
    """
    x, y, w, h = row
    return tuple(_kf_step(*f, q_pos, q_vel, r, z, gap) for f, q_pos, q_vel, r, z in
                 zip(filters, q_diag, q_diag[4:], r_diag, (x + w / 2.0, y + h / 2.0, w, h)))


def kf_predict(filters, horizon: int) -> list:
    """Roll the transition forward without corrections; one (x, y, w, h)
    row per step.

    Emitted sizes are clamped at 1 px; the internal rollout is not, so
    the N-step prediction composes exactly from single steps.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    (cx, vx, *_), (cy, vy, *_), (w, vw, *_), (h, vh, *_) = filters
    rows = []
    for _ in range(horizon):
        cx, cy, w, h = cx + vx, cy + vy, w + vw, h + vh
        ew, eh = max(w, 1.0), max(h, 1.0)
        rows.append((cx - ew / 2.0, cy - eh / 2.0, ew, eh))
    return rows


class OnlinePredictor:
    """A run's predictions from the online protocol of a subclass."""

    def predictions(self, b0, frames, rows, horizon: int) -> list:
        """After reset(b0), for each of `frames` (strictly increasing,
        >= 1) the rows predict(horizon) returns before observe(frame,
        row) runs; every row is observed, the last included."""
        self.reset(b0)
        out = []
        for frame, row in zip(frames, rows):
            out.append(self.predict(horizon))
            self.observe(frame, row)
        return out


class ZeroMotionPredictor(OnlinePredictor):
    """Control baseline: the latest box or row carried forward."""

    def __init__(self):
        self._latest = None

    def reset(self, b0) -> None:
        self._latest = tuple(b0)

    def observe(self, frame: int, row) -> None:
        self._latest = tuple(row)

    def predict(self, horizon: int) -> list:
        if horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        return [self._latest] * horizon


class KalmanBoxPredictor(OnlinePredictor):
    """The online Kalman filter. Noise is checked once, here, and kept as
    float tuples. The state is `filters`: one (pos, vel, a, b, c) float
    tuple per coordinate (cx, cy, w, h), which reset fills from b0 with
    zero velocity and covariance diag(DEFAULT_INIT_COV)."""

    def __init__(self, q_diag=None, r_diag=None):
        q, r = _check_noise(q_diag, r_diag)
        self.q_diag, self.r_diag = tuple(q.tolist()), tuple(r.tolist())
        self.filters = None
        self._frame = 0

    def reset(self, b0) -> None:
        x, y, w, h = b0
        p = DEFAULT_INIT_COV
        self.filters = tuple((z, 0.0, p, 0.0, p) for z in (x + w / 2.0, y + h / 2.0, w, h))
        self._frame = 0

    def observe(self, frame: int, row) -> None:
        gap = frame - self._frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self._frame} -> {frame}")
        self.filters = kf_update(self.filters, self.q_diag, self.r_diag, row, gap)
        self._frame = frame

    def predict(self, horizon: int) -> list:
        return kf_predict(self.filters, horizon)


def make_kf_state(b0, q_diag=None, r_diag=None) -> KalmanBoxPredictor:
    """A KalmanBoxPredictor reset at b0."""
    predictor = KalmanBoxPredictor(q_diag, r_diag)
    predictor.reset(b0)
    return predictor


class MotionNetPredictor:
    """Online wrapper around trained motion-factor weights.

    The window is a (k, 4) motion array and a (k,) frame-gap array,
    oldest first. A reset fills them with zero motions of gap 1, and
    each observation shifts them one row and writes the newest last, so
    until k real motions have been observed the window is left-padded
    with zero motion, which pulls early predictions toward plain
    zero-motion.
    """

    def __init__(self, weights: PMWeights):
        self.weights = weights
        self._latest = None
        self._frame = 0

    def reset(self, b0) -> None:
        self._motions = np.zeros((self.weights.k, 4))
        self._intervals = np.ones(self.weights.k)
        self._latest = tuple(b0)
        self._frame = 0

    def observe(self, frame: int, row) -> None:
        gap = frame - self._frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self._frame} -> {frame}")
        motion = encode_motion(self._latest, row)
        self._motions[:-1] = self._motions[1:]
        self._intervals[:-1] = self._intervals[1:]
        self._motions[-1] = motion
        self._intervals[-1] = gap
        self._latest = tuple(row)
        self._frame = frame

    def _check_horizon(self, horizon: int) -> None:
        if horizon != self.weights.n_heads:
            raise ValidationError(
                f"network predicts exactly {self.weights.n_heads} frames, asked for {horizon}"
            )

    def predict(self, horizon: int) -> list:
        self._check_horizon(horizon)
        return pm_predict(self.weights, self._motions[None], self._intervals[None],
                          [self._latest])[0]

    def predictions(self, b0, frames, rows, horizon: int) -> list:
        """predict before each observation, as OnlinePredictor defines
        it, for the whole run in one pm_predict call. The invocation
        before observation i (from 0) reads rows i .. i+k-1 of the
        padded motions and gaps, the last k before it. The motions are
        encode_motion's numbers, all encoded and checked at once; the
        frames are not checked, as run_stream's schedule strictly
        increases."""
        self._check_horizon(horizon)
        if not len(frames):
            return []
        k = self.weights.k
        boxes = np.array([tuple(b0), *map(tuple, rows)])
        centers = np.concatenate([boxes[:, :2] + boxes[:, 2:] / 2.0, boxes[:, 2:]], axis=1)
        motions = np.concatenate([np.zeros((k, 4)), encode_motion_rows(centers[:-1], centers[1:])])
        gaps = np.concatenate([np.ones(k), np.diff(frames, prepend=0)])
        window = np.arange(len(frames))[:, None] + np.arange(k)
        return pm_predict(self.weights, motions[window], gaps[window], boxes[:-1].tolist())


def kf_motion_batch(horizon_n: int, q_diag=None, r_diag=None):
    """Window predictor wrapping the Kalman filter.

    For each window the filter starts on the oldest of its boxes, runs
    over the remaining k boxes at their recorded frame gaps, then rolls
    N frames out. Predictions are re-encoded as motions from the
    window's anchor box.

    The result equals a fresh KalmanBoxPredictor per window, but the
    covariance blocks a, b, c run once per gap pattern (8 for k=3 and
    strides {1, 2}) while the means of all that pattern's windows move
    as one (n, 4) stack through the same _kf_step. This is exact, not an
    approximation: the recursion depends only on (Q, R, DEFAULT_INIT_COV,
    the gaps), never on the measured boxes. Noise, horizon and gaps are
    validated once per call rather than once per window.
    """
    if horizon_n < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon_n}")
    q_diag, r_diag = _check_noise(q_diag, r_diag)

    def predict(windows):
        if np.any(windows.intervals < 1):
            raise ValidationError("observations must advance frames; window gaps must be >= 1")
        patterns, which = np.unique(windows.intervals, axis=0, return_inverse=True)
        which = which.reshape(-1)  # not 1-D in every numpy release
        out = np.empty((len(windows), horizon_n, 4))
        for g, gaps in enumerate(patterns):
            idx = np.flatnonzero(which == g)
            boxes = windows.boxes[idx]
            pos, vel = boxes[:, 0], np.zeros((len(idx), 4))
            a, b, c = np.full(4, DEFAULT_INIT_COV), np.zeros(4), np.full(4, DEFAULT_INIT_COV)
            for j, gap in enumerate(gaps.tolist(), start=1):
                pos, vel, a, b, c = _kf_step(pos, vel, a, b, c, q_diag[:4], q_diag[4:], r_diag,
                                             boxes[:, j], gap)
            rollout = np.empty((len(idx), horizon_n, 4))
            for n in range(horizon_n):
                pos = pos + vel
                rollout[:, n] = pos
            rollout[..., 2:] = np.maximum(rollout[..., 2:], 1.0)
            out[idx] = encode_motion_rows(boxes[:, -1:], rollout)
        return out
    return predict


def save_kf_noise(q_diag, r_diag, path, manifest_ref=None) -> None:
    """Fitted noise diagonals as a JSON document {q: [8], r: [4]}."""
    q, r = _check_noise(q_diag, r_diag)
    doc = {"q": q.tolist(), "r": r.tolist()}
    if manifest_ref is not None:
        doc["manifest"] = manifest_ref
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_kf_noise(path):
    try:
        doc = json.loads(Path(path).read_text())
        q = tuple(float(v) for v in doc["q"])
        r = tuple(float(v) for v in doc["r"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise ValidationError(f"{path}: not a fitted-noise file (JSON with q and r lists)") from None
    try:
        _check_noise(q, r)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return q, r


def kf_fit_noise(tracks, init: KalmanBoxPredictor, config=None, *, max_windows: int = 400):
    """Fit the Q/R diagonals by gradient descent on their logs.

    Tracks are what sample_windows takes, and windows come from it, with
    k = 3 history steps at strides {1, 2}; the objective is the filter's
    one-frame-step prediction error in motion space after re-running it
    over each window's boxes. The fit starts from init's Q and R
    diagonals; nothing else of init, such as the frames it has observed,
    is read. Gradients are central finite differences on the 12
    log-parameters; steps reuse the trainer's AdamW. Tracks split 90/10
    for validation; the returned diagonals are best-on-validation with
    the init always a candidate, so the fit never leaves validation
    worse than the starting point.

    Each loss evaluation is one kf_motion_batch call, which runs the
    four filters' covariance recursion once per gap pattern rather than
    once per window. That is exact: the recursion depends on Q, R, the
    initial covariance and the gaps, never on the measurements.
    """
    if config is None:
        config = OptimizerConfig(epochs=30, milestones=(20,))
    tracks = list(tracks)
    if not tracks:
        raise ValidationError("need at least one trajectory")
    order = list(rng_for(config.seed, "kf-fit-split").permutation(len(tracks)))
    n_val = max(1, len(tracks) // 10) if len(tracks) > 1 else 0
    val_idx = set(order[:n_val])

    def windows(indices, tag):
        out = Windows.concat(sample_windows(tracks[i], 3, 1, (1, 2),
                                            rng_for(config.seed, "kf-fit-windows", tag, i))
                             for i in indices)
        if len(out) > max_windows:
            keep = rng_for(config.seed, "kf-fit-thin", tag).choice(
                len(out), size=max_windows, replace=False)
            out = out[np.sort(keep)]
        return out

    train_w = windows([i for i in range(len(tracks)) if i not in val_idx], "train")
    val_w = windows(sorted(val_idx), "val") if val_idx else train_w

    def loss(theta, batch):
        return motion_l1_on_samples(batch, kf_motion_batch(1, np.exp(theta[:8]), np.exp(theta[8:])))

    theta = np.log(np.concatenate([init.q_diag, init.r_diag]))
    best_theta = theta.copy()
    best_val = loss(theta, val_w)

    opt = AdamW(config)
    h = 1e-4
    for step in range(1, config.epochs + 1):
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            grad[i] = (loss(theta + bump, train_w) - loss(theta - bump, train_w)) / (2 * h)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite fitting gradient at step {step}")
        opt.step(theta, grad, epoch=step)
        val = loss(theta, val_w)
        if not np.isfinite(val):
            raise DivergenceError(f"non-finite validation loss at step {step}: {val}")
        if val < best_val:
            best_val = val
            best_theta = theta.copy()
    return np.exp(best_theta[:8]), np.exp(best_theta[8:])
