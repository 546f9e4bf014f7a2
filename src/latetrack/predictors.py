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

Each of (cx, cy, w, h) has its own constant-velocity filter over
(position, per-frame velocity). The transition [[I, I], [0, I]], the
measurement [I, 0] and diagonal Q, R and initial covariance never couple
coordinates, so the 8-state filter is exactly four independent 2-state
filters, each with covariance [[a, b], [b, c]] and scalar innovation
variance a + r. Updates are gap-aware because a slow tracker skips
frames: the transition is applied once per skipped frame, then a single
measurement correction runs. The closed-form Joseph correction keeps
each block symmetric by construction and PSD.

The motion-net wrapper keeps its window as the (k, 4) motion and (k,)
gap arrays a training window holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ValidationError
from .motion import encode_motion, encode_motion_rows
from .network import PMWeights, pm_predict
from .seeding import rng_for

DEFAULT_Q_DIAG = (1e-2, 1e-2, 1e-2, 1e-2, 1e-3, 1e-3, 1e-3, 1e-3)
DEFAULT_R_DIAG = (1.0, 1.0, 1.0, 1.0)
DEFAULT_INIT_COV = 10.0


@dataclass(frozen=True)
class KalmanState:
    """Per coordinate (cx, cy, w, h): position and velocity means and the
    covariance [[a, b], [b, c]]; plus the Q (8) and R (4) diagonals.
    make_kf_state builds and validates it; updates return new states."""

    pos: np.ndarray
    vel: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    q_diag: np.ndarray
    r_diag: np.ndarray


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


def _check_init_cov(init_cov: float) -> float:
    init_cov = float(init_cov)
    if not 0.0 < init_cov < np.inf:
        raise ValidationError(f"initial covariance must be positive and finite, got {init_cov}")
    return init_cov


def _measurement(box) -> np.ndarray:
    x, y, w, h = box
    return np.array((x + w / 2.0, y + h / 2.0, w, h))


def make_kf_state(b0, q_diag=None, r_diag=None,
                  init_cov: float = DEFAULT_INIT_COV) -> KalmanState:
    """Zero-velocity state centered on b0 (a box or row) with diagonal
    initial covariance. The one place a state's noise and init_cov are
    checked."""
    q_diag, r_diag = _check_noise(q_diag, r_diag)
    init_cov = _check_init_cov(init_cov)
    return KalmanState(pos=_measurement(b0), vel=np.zeros(4),
                       a=np.full(4, init_cov), b=np.zeros(4), c=np.full(4, init_cov),
                       q_diag=q_diag, r_diag=r_diag)


def _kf_step(pos, vel, a, b, c, q, r, z, gap: int):
    """One gap-aware update of the four filters: `gap` single-frame time
    updates, then one correction on the measurement z (cx, cy, w, h).

    pos, vel and z are one state (4,) or a stack (n, 4) of states that
    share the covariance blocks a, b, c (4,) each; q is the Q diagonal
    (8,) and r the R diagonal (4,). The covariance and gain depend only
    on (a, b, c, q, r, gap), never on z, so a stack of windows with one
    gap pattern shares a single covariance recursion. With r > 0 and
    a >= 0 the innovation variance s = a + r is positive.
    """
    q_pos, q_vel = q[:4], q[4:]
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


def kf_update(state: KalmanState, measured, gap: int = 1) -> KalmanState:
    """Advance the filter `gap` frames, then correct on the measured box
    or row.

    The gap update is literally `gap` single-frame time updates, so a
    gap-2 update equals two gap-1 time updates followed by one
    correction, covariance included. The state was validated when
    make_kf_state built it; only the gap is checked here.
    """
    if gap < 1:
        raise ValidationError(f"gap must be >= 1, got {gap}")
    pos, vel, a, b, c = _kf_step(state.pos, state.vel, state.a, state.b, state.c,
                                 state.q_diag, state.r_diag, _measurement(measured), gap)
    return KalmanState(pos, vel, a, b, c, state.q_diag, state.r_diag)


def kf_predict(state: KalmanState, horizon: int) -> list:
    """Roll the transition forward without corrections; one (x, y, w, h)
    row per step.

    Emitted sizes are clamped at 1 px; the internal rollout is not, so
    the N-step prediction composes exactly from single steps.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    pos = state.pos
    rows = []
    for _ in range(horizon):
        pos = pos + state.vel
        cx, cy, w, h = pos.tolist()
        w, h = max(w, 1.0), max(h, 1.0)
        rows.append((cx - w / 2.0, cy - h / 2.0, w, h))
    return rows


def zero_motion_predict(last, horizon: int) -> list:
    """Control baseline: the latest box or row carried forward."""
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    return [last] * horizon


class ZeroMotionPredictor:
    def __init__(self):
        self._latest = None

    def reset(self, b0) -> None:
        self._latest = tuple(b0)

    def observe(self, frame: int, row) -> None:
        self._latest = tuple(row)

    def predict(self, horizon: int) -> list:
        return zero_motion_predict(self._latest, horizon)


class KalmanBoxPredictor:
    def __init__(self, q_diag=None, r_diag=None, init_cov: float = DEFAULT_INIT_COV):
        self.q_diag, self.r_diag = _check_noise(q_diag, r_diag)
        self.init_cov = _check_init_cov(init_cov)
        self._state = None
        self._frame = 0

    def reset(self, b0) -> None:
        self._state = make_kf_state(b0, self.q_diag, self.r_diag, self.init_cov)
        self._frame = 0

    def observe(self, frame: int, row) -> None:
        gap = frame - self._frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self._frame} -> {frame}")
        self._state = kf_update(self._state, row, gap)
        self._frame = frame

    def predict(self, horizon: int) -> list:
        return kf_predict(self._state, horizon)


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

    def predict(self, horizon: int) -> list:
        if horizon != self.weights.n_heads:
            raise ValidationError(
                f"network predicts exactly {self.weights.n_heads} frames, asked for {horizon}"
            )
        return pm_predict(self.weights, self._motions, self._intervals, self._latest)


def kf_motion_batch(horizon_n: int, q_diag=None, r_diag=None,
                    init_cov: float = DEFAULT_INIT_COV):
    """Window predictor wrapping the Kalman filter.

    For each window the filter starts on the oldest of its boxes, runs
    over the remaining k boxes at their recorded frame gaps, then rolls
    N frames out. Predictions are re-encoded as motions from the
    window's anchor box.

    The result equals a fresh KalmanBoxPredictor per window, but the
    covariance blocks a, b, c run once per gap pattern (8 for k=3 and
    strides {1, 2}) while the means of all that pattern's windows move
    as one (n, 4) stack through the same _kf_step. This is exact, not an
    approximation: the recursion depends only on (Q, R, init_cov, the
    gaps), never on the measured boxes. Noise, horizon and gaps are
    validated once per call rather than once per window.
    """
    if horizon_n < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon_n}")
    q_diag, r_diag = _check_noise(q_diag, r_diag)
    init_cov = _check_init_cov(init_cov)

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
            a, b, c = np.full(4, init_cov), np.zeros(4), np.full(4, init_cov)
            for j, gap in enumerate(gaps.tolist(), start=1):
                pos, vel, a, b, c = _kf_step(pos, vel, a, b, c, q_diag, r_diag, boxes[:, j], gap)
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


def kf_fit_noise(tracks, init: KalmanState, config=None, *, k: int = 3,
                 stride_set=(1, 2), max_windows: int = 400):
    """Fit the Q/R diagonals by gradient descent on their logs.

    Tracks are what sample_windows takes, and windows come from it; the
    objective is the filter's one-frame-step prediction error in motion
    space after re-running it over each window's boxes. Gradients are
    central finite differences on the 12 log-parameters; steps reuse the
    trainer's AdamW. Tracks split 90/10 for validation; the returned
    diagonals are best-on-validation with the init always a candidate,
    so the fit never leaves validation worse than the starting point.

    Each loss evaluation is one kf_motion_batch call, which runs the
    four filters' covariance recursion once per gap pattern rather than
    once per window. That is exact: the recursion depends on Q, R, the
    initial covariance and the gaps, never on the measurements. The
    initial covariance is init's (every block starts at a = c =
    init_cov, b = 0).
    """
    from .training import AdamW, OptimizerConfig, Windows, motion_l1_on_samples, sample_windows

    if config is None:
        config = OptimizerConfig(epochs=30, milestones=(20,))
    tracks = list(tracks)
    if not tracks:
        raise ValidationError("need at least one trajectory")
    order = list(rng_for(config.seed, "kf-fit-split").permutation(len(tracks)))
    n_val = max(1, len(tracks) // 10) if len(tracks) > 1 else 0
    val_idx = set(order[:n_val])

    def windows(indices, tag):
        out = Windows.concat(sample_windows(tracks[i], k, 1, stride_set,
                                            rng_for(config.seed, "kf-fit-windows", tag, i))
                             for i in indices)
        if len(out) > max_windows:
            keep = rng_for(config.seed, "kf-fit-thin", tag).choice(
                len(out), size=max_windows, replace=False)
            out = out[np.sort(keep)]
        return out

    train_w = windows([i for i in range(len(tracks)) if i not in val_idx], "train")
    val_w = windows(sorted(val_idx), "val") if val_idx else train_w
    init_cov = float(init.a[0])

    def loss(theta, batch):
        predict = kf_motion_batch(1, np.exp(theta[:8]), np.exp(theta[8:]), init_cov=init_cov)
        return motion_l1_on_samples(batch, predict)

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
