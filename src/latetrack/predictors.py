"""Box predictors: constant-velocity Kalman filter, learned-noise variant,
zero-motion control, and the trained motion-network wrapper.

All predictors speak one online protocol:

    reset(b0)            initialize at frame 0 with the ground-truth box
    observe(frame, box)  feed a raw tracker output (frames strictly increase)
    predict(horizon)     boxes for the `horizon` frames after the last observed

The Kalman state is 8-dimensional: (cx, cy, w, h) plus their per-frame
velocities. Updates are gap-aware because a slow tracker skips frames:
the transition is applied once per skipped frame, then a single
measurement correction runs. Joseph-form correction plus explicit
symmetrization keeps the covariance PSD.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import BoundingBox
from .errors import DivergenceError, ValidationError
from .motion import (MotionHistory, NormalizedMotion, encode_motion, encode_motion_rows,
                     unroll_history)
from .network import PMWeights, pm_predict
from .seeding import rng_for

DEFAULT_Q_DIAG = (1e-2, 1e-2, 1e-2, 1e-2, 1e-3, 1e-3, 1e-3, 1e-3)
DEFAULT_R_DIAG = (1.0, 1.0, 1.0, 1.0)
DEFAULT_INIT_COV = 10.0

_F = np.eye(8)
for _i in range(4):
    _F[_i, _i + 4] = 1.0
_H = np.zeros((4, 8))
_H[:4, :4] = np.eye(4)


@dataclass(frozen=True)
class KalmanState:
    """Filter mean, covariance, and noise diagonals. Value semantics:
    updates return new states and never mutate the arrays in place."""

    x: np.ndarray
    cov: np.ndarray
    q_diag: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=np.float64))
        object.__setattr__(self, "q_diag", np.asarray(self.q_diag, dtype=np.float64))
        object.__setattr__(self, "r_diag", np.asarray(self.r_diag, dtype=np.float64))
        if self.x.shape != (8,) or self.cov.shape != (8, 8):
            raise ValidationError(f"state must be 8-dim, got x{self.x.shape}, cov{self.cov.shape}")
        _check_noise(self.q_diag, self.r_diag)


def _check_noise(q_diag: np.ndarray, r_diag: np.ndarray) -> None:
    if q_diag.shape != (8,) or r_diag.shape != (4,):
        raise ValidationError("Q diagonal must have 8 entries and R diagonal 4")
    if np.any(q_diag <= 0) or np.any(r_diag <= 0):
        raise ValidationError("Q and R diagonals must be strictly positive")


def _check_init_cov(init_cov: float) -> float:
    init_cov = float(init_cov)
    if not 0.0 < init_cov < np.inf:
        raise ValidationError(f"initial covariance must be positive and finite, got {init_cov}")
    return init_cov


def make_kf_state(b0: BoundingBox, q_diag=None, r_diag=None,
                  init_cov: float = DEFAULT_INIT_COV) -> KalmanState:
    """Zero-velocity state centered on b0 with diagonal initial covariance."""
    x = np.zeros(8)
    x[:4] = (b0.cx, b0.cy, b0.w, b0.h)
    return KalmanState(
        x=x,
        cov=np.eye(8) * _check_init_cov(init_cov),
        q_diag=DEFAULT_Q_DIAG if q_diag is None else q_diag,
        r_diag=DEFAULT_R_DIAG if r_diag is None else r_diag,
    )


def _kf_step(x: np.ndarray, p: np.ndarray, q: np.ndarray, r: np.ndarray,
             z: np.ndarray, gap: int):
    """One gap-aware update: `gap` single-frame time updates, then one
    correction on the measurement z (cx, cy, w, h).

    x is one state (8,) or a stack (n, 8) of states sharing the
    covariance p; z matches it as (4,) or (n, 4). The covariance and
    gain depend only on (p, q, r, gap), never on z, so a stack of
    windows with one gap pattern shares a single covariance recursion.
    """
    for _ in range(gap):
        x = x @ _F.T
        p = _F @ p @ _F.T + q
    s = _H @ p @ _H.T + r
    try:
        k_gain = np.linalg.solve(s.T, (_H @ p.T)).T
    except np.linalg.LinAlgError:
        raise ValidationError("innovation covariance is not invertible; degenerate R") from None
    x = x + (z - x[..., :4]) @ k_gain.T
    ikh = np.eye(8) - k_gain @ _H
    p = ikh @ p @ ikh.T + k_gain @ r @ k_gain.T
    return x, (p + p.T) / 2.0


def kf_update(state: KalmanState, measured: BoundingBox, gap: int = 1) -> KalmanState:
    """Advance the filter `gap` frames, then correct on the measured box.

    The gap update is literally `gap` single-frame time updates, so a
    gap-2 update equals two gap-1 time updates followed by one
    correction, covariance included.
    """
    if gap < 1:
        raise ValidationError(f"gap must be >= 1, got {gap}")
    z = np.array((measured.cx, measured.cy, measured.w, measured.h))
    x, p = _kf_step(state.x, state.cov, np.diag(state.q_diag), np.diag(state.r_diag), z, gap)
    return KalmanState(x=x, cov=p, q_diag=state.q_diag, r_diag=state.r_diag)


def _state_box(x: np.ndarray) -> BoundingBox:
    w = max(x[2], 1.0)
    h = max(x[3], 1.0)
    return BoundingBox.from_center(x[0], x[1], w, h)


def kf_predict(state: KalmanState, horizon: int) -> list:
    """Roll the transition forward without corrections; one box per step.

    Emitted sizes are clamped at 1 px; the internal rollout is not, so
    the N-step prediction composes exactly from single steps.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    x = state.x
    boxes = []
    for _ in range(horizon):
        x = _F @ x
        boxes.append(_state_box(x))
    return boxes


def zero_motion_predict(last: BoundingBox, horizon: int) -> list:
    """Control baseline: the latest box carried forward."""
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    return [last] * horizon


class ZeroMotionPredictor:
    def __init__(self):
        self._latest = None

    def reset(self, b0: BoundingBox) -> None:
        self._latest = b0

    def observe(self, frame: int, box: BoundingBox) -> None:
        self._latest = box

    def predict(self, horizon: int) -> list:
        return zero_motion_predict(self._latest, horizon)


class KalmanBoxPredictor:
    def __init__(self, q_diag=None, r_diag=None, init_cov: float = DEFAULT_INIT_COV):
        self.q_diag = None if q_diag is None else np.asarray(q_diag, dtype=np.float64)
        self.r_diag = None if r_diag is None else np.asarray(r_diag, dtype=np.float64)
        self.init_cov = _check_init_cov(init_cov)
        self._state = None
        self._frame = 0

    def reset(self, b0: BoundingBox) -> None:
        self._state = make_kf_state(b0, self.q_diag, self.r_diag, self.init_cov)
        self._frame = 0

    def observe(self, frame: int, box: BoundingBox) -> None:
        gap = frame - self._frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self._frame} -> {frame}")
        self._state = kf_update(self._state, box, gap)
        self._frame = frame

    def predict(self, horizon: int) -> list:
        return kf_predict(self._state, horizon)


class MotionNetPredictor:
    """Online wrapper around trained motion-factor weights.

    Until k real motions have been observed, the history window is
    left-padded with zero motions of interval 1, which pulls early
    predictions toward plain zero-motion.
    """

    def __init__(self, weights: PMWeights):
        self.weights = weights
        self._window = deque(maxlen=weights.k)
        self._latest = None
        self._frame = 0

    def reset(self, b0: BoundingBox) -> None:
        self._window.clear()
        self._latest = b0
        self._frame = 0

    def observe(self, frame: int, box: BoundingBox) -> None:
        gap = frame - self._frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self._frame} -> {frame}")
        self._window.append((encode_motion(self._latest, box), gap))
        self._latest = box
        self._frame = frame

    def predict(self, horizon: int) -> list:
        if horizon != self.weights.n_heads:
            raise ValidationError(
                f"network predicts exactly {self.weights.n_heads} frames, asked for {horizon}"
            )
        pad = self.weights.k - len(self._window)
        motions = [NormalizedMotion.zero()] * pad + [m for m, _ in self._window]
        intervals = [1] * pad + [d for _, d in self._window]
        history = MotionHistory(tuple(motions), tuple(intervals))
        return pm_predict(self.weights, history, self._latest)


def kf_motion_batch(horizon_n: int, q_diag=None, r_diag=None,
                    init_cov: float = DEFAULT_INIT_COV):
    """Window predictor wrapping the Kalman filter.

    Each window's boxes are reconstructed from its history, the filter
    restarts on the oldest box, runs over the remaining k observations
    at their recorded frame gaps, then rolls N frames out. Predictions
    are re-encoded as motions from the window's anchor box.

    The result equals a fresh KalmanBoxPredictor per window, but the
    covariance and gain recursion runs once per gap pattern (8 for k=3
    and strides {1, 2}) and its gains are applied to all of that
    pattern's windows as one array. This is exact, not an
    approximation: the recursion depends only on (Q, R, init_cov, the
    gaps), never on the measured boxes. Noise, horizon and gaps are
    validated once per call rather than once per window.
    """
    if horizon_n < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon_n}")
    q_diag = np.asarray(DEFAULT_Q_DIAG if q_diag is None else q_diag, dtype=np.float64)
    r_diag = np.asarray(DEFAULT_R_DIAG if r_diag is None else r_diag, dtype=np.float64)
    _check_noise(q_diag, r_diag)
    init_cov = _check_init_cov(init_cov)
    q = np.diag(q_diag)
    r = np.diag(r_diag)

    def predict(samples):
        out = np.empty((len(samples), horizon_n, 4))
        groups = {}
        for i, s in enumerate(samples):
            groups.setdefault(s.history.intervals, []).append(i)
        for gaps, idx in groups.items():
            if min(gaps) < 1:
                raise ValidationError(f"observations must advance frames, got gaps {gaps}")
            boxes = np.array([[(b.cx, b.cy, b.w, b.h)
                               for b in unroll_history(samples[i].latest_box, samples[i].history)]
                              for i in idx])
            x = np.zeros((len(idx), 8))
            x[:, :4] = boxes[:, 0]
            p = np.eye(8) * init_cov
            for j, gap in enumerate(gaps, start=1):
                x, p = _kf_step(x, p, q, r, boxes[:, j], gap)
            rollout = np.empty((len(idx), horizon_n, 4))
            for n in range(horizon_n):
                x = x @ _F.T
                rollout[:, n] = x[:, :4]
            rollout[..., 2:] = np.maximum(rollout[..., 2:], 1.0)
            out[idx] = encode_motion_rows(boxes[:, -1:], rollout)
        return out
    return predict


def save_kf_noise(q_diag, r_diag, path, manifest_ref=None) -> None:
    """Fitted noise diagonals as a JSON document {q: [8], r: [4]}."""
    q = [float(v) for v in q_diag]
    r = [float(v) for v in r_diag]
    if len(q) != 8 or len(r) != 4:
        raise ValidationError(f"need 8 Q and 4 R entries, got {len(q)} and {len(r)}")
    doc = {"q": q, "r": r}
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
    if len(q) != 8 or len(r) != 4:
        raise ValidationError(f"{path}: need 8 Q and 4 R entries, got {len(q)} and {len(r)}")
    return q, r


def _track_boxes(track) -> list:
    boxes = list(track.ground_truth) if hasattr(track, "ground_truth") else list(track)
    if any(b is None for b in boxes):
        raise ValidationError("fitting tracks must be fully annotated")
    return boxes


def kf_fit_noise(tracks, init: KalmanState, config=None, *, k: int = 3,
                 stride_set=(1, 2), max_windows: int = 400):
    """Fit the Q/R diagonals by gradient descent on their logs.

    Windows come from the trainer's sampler; the objective is the
    filter's one-frame-step prediction error in motion space after
    re-running it over each window's boxes. Gradients are central
    finite differences on the 12 log-parameters; steps reuse the
    trainer's AdamW. Tracks split 90/10 for validation; the returned
    diagonals are best-on-validation with the init always a candidate,
    so the fit never leaves validation worse than the starting point.

    Each loss evaluation is one kf_motion_batch call, which runs the
    covariance and gain recursion once per gap pattern rather than once
    per window. That is exact: the recursion depends on Q, R, the
    initial covariance and the gaps, never on the measurements.
    """
    from .training import AdamW, OptimizerConfig, sample_windows

    if config is None:
        config = OptimizerConfig(epochs=30, milestones=(20,))
    tracks = [_track_boxes(t) for t in tracks]
    if not tracks:
        raise ValidationError("need at least one trajectory")
    order = list(rng_for(config.seed, "kf-fit-split").permutation(len(tracks)))
    n_val = max(1, len(tracks) // 10) if len(tracks) > 1 else 0
    val_idx = set(order[:n_val])

    def windows(indices, tag):
        out = []
        for i in indices:
            out.extend(sample_windows(tracks[i], k, 1, stride_set,
                                      rng_for(config.seed, "kf-fit-windows", tag, i)))
        if len(out) > max_windows:
            keep = rng_for(config.seed, "kf-fit-thin", tag).choice(
                len(out), size=max_windows, replace=False)
            out = [out[j] for j in sorted(keep)]
        if not out:
            raise ValidationError("no usable fitting windows")
        return out

    train_w = windows([i for i in range(len(tracks)) if i not in val_idx], "train")
    val_w = windows(sorted(val_idx), "val") if val_idx else train_w
    train_targets = np.array([[t.as_tuple() for t in s.targets] for s in train_w])
    val_targets = np.array([[t.as_tuple() for t in s.targets] for s in val_w])
    init_cov = float(init.cov[0, 0])

    def loss(theta, samples, targets):
        pred = kf_motion_batch(1, np.exp(theta[:8]), np.exp(theta[8:]),
                               init_cov=init_cov)(samples)
        return float(np.abs(pred - targets).mean())

    theta = np.log(np.concatenate([init.q_diag, init.r_diag]))
    best_theta = theta.copy()
    best_val = loss(theta, val_w, val_targets)

    opt = AdamW(config)
    h = 1e-4
    for step in range(1, config.epochs + 1):
        grad = np.zeros_like(theta)
        for i in range(theta.size):
            bump = np.zeros_like(theta)
            bump[i] = h
            grad[i] = (loss(theta + bump, train_w, train_targets)
                       - loss(theta - bump, train_w, train_targets)) / (2 * h)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite fitting gradient at step {step}")
        opt.step({"theta": theta}, {"theta": grad}, epoch=step)
        val = loss(theta, val_w, val_targets)
        if not np.isfinite(val):
            raise DivergenceError(f"non-finite validation loss at step {step}: {val}")
        if val < best_val:
            best_val = val
            best_theta = theta.copy()
    return np.exp(best_theta[:8]), np.exp(best_theta[8:])
