"""Box predictors: constant-velocity Kalman filter, learned-noise variant,
zero-motion control, and the trained motion-network wrapper.

Every predictor answers a batch of runs through one method,
predictions(b0s, frames, rows, horizon), which returns one entry per
run: an (n, horizon, 4) array whose i-th block holds the `horizon`
(x, y, w, h) rows that follow the last frame observed before the run's
i-th observation, from its b0 (frame 0's ground-truth box) and the rows
observed so far. Every row is observed, the last included. A predictor
is built once and keeps nothing between calls; no run reads another's
numbers. Each run is checked once, in order: the horizon, and that its
frames are >= 1 and strictly increase.

b0s and rows may hold BoundingBoxes, row tuples or (n, 4) arrays. Rows
are not checked here: run_streams checks every emitted row once, when
each run's RunLog is built.

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

KalmanBoxPredictor runs the filter over all runs of a batch at once:
its state is (R, 4) stacks of pos, vel, a, b and c, which kf_update
advances one observation of every run per call, and kf_predict rolls
the whole (R, T, 4) history out once. kf_motion_batch runs the same
_kf_step on (n, 4) stacks of windows, and kf_fit_noise fits Q and R,
from a predictor's, in training's fit loop. Its gradient is exact: the
same per-gap-pattern window loop carries the forward-mode tangents of
_kf_step_tangent beside the filter, one pass per step. make_kf_state is
kept only for the benchmark's noise-fit step.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ValidationError
from .motion import encode_motion_rows
from .network import DEFAULT_K, PMWeights, l1_loss, pm_predict
from .seeding import rng_for
from .training import (DEFAULT_STRIDE_SET, OptimizerConfig, Windows, fit_best_on_validation,
                       motion_l1_on_samples, sample_windows, split_tracks)

DEFAULT_Q_DIAG = (1e-2, 1e-2, 1e-2, 1e-2, 1e-3, 1e-3, 1e-3, 1e-3)
DEFAULT_R_DIAG = (1.0, 1.0, 1.0, 1.0)
DEFAULT_INIT_COV = 10.0


def _frame_gaps(frames, horizon: int) -> np.ndarray:
    """The frame gaps of a run, observation by observation, from frame
    0; the one check of a run's horizon and frames."""
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    gaps = np.diff(frames, prepend=0)
    if np.any(gaps < 1):
        i = int(np.argmax(gaps < 1))
        raise ValidationError(f"observations must advance frames, got "
                              f"{frames[i - 1] if i else 0} -> {frames[i]}")
    return gaps


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


def _kf_time_update(pos, vel, a, b, c, q_pos, q_vel) -> tuple:
    """One single-frame time update of (position, velocity) filters."""
    bc = b + c
    return pos + vel, vel, a + b + bc + q_pos, bc, c + q_vel


def _kf_step(pos, vel, a, b, c, q_pos, q_vel, r, z, gap: int):
    """One gap-aware update of a (position, velocity) filter: `gap`
    single-frame time updates, then one correction on the measurement z.

    Every argument but gap is a float for one coordinate's filter, or an
    array for many: kf_motion_batch passes (n, 4) stacks of pos, vel and
    z that share the (4,) covariance blocks a, b, c and noise q_pos,
    q_vel, r, and kf_update passes (R, 4) stacks of everything but the
    noise, with gap 0 after its own time updates. Python floats and
    numpy round each + - * / alike and fuse none, so every form gives
    the same bits. The covariance and gain depend only on (a, b, c, q,
    r, gap), never on z, so a stack of windows with one gap pattern
    shares a single covariance recursion. With r > 0 and a >= 0 the
    innovation variance s = a + r is positive.
    """
    for _ in range(gap):
        pos, vel, a, b, c = _kf_time_update(pos, vel, a, b, c, q_pos, q_vel)
    s = a + r
    k1, k2 = a / s, b / s
    innov = z - pos
    pos = pos + k1 * innov
    vel = vel + k2 * innov
    # Joseph form (I - KH) P (I - KH)^T + K r K^T with I - KH = [[1 - k1, 0], [-k2, 1]]
    j = 1.0 - k1
    return (pos, vel, j * j * a + k1 * k1 * r, j * (b - k2 * a) + k1 * k2 * r,
            c - 2.0 * k2 * b + k2 * k2 * s)


def _kf_step_tangent(pos, vel, a, b, c, q_pos, q_vel, r, z, gap: int, d, d_noise):
    """Forward-mode derivative of _kf_step: the tangents of its five
    outputs, from its inputs, the tangents d = (dpos, dvel, da, db, dc)
    of its state and d_noise = (dq_pos, dq_vel, dr).

    Row t of each tangent is the derivative with respect to the t-th of
    a coordinate's (log q_pos, log q_vel, log r), which reach only that
    coordinate: (3, n, 4) for (n, 4) means, (3, 4) for the (4,) blocks
    and noise. The means are linear in the innovation z - pos."""
    dpos, dvel, da, db, dc = d
    dq_pos, dq_vel, dr = d_noise
    for _ in range(gap):
        pos = pos + vel
        dpos = dpos + dvel
        a, b, c = a + b + b + c + q_pos, b + c, c + q_vel
        da, db, dc = da + db + db + dc + dq_pos, db + dc, dc + dq_vel
    s, ds = a + r, da + dr
    k1, k2 = a / s, b / s
    dk1, dk2 = (da - k1 * ds) / s, (db - k2 * ds) / s
    innov = z - pos
    j = 1.0 - k1
    # The Joseph form is stationary in the gain at the optimal gain, so
    # the blocks' tangents are _kf_step's correction with the gain held.
    return (j * dpos + dk1[:, None] * innov, dvel - k2 * dpos + dk2[:, None] * innov,
            j * j * da + k1 * k1 * dr, j * (db - k2 * da) + k1 * k2 * dr,
            dc - 2.0 * k2 * db + k2 * k2 * ds)


def _rows(rows) -> np.ndarray:
    """Boxes, row tuples or an (n, 4) array as an (n, 4) float array."""
    if not isinstance(rows, np.ndarray):
        rows = [tuple(row) for row in rows]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def _centers(rows: np.ndarray) -> np.ndarray:
    """(x, y, w, h) rows as (cx, cy, w, h): the filters' measurements."""
    return np.concatenate([rows[:, :2] + rows[:, 2:] / 2.0, rows[:, 2:]], axis=1)


def kf_update(state, noise, z, masks) -> tuple:
    """One observation of R stacked runs: each run's filters, (R, 4)
    stacks of (pos, vel, a, b, c), advanced by its frame gap, then
    corrected on its (R, 4) measured centers z.

    Every gap is >= 1, so the first time update runs on every run; the
    s-th after it runs under np.where(gap > s, ...), with masks[s - 1]
    the (R, 4) mask gap > s. The caller passes masks only while some
    run's gap exceeds s. So each run takes literally `gap` single-frame
    time updates, then _kf_step's correction. The noise is
    KalmanBoxPredictor's checked (q_pos, q_vel, r), each an (R, 4)
    stack; nothing is checked here.
    """
    q_pos, q_vel, r = noise
    pos, vel, a, b, c = _kf_time_update(*state, q_pos, q_vel)
    for more in masks:
        # a time update keeps vel as it is, so vel needs no mask
        pos2, _, a2, b2, c2 = _kf_time_update(pos, vel, a, b, c, q_pos, q_vel)
        pos, a, b, c = (np.where(more, pos2, pos), np.where(more, a2, a),
                        np.where(more, b2, b), np.where(more, c2, c))
    return _kf_step(pos, vel, a, b, c, q_pos, q_vel, r, z, 0)


def kf_predict(pos, vel, horizon: int) -> np.ndarray:
    """Roll (..., 4) means forward without corrections: (..., horizon, 4)
    (x, y, w, h) rows, one per step.

    Emitted sizes are clamped at 1 px; the internal rollout is not, so
    the N-step prediction composes exactly from single steps.
    KalmanBoxPredictor checked the horizon.
    """
    out = np.empty((*pos.shape[:-1], horizon, 4))
    for n in range(horizon):
        pos = pos + vel
        sizes = np.maximum(pos[..., 2:], 1.0)
        out[..., n, :2] = pos[..., :2] - sizes / 2.0
        out[..., n, 2:] = sizes
    return out


class ZeroMotionPredictor:
    """Control baseline: the latest box or row carried forward."""

    def predictions(self, b0s, frames, rows, horizon: int) -> list:
        """Per run, b0 `horizon` times before the first observation,
        then each observed row `horizon` times."""
        out = []
        for b0, run_frames, run_rows in zip(b0s, frames, rows):
            n = len(_frame_gaps(run_frames, horizon))
            seen = np.concatenate([_rows([b0]), _rows(run_rows)])[:n]
            out.append(np.repeat(seen[:, None], horizon, axis=1))
        return out


class KalmanBoxPredictor:
    """The Kalman filter with its noise, checked once, here."""

    def __init__(self, q_diag=None, r_diag=None):
        q, r = _check_noise(q_diag, r_diag)
        self.q_diag, self.r_diag = tuple(q.tolist()), tuple(r.tolist())
        self._noise = (q[:4], q[4:], r)

    def predictions(self, b0s, frames, rows, horizon: int) -> list:
        """Every run's filters start at its b0 with zero velocity and
        covariance diag(DEFAULT_INIT_COV). All runs advance together:
        step t records each run's means, then kf_update corrects every
        run on its t-th observed row at its frame gap. A run shorter
        than the longest is padded with its b0 at gap 1, and its padded
        steps are sliced off; no run's numbers reach another's. The
        recorded (R, T, 4) history is rolled out by one kf_predict."""
        gaps = [_frame_gaps(run_frames, horizon) for run_frames in frames]
        lengths = [len(g) for g in gaps]
        start = _centers(_rows(b0s))
        steps = max(lengths, default=0)
        z = np.repeat(start[None], steps, axis=0)
        gap = np.ones(z.shape, dtype=np.int64)
        for i, (run_gaps, run_rows) in enumerate(zip(gaps, rows)):
            z[:len(run_gaps), i] = _centers(_rows(run_rows))
            gap[:len(run_gaps), i] = run_gaps[:, None]
        masks = [gap > s for s in range(1, gap.max(initial=1))]
        tops = gap.max(axis=(1, 2), initial=1).tolist()
        # every operand (R, 4), so no ufunc broadcasts inside the loop
        noise = tuple(np.repeat(x[None], len(start), axis=0) for x in self._noise)
        p = np.full_like(start, DEFAULT_INIT_COV)
        state = (start, np.zeros_like(start), p, np.zeros_like(start), p)
        means = [state[:2]]
        for t in range(steps):
            state = kf_update(state, noise, z[t], [m[t] for m in masks[:tops[t] - 1]])
            means.append(state[:2])
        # the (pos, vel) each run held before each of its observations, (2, R, T, 4)
        pos, vel = np.array(means)[:steps].transpose(1, 2, 0, 3)
        out = kf_predict(pos, vel, horizon)
        return [out[i, :n] for i, n in enumerate(lengths)]


def make_kf_state(b0, q_diag=None, r_diag=None) -> KalmanBoxPredictor:
    """A KalmanBoxPredictor with this noise; b0 is not read."""
    return KalmanBoxPredictor(q_diag, r_diag)


class MotionNetPredictor:
    """Trained motion-factor weights as a run's predictor.

    predictions builds every window of a run at once, one pm_predict
    call per run. A window is the (k, 4) motions and (k,) frame gaps a
    training window holds, oldest first; before k real motions have
    been observed it is left-padded with zero motions at gap 1, which
    pulls early predictions toward plain zero-motion.
    """

    def __init__(self, weights: PMWeights):
        self.weights = weights

    def predictions(self, b0s, frames, rows, horizon: int) -> list:
        if horizon != self.weights.n_heads:
            raise ValidationError(
                f"network predicts exactly {self.weights.n_heads} frames, asked for {horizon}")
        return [self._run(b0, run_frames, run_rows, horizon)
                for b0, run_frames, run_rows in zip(b0s, frames, rows)]

    def _run(self, b0, frames, rows, horizon: int) -> np.ndarray:
        """One run in one pm_predict call. The invocation before
        observation i (from 0) reads rows i .. i+k-1 of the padded
        motions and gaps, the last k before it. The motions are
        encode_motion's numbers, all encoded and checked at once."""
        gaps = _frame_gaps(frames, horizon)
        if not len(frames):
            return np.empty((0, horizon, 4))
        k = self.weights.k
        boxes = np.concatenate([_rows([b0]), _rows(rows)])
        centers = _centers(boxes)
        motions = np.concatenate([np.zeros((k, 4)), encode_motion_rows(centers[:-1], centers[1:])])
        gaps = np.concatenate([np.ones(k), gaps])
        window = np.arange(len(frames))[:, None] + np.arange(k)
        return np.array(pm_predict(self.weights, motions[window], gaps[window],
                                   boxes[:-1].tolist()))


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
        return _kf_windows(windows, horizon_n, q_diag, r_diag)
    return predict


def _kf_windows(windows, horizon_n: int, q, r, tangents: bool = False):
    """kf_motion_batch's (n, N, 4) motions for checked noise q, r and
    horizon, one gap pattern at a time. With tangents, also their
    (3, n, N, 4) derivatives with respect to each coordinate's
    (log q_pos, log q_vel, log r), carried by _kf_step_tangent beside
    the filter. A size clamped at 1 px has derivative 0; the codec
    divides center tangents by the anchor's size and size tangents by
    the rolled-out size (d log)."""
    if np.any(windows.intervals < 1):
        raise ValidationError("observations must advance frames; window gaps must be >= 1")
    patterns, which = np.unique(windows.intervals, axis=0, return_inverse=True)
    which = which.reshape(-1)  # not 1-D in every numpy release
    out = np.empty((len(windows), horizon_n, 4))
    if tangents:
        d_out = np.empty((3, *out.shape))
        # q_pos, q_vel and r against their logs: row t is d/d(t-th log)
        d_noise = np.eye(3)[:, :, None] * np.stack([q[:4], q[4:], r])
    for g, gaps in enumerate(patterns):
        idx = np.flatnonzero(which == g)
        boxes = windows.boxes[idx]
        pos, vel = boxes[:, 0], np.zeros((len(idx), 4))
        a, b, c = np.full(4, DEFAULT_INIT_COV), np.zeros(4), np.full(4, DEFAULT_INIT_COV)
        d = (np.zeros((3, len(idx), 4)),) * 2 + (np.zeros((3, 4)),) * 3
        for j, gap in enumerate(gaps.tolist(), start=1):
            step = (pos, vel, a, b, c, q[:4], q[4:], r, boxes[:, j], gap)
            if tangents:
                d = _kf_step_tangent(*step, d, d_noise)
            pos, vel, a, b, c = _kf_step(*step)
        rollout = np.empty((len(idx), horizon_n, 4))
        for n in range(horizon_n):
            pos = pos + vel
            rollout[:, n] = pos
        rollout[..., 2:] = np.maximum(rollout[..., 2:], 1.0)
        out[idx] = encode_motion_rows(boxes[:, -1:], rollout)
        if tangents:
            d_roll = d[0][:, :, None] + np.arange(1, horizon_n + 1)[:, None] * d[1][:, :, None]
            sizes = rollout[..., 2:]
            d_out[:, idx] = np.concatenate([d_roll[..., :2] / boxes[:, -1:, 2:],
                                            d_roll[..., 2:] * (sizes > 1.0) / sizes], axis=-1)
    return (out, d_out) if tangents else out


def _kf_noise_gradient(theta, windows):
    """kf_fit_noise's objective, the one-step motion L1 of kf_motion_batch(1,
    exp theta[:8], exp theta[8:]) over windows, and its exact gradient from
    one tangent pass; the L1's subgradient is 0 at ties."""
    noise = np.exp(theta)
    pred, d_pred = _kf_windows(windows, 1, noise[:8], noise[8:], tangents=True)
    loss, sign = l1_loss(pred, windows.targets)
    return loss, (d_pred * sign).sum(axis=(1, 2)).ravel() / sign.size


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
    the window recipe's DEFAULT_K history steps at DEFAULT_STRIDE_SET;
    the objective is the filter's one-frame-step prediction error in
    motion space after re-running it over each window's boxes, on at
    most max_windows (>= 1) windows per split. The fit starts from
    init's Q and R diagonals; nothing else of init, such as the frames
    it has observed, is read. Tracks split by split_tracks under key
    kf-fit-split; each step takes _kf_noise_gradient's exact gradient in
    fit_best_on_validation, whose best diagonals are returned, and a step
    that leaves a diagonal outside (0, inf) diverges. Each validation loss
    is one kf_motion_batch call, one per step and one for the init.
    """
    if max_windows < 1:
        raise ValidationError(f"max_windows must be >= 1, got {max_windows}")
    if config is None:
        config = OptimizerConfig(epochs=30, milestones=(20,))
    tracks = list(tracks)
    if not tracks:
        raise ValidationError("need at least one trajectory")
    train_idx, val_idx = split_tracks(len(tracks), config.seed, "kf-fit-split")

    def windows(indices, tag):
        out = Windows.concat(sample_windows(tracks[i], DEFAULT_K, 1, DEFAULT_STRIDE_SET,
                                            rng_for(config.seed, "kf-fit-windows", tag, i))
                             for i in np.sort(indices))
        if len(out) > max_windows:
            keep = rng_for(config.seed, "kf-fit-thin", tag).choice(
                len(out), size=max_windows, replace=False)
            out = out[np.sort(keep)]
        return out

    train_w = windows(train_idx, "train")
    val_w = windows(val_idx, "val") if len(val_idx) else train_w
    start = np.concatenate([init.q_diag, init.r_diag])
    theta = np.log(start)

    def epoch_step(opt, epoch):
        loss, grad = _kf_noise_gradient(theta, train_w)
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(f"non-finite fitting gradient at step {epoch}")
        opt.step(theta, grad, epoch=epoch)
        if not np.all((0.0 < np.exp(theta)) & (np.exp(theta) < np.inf)):
            raise DivergenceError(f"a noise diagonal left (0, inf) at step {epoch}")
        return loss

    best = fit_best_on_validation(theta, config, epoch_step, lambda t: motion_l1_on_samples(
        val_w, kf_motion_batch(1, np.exp(t[:8]), np.exp(t[8:]))))[0]
    # exp(log x) can miss x by an ulp: a diagonal left at its start comes back as given
    noise = np.where(best == np.log(start), start, np.exp(best))
    return noise[:8], noise[8:]
