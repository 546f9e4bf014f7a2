"""Box predictors: constant-velocity Kalman filter, learned-noise variant,
zero-motion control, and the trained motion-network wrapper.

Every predictor answers a batch of runs through one method,
predictions(b0s, frames, rows, horizon), which returns one entry per
run: an (n, horizon, 4) array whose i-th block holds the `horizon`
(x, y, w, h) rows that follow the last frame observed before the run's
i-th observation, from its b0 (frame 0's ground-truth box) and the rows
observed so far. Every row is observed, the last included. A predictor
is built once and keeps nothing between calls; no run reads another's
numbers. A batch must hold one b0, one frames list and one rows list per
run. Each run is then checked once, in order: the horizon, that its
frames are >= 1 and strictly increase, and that it has one row per
frame.

b0s and each run's rows are what boxes.box_column takes: (x, y, w, h)
rows, or an (n, 4) array. Rows are not checked here:
run_streams checks every emitted row once, when each run's RunLog is built.

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

The filter has one step, kf_update, which advances (R, 4) stacks of
(pos, vel, a, b, c) by one observation each, and one loop, _kf_run.
KalmanBoxPredictor runs a batch of runs through it, one stack row per
run, and kf_predict rolls the whole (R, T, 4) history out once.
kf_motion_batch runs all n windows through it as one (n, 4) stack.
kf_fit_noise fits Q and R, from a predictor's, in training's fit loop;
its gradient is exact, from forward-mode tangents that _kf_run carries
beside the filter, one pass per step.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .boxes import box_column, centers, corners
from .errors import DivergenceError, ValidationError, naming
from .motion import encode_motion_rows
from .network import DEFAULT_K, PMWeights, json_numbers, l1_loss, pm_predict
from .report import write_json
from .seeding import rng_for
from .training import (DEFAULT_STRIDE_SET, OptimizerConfig, Windows, fit_best_on_validation,
                       motion_l1_on_samples, sample_windows, split_tracks)

DEFAULT_Q_DIAG = (1e-2, 1e-2, 1e-2, 1e-2, 1e-3, 1e-3, 1e-3, 1e-3)
DEFAULT_R_DIAG = (1.0, 1.0, 1.0, 1.0)
DEFAULT_INIT_COV = 10.0


def _runs(b0s, frames, rows):
    """The (b0, frames, rows) runs of a batch; the one check that it
    holds as many of each."""
    if not len(b0s) == len(frames) == len(rows):
        raise ValidationError(f"a batch needs one b0, frames list and rows list per run, got "
                              f"{len(b0s)}, {len(frames)} and {len(rows)}")
    return zip(b0s, frames, rows)


def _frame_gaps(frames, rows, horizon: int) -> np.ndarray:
    """The frame gaps of a run, observation by observation, from frame
    0; the one check of a run's horizon, frames and row count."""
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    gaps = np.diff(frames, prepend=0)
    if np.any(gaps < 1):
        i = int(np.argmax(gaps < 1))
        raise ValidationError(f"observations must advance frames, got "
                              f"{frames[i - 1] if i else 0} -> {frames[i]}")
    if len(rows) != len(frames):
        raise ValidationError(f"a run needs one row per frame, got {len(rows)} rows "
                              f"for {len(frames)} frames")
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


def _kf_prior(state, q_pos, q_vel, masks) -> tuple:
    """The gap-aware time update of stacked filters: the first
    single-frame update on every filter, then the s-th after it under
    np.where(gap > s, ...), with masks[s - 1] the mask gap > s. So each
    filter takes literally `gap` single-frame updates. The map is
    affine, so on tangents (dpos, dvel, da, db, dc) with (dq_pos,
    dq_vel) it gives their tangents."""
    pos, vel, a, b, c = _kf_time_update(*state, q_pos, q_vel)
    for more in masks:
        # a time update keeps vel as it is, so vel needs no mask
        pos2, _, a2, b2, c2 = _kf_time_update(pos, vel, a, b, c, q_pos, q_vel)
        pos, a, b, c = (np.where(more, pos2, pos), np.where(more, a2, a),
                        np.where(more, b2, b), np.where(more, c2, c))
    return pos, vel, a, b, c


def _kf_correct(pos, vel, a, b, c, r, z) -> tuple:
    """The measurement correction of a prior on measurements z. With
    r > 0 and a >= 0 the innovation variance s = a + r is positive."""
    s = a + r
    k1, k2 = a / s, b / s
    innov = z - pos
    pos = pos + k1 * innov
    vel = vel + k2 * innov
    # Joseph form (I - KH) P (I - KH)^T + K r K^T with I - KH = [[1 - k1, 0], [-k2, 1]]
    j = 1.0 - k1
    return (pos, vel, j * j * a + k1 * k1 * r, j * (b - k2 * a) + k1 * k2 * r,
            c - 2.0 * k2 * b + k2 * k2 * s)


def kf_update(state, noise, z, masks) -> tuple:
    """One observation of R stacked filters: (R, 4) stacks of (pos, vel,
    a, b, c), each advanced by its frame gap (_kf_prior, whose masks
    the caller passes only while some gap exceeds s), then corrected on
    its (R, 4) measured centers z. The noise is checked (q_pos, q_vel,
    r), each an (R, 4) stack; nothing is checked here."""
    q_pos, q_vel, r = noise
    return _kf_correct(*_kf_prior(state, q_pos, q_vel, masks), r, z)


def _kf_tangent(state, d, noise, d_noise, z, masks) -> tuple:
    """Forward-mode derivative of kf_update: the (3, R, 4) tangents of
    its five outputs, from its inputs, the tangents d = (dpos, dvel,
    da, db, dc) of its state and d_noise = (dq_pos, dq_vel, dr).

    Row t of each tangent is the derivative with respect to the t-th of
    a coordinate's (log q_pos, log q_vel, log r), which reach only that
    coordinate. The means are linear in the innovation z - pos."""
    q_pos, q_vel, r = noise
    dq_pos, dq_vel, dr = d_noise
    pos, _, a, b, _ = _kf_prior(state, q_pos, q_vel, masks)
    dpos, dvel, da, db, dc = _kf_prior(d, dq_pos, dq_vel, masks)
    s, ds = a + r, da + dr
    k1, k2 = a / s, b / s
    dk1, dk2 = (da - k1 * ds) / s, (db - k2 * ds) / s
    innov = z - pos
    j = 1.0 - k1
    # The Joseph form is stationary in the gain at the optimal gain, so
    # the blocks' tangents are _kf_correct with the gain held.
    return (j * dpos + dk1 * innov, dvel - k2 * dpos + dk2 * innov,
            j * j * da + k1 * k1 * dr, j * (db - k2 * da) + k1 * k2 * dr,
            dc - 2.0 * k2 * db + k2 * k2 * ds)


def _kf_run(start, z, gap, noise, d_noise=None):
    """The filter's one loop. R stacked filters start at the (R, 4)
    centers start, with zero velocity and covariance
    diag(DEFAULT_INIT_COV), and take their (T, R, 4) measurements z at
    (T, R, 4) frame gaps >= 1 through kf_update, one step per t. Returns
    the (T + 1, 2, R, 4) means (pos, vel) held before each step and
    after the last. With d_noise, the (3, 3, 1, 4) tangents of (q_pos,
    q_vel, r), it also returns the final (3, R, 4) tangents of (pos,
    vel), which _kf_tangent carries beside the filter from zero. numpy
    rounds each + - * / as Python floats do and fuses none, so each row
    of a stack gets the bits of its filter run alone."""
    masks = [gap > s for s in range(1, gap.max(initial=1))]
    tops = gap.max(axis=(1, 2), initial=1).tolist()
    # every operand (R, 4), so no ufunc broadcasts inside kf_update
    noise = tuple(np.repeat(x[None], len(start), axis=0) for x in noise)
    p = np.full_like(start, DEFAULT_INIT_COV)
    state = (start, np.zeros_like(start), p, np.zeros_like(start), p)
    d = (np.zeros((3, *start.shape)),) * 5
    means = [state[:2]]
    for t in range(len(z)):
        step_masks = [m[t] for m in masks[:tops[t] - 1]]
        if d_noise is not None:
            d = _kf_tangent(state, d, noise, d_noise, z[t], step_masks)
        state = kf_update(state, noise, z[t], step_masks)
        means.append(state[:2])
    means = np.array(means)
    return means if d_noise is None else (means, d[:2])


def _kf_rollout(pos, vel, horizon: int) -> np.ndarray:
    """Roll (..., 4) means forward without corrections: (..., horizon,
    4) centers (cx, cy, w, h), one per step. Sizes are clamped at 1 px;
    the internal rollout is not, so the N-step prediction composes
    exactly from single steps."""
    out = np.empty((*pos.shape[:-1], horizon, 4))
    for n in range(horizon):
        pos = pos + vel
        out[..., n, :] = pos
    out[..., 2:] = np.maximum(out[..., 2:], 1.0)
    return out


def kf_predict(pos, vel, horizon: int) -> np.ndarray:
    """_kf_rollout's clamped centers as (..., horizon, 4) (x, y, w, h)
    rows. KalmanBoxPredictor checked the horizon."""
    return corners(_kf_rollout(pos, vel, horizon))


class ZeroMotionPredictor:
    """Control baseline: the latest box or row carried forward."""

    def predictions(self, b0s, frames, rows, horizon: int) -> list:
        """Per run, b0 `horizon` times before the first observation,
        then each observed row `horizon` times."""
        out = []
        for b0, run_frames, run_rows in _runs(b0s, frames, rows):
            n = len(_frame_gaps(run_frames, run_rows, horizon))
            seen = np.concatenate([box_column([b0]), box_column(run_rows)])[:n]
            out.append(np.repeat(seen[:, None], horizon, axis=1))
        return out


class KalmanBoxPredictor:
    """The Kalman filter with its noise, checked once, here."""

    def __init__(self, q_diag=None, r_diag=None):
        q, r = _check_noise(q_diag, r_diag)
        self.q_diag, self.r_diag = tuple(q.tolist()), tuple(r.tolist())
        self._noise = (q[:4], q[4:], r)

    def predictions(self, b0s, frames, rows, horizon: int) -> list:
        """Every run is one filter of a _kf_run stack, started at its
        b0. A run shorter than the longest is padded with its b0 at gap
        1, and its padded steps are sliced off; no run's numbers reach
        another's. The means each run held before each of its
        observations, an (R, T, 4) history, are rolled out by one
        kf_predict."""
        gaps = [_frame_gaps(run_frames, run_rows, horizon)
                for _, run_frames, run_rows in _runs(b0s, frames, rows)]
        lengths = [len(g) for g in gaps]
        start = centers(box_column(b0s))
        steps = max(lengths, default=0)
        z = np.repeat(start[None], steps, axis=0)
        gap = np.ones(z.shape, dtype=np.int64)
        for i, (run_gaps, run_rows) in enumerate(zip(gaps, rows)):
            z[:len(run_gaps), i] = centers(box_column(run_rows))
            gap[:len(run_gaps), i] = run_gaps[:, None]
        pos, vel = _kf_run(start, z, gap, self._noise)[:steps].transpose(1, 2, 0, 3)
        out = kf_predict(pos, vel, horizon)
        return [out[i, :n] for i, n in enumerate(lengths)]


def make_kf_state(b0, q_diag=None, r_diag=None) -> KalmanBoxPredictor:
    """A KalmanBoxPredictor with this noise; b0 is not read. Kept for
    bench/'s noise-fit step until ROADMAP item 1."""
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
                for b0, run_frames, run_rows in _runs(b0s, frames, rows)]

    def _run(self, b0, frames, rows, horizon: int) -> np.ndarray:
        """One run in one pm_predict call. The invocation before
        observation i (from 0) reads rows i .. i+k-1 of the padded
        motions and gaps, the last k before it. The motions are
        encode_motion's numbers, all encoded and checked at once."""
        gaps = _frame_gaps(frames, rows, horizon)
        k = self.weights.k
        boxes = np.concatenate([box_column([b0]), box_column(rows)])
        seen = centers(boxes)
        motions = np.concatenate([np.zeros((k, 4)), encode_motion_rows(seen[:-1], seen[1:])])
        gaps = np.concatenate([np.ones(k), gaps])
        window = np.arange(len(frames))[:, None] + np.arange(k)
        return pm_predict(self.weights, motions[window], gaps[window], boxes[:-1])


def kf_motion_batch(horizon_n: int, q_diag=None, r_diag=None):
    """Window predictor wrapping the Kalman filter.

    For each window the filter starts on the oldest of its boxes, runs
    over the remaining k boxes at their recorded frame gaps, then rolls
    N frames out. Predictions are re-encoded as motions from the
    window's anchor box. All n windows are one (n, 4) stack of _kf_run,
    so each equals a fresh KalmanBoxPredictor's run over it, bit for
    bit. Noise, horizon and gaps are validated once per call rather than
    once per window.
    """
    if horizon_n < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon_n}")
    q_diag, r_diag = _check_noise(q_diag, r_diag)

    def predict(windows):
        return _kf_windows(windows, horizon_n, q_diag, r_diag)
    return predict


def _kf_windows(windows, horizon_n: int, q, r, tangents: bool = False):
    """kf_motion_batch's (n, N, 4) motions for checked noise q, r and
    horizon. With tangents, also their (3, n, N, 4) derivatives with
    respect to each coordinate's (log q_pos, log q_vel, log r), which
    _kf_run carries beside the filter. A size clamped at 1 px has
    derivative 0; the codec divides center tangents by the anchor's
    size and size tangents by the rolled-out size (d log)."""
    if np.any(windows.intervals < 1):
        raise ValidationError("observations must advance frames; window gaps must be >= 1")
    boxes = windows.boxes
    z = boxes[:, 1:].transpose(1, 0, 2)
    gap = np.broadcast_to(windows.intervals.T[:, :, None], z.shape)
    noise = (q[:4], q[4:], r)
    if tangents:
        # q_pos, q_vel and r against their logs: row t is d/d(t-th log)
        d_noise = (np.eye(3)[:, :, None] * np.stack(noise))[:, :, None]
        means, (dpos, dvel) = _kf_run(boxes[:, 0], z, gap, noise, d_noise)
    else:
        means = _kf_run(boxes[:, 0], z, gap, noise)
    rollout = _kf_rollout(*means[-1], horizon_n)
    out = encode_motion_rows(boxes[:, -1:], rollout)
    if not tangents:
        return out
    d_roll = dpos[:, :, None] + np.arange(1, horizon_n + 1)[:, None] * dvel[:, :, None]
    sizes = rollout[..., 2:]
    return out, np.concatenate([d_roll[..., :2] / boxes[:, -1:, 2:],
                                d_roll[..., 2:] * (sizes > 1.0) / sizes], axis=-1)


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
    write_json(path, {"q": q.tolist(), "r": r.tolist()}, manifest_ref)


def load_kf_noise(path):
    """Q and R diagonals from a fitted-noise file, as tuples: q and r are
    each a JSON list of numbers under network.json_numbers' rule, 8 and
    4 of them, all positive; anything else is a ValidationError naming
    the file."""
    try:
        doc = json.loads(Path(path).read_text())
        q, r = json_numbers(doc["q"]), json_numbers(doc["r"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        raise ValidationError(f"{path}: not a fitted-noise file (JSON with q and r lists)") from None
    with naming(path):
        _check_noise(q, r)
    return tuple(q.tolist()), tuple(r.tolist())


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
    is one kf_motion_batch call, one per step and one for the init. The
    default config (30 steps, lr drop at 20) takes no weight decay, which
    would pull each log toward 0 even where the data give no gradient,
    so such a diagonal (w and h on tracks of constant size, say) stays
    where it starts. A diagonal the fit leaves at its start comes back
    as given. The gradient is over the 12 log-diagonals, and the tests
    check it against central differences.
    """
    if max_windows < 1:
        raise ValidationError(f"max_windows must be >= 1, got {max_windows}")
    if config is None:
        config = OptimizerConfig(weight_decay=0.0, epochs=30, milestones=(20,))
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
