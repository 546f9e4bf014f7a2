"""Independent reference implementations the real code is checked
against. These are deliberately written in the most literal style
possible (explicit loops, textbook formulas) and share no code with the
package beyond the scalar box metrics, the scalar motion encoder, the
Kalman window predictor and motion L1 harness, the network's batch
motions, the run log and the seed derivation.

The scalar helpers that only tests use live here too: BoundingBox (the
checked scalar box, and the reference for the messages of
boxes.check_rows), the motion decoder apply_motion_row (the oracle of
motion.apply_motion_rows), box_from_center, linear_track,
zero_motion_batch and the constant_factor_weights fixture. So does
dense_scores, the per-pair deadline score that the run-length
EstimateMatcher.scores replaced, kept as its byte-for-byte reference,
and schedule_loop with its next_frame, the step-by-step schedule whose
bits simulate._schedule must keep."""

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from latetrack.boxes import PREDICTED, RAW, center_error, iou
from latetrack.errors import ValidationError
from latetrack.evaluate import DP_THRESHOLD_PX, IOU_THRESHOLDS
from latetrack.motion import encode_motion
from latetrack.network import DEFAULT_C_DEC, DEFAULT_C_ENC, DEFAULT_K, PMWeights, pm_motions
from latetrack.predictors import (DEFAULT_INIT_COV, KalmanBoxPredictor, MotionNetPredictor,
                                  ZeroMotionPredictor, kf_motion_batch)
from latetrack.seeding import derive_seed, rng_for
from latetrack.simulate import RunLog
from latetrack.training import motion_l1_on_samples


class _Box(NamedTuple):
    x: float
    y: float
    w: float
    h: float


class BoundingBox(_Box):
    """A checked (x, y, w, h) box in plain Python floats: a tuple, so it
    equals the library's rows, with the center as cx and cy. Non-finite
    fields and non-positive sizes raise the messages that
    boxes.check_rows must give."""

    __slots__ = ()

    def __new__(cls, x, y, w, h):
        box = super().__new__(cls, float(x), float(y), float(w), float(h))
        if not all(math.isfinite(v) for v in box):
            raise ValidationError(f"box fields must be finite, got {box!r}")
        if box.w <= 0 or box.h <= 0:
            raise ValidationError(f"box sizes must be positive, got w={box.w}, h={box.h}")
        return box

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0


def box_from_center(cx, cy, w, h):
    """The BoundingBox with center (cx, cy) and size (w, h)."""
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def apply_motion_row(base, m):
    """Inverse of encode_motion: apply the 4 motion components m to the
    box or row base, normalized by base's scale; returns the (x, y, w, h)
    row, unchecked. The sizes go through math.exp, and a log size ratio
    beyond its range is a ValidationError."""
    x, y, w, h = base
    dx, dy, lw, lh = m
    try:
        nw, nh = w * math.exp(lw), h * math.exp(lh)
    except OverflowError:
        raise ValidationError(f"decoded box size overflows: log size ratios {lw}, {lh}") from None
    return ((x + w / 2.0) + dx * w - nw / 2.0, (y + h / 2.0) + dy * h - nh / 2.0, nw, nh)


def linear_track(b0, velocity, length):
    """Constant-velocity trajectory: the box translates by `velocity`
    pixels per frame at fixed size."""
    vx, vy = velocity
    return [BoundingBox(b0.x + vx * t, b0.y + vy * t, b0.w, b0.h) for t in range(length)]


def zero_motion_batch(horizon_n):
    """Window predictor for the stay-put baseline: all-zero motions."""
    def predict(windows):
        return np.zeros((len(windows), horizon_n, 4))
    return predict


def constant_factor_weights(k=DEFAULT_K, n_heads=1, c_enc=DEFAULT_C_ENC, c_dec=DEFAULT_C_DEC):
    """Bias-only fixture: head n outputs the factor [n, n, n, n].

    With every weight matrix zeroed, head n's bias is the only signal;
    routing it through one channel of the shared output layer gives each
    head a constant factor equal to its horizon index. Applied to the
    average speed of a constant-velocity history this reproduces the
    future boxes exactly.
    """
    w = PMWeights(k, n_heads, c_enc, c_dec)
    for n in range(1, n_heads + 1):
        w.head_b[n - 1, 0] = float(n)
    w.out_w[:, 0] = 1.0
    return w


def run_log(name, schedule=(), outputs=(), predictor_latencies=()):
    """A RunLog from (frame, t_start, t_finish) tuples and
    (target_frame, available_at, kind, (x, y, w, h)) tuples, one per
    processed frame and per output."""
    frame, t_start, t_finish = zip(*schedule) if schedule else ((), (), ())
    target, available, kind, boxes = zip(*outputs) if outputs else ((), (), (), ())
    return RunLog(name, frame, t_start, t_finish, target, available, kind,
                  np.array(boxes, dtype=np.float64).reshape(-1, 4), predictor_latencies)


def output_rows(log):
    """A log's outputs as (target_frame, available_at, kind, (x, y, w, h))
    tuples, in emission order."""
    return list(zip(log.target_frame.tolist(), log.available_at.tolist(), log.kind.tolist(),
                    map(tuple, log.boxes.tolist())))


def log_lines(log):
    """The rows of a run's .log.csv, each float written by its own repr
    call."""
    return [f"{kind},{target},{available!r},{x!r},{y!r},{w!r},{h!r}\r\n"
            for kind, target, available, (x, y, w, h) in zip(
                log.kind.tolist(), log.target_frame.tolist(), log.available_at.tolist(),
                log.boxes.tolist())]


def trace_lines(log):
    """The rows of a run's .trace.csv: each processed frame with the
    raw outputs in emission order, each float by its own repr call."""
    return [f"{frame},{t0!r},{t1!r},{x!r},{y!r},{w!r},{h!r}\r\n"
            for frame, t0, t1, (x, y, w, h) in zip(
                log.frame.tolist(), log.t_start.tolist(), log.t_finish.tolist(),
                log.boxes[log.kind == RAW].tolist())]


def elae_scan(seq, outputs, f, sigma):
    """Literal exhaustive scan of the deadline-matching policy over a
    log's `outputs` rows, (target_frame, available_at, kind, row) each.

    Filters every output by the deadline, takes the newest availability
    instant, prefers the largest target <= f (else largest target), and
    breaks remaining ties toward the latest log entry.
    Returns (box, source_kind).
    """
    deadline = seq.clock.capture_time(f) + sigma / seq.clock.framerate_kappa
    candidates = [(out, i) for i, out in enumerate(outputs) if out[1] <= deadline]
    if not candidates:
        return seq.b0, "initial_b0"
    newest = max(out[1] for out, _ in candidates)
    group = [(out, i) for out, i in candidates if out[1] == newest]
    at_or_before = [(out, i) for out, i in group if out[0] <= f]
    pool = at_or_before if at_or_before else group
    (_, _, kind, row), _ = max(pool, key=lambda pair: (pair[0][0], pair[1]))
    return BoundingBox(*row), kind


def score_scan(seq, log, sigma):
    """Literal (DP, AUC) of one log at one permitted latency: elae_scan
    per annotated frame, then the scalar center error and IoU.

    DP is the share of frames within 20 px; AUC is the mean, over the
    thresholds 0, 0.05, ..., 1, of the share of frames with IoU above
    the threshold (np.mean, as the package averages)."""
    hits = 0
    ious = []
    outputs = output_rows(log)
    for f, gt in enumerate(seq.ground_truth):
        if gt is None:
            continue
        box, _ = elae_scan(seq, outputs, f, sigma)
        if center_error(gt, box) <= 20.0:
            hits += 1
        ious.append(iou(gt, box))
    shares = []
    for k in range(21):
        above = 0
        for value in ious:
            if value > k / 20.0:
                above += 1
        shares.append(above / len(ious))
    return hits / len(ious), float(np.mean(shares))


def dense_scores(matcher, sigmas):
    """matcher.scores before run-length matching: every (annotated
    frame, sigma) pair matched through the matcher's own _pick and scored
    on its own, then counted per sigma. The reference that the run
    counts of EstimateMatcher.scores must equal byte for byte."""
    frames = matcher._frames[:, None]
    deadlines = matcher._deadlines(frames, np.reshape(sigmas, (1, -1)))
    est = matcher._rows[matcher._pick(frames, deadlines)]
    gt = matcher._truth[:, None, :]
    gx, gy, gw, gh = (gt[..., i] for i in range(4))
    ex, ey, ew, eh = (est[..., i] for i in range(4))
    dx = (gx + gw / 2.0) - (ex + ew / 2.0)
    dy = (gy + gh / 2.0) - (ey + eh / 2.0)
    cle = np.hypot(dx, dy)
    hits = cle <= DP_THRESHOLD_PX
    for i in np.flatnonzero(np.abs(cle - DP_THRESHOLD_PX) < 1e-9).tolist():
        hits.flat[i] = math.hypot(dx.flat[i], dy.flat[i]) <= DP_THRESHOLD_PX
    ix = np.minimum(gx + gw, ex + ew) - np.maximum(gx, ex)
    iy = np.minimum(gy + gh, ey + eh) - np.maximum(gy, ey)
    inter = ix * iy
    overlap = np.zeros_like(inter)
    np.divide(inter, gw * gh + ew * eh - inter, out=overlap, where=(ix > 0) & (iy > 0))
    np.minimum(overlap, 1.0, out=overlap)
    n, n_sigma = hits.shape
    dp = hits.sum(axis=0) / n
    tau = np.asarray(IOU_THRESHOLDS)
    below = np.searchsorted(tau, overlap, side="left")
    bins = len(tau) + 1
    hist = np.bincount((below + bins * np.arange(n_sigma)).ravel(),
                       minlength=bins * n_sigma).reshape(n_sigma, bins)
    above = n - np.cumsum(hist, axis=1)[:, :-1]
    auc = (above / n).mean(axis=1)
    return dp, auc


class TextbookKalman:
    """Plain 8-state constant-velocity Kalman filter with explicit
    matrices and matrix inverses, straight out of the book."""

    def __init__(self, box: BoundingBox, q_diag, r_diag, init_cov: float = 10.0):
        self.x = np.zeros(8)
        self.x[:4] = [box.cx, box.cy, box.w, box.h]
        self.P = np.eye(8) * init_cov
        self.Q = np.diag(np.asarray(q_diag, dtype=float))
        self.R = np.diag(np.asarray(r_diag, dtype=float))
        self.F = np.eye(8)
        for i in range(4):
            self.F[i, i + 4] = 1.0
        self.H = np.zeros((4, 8))
        self.H[:4, :4] = np.eye(4)

    def update(self, box: BoundingBox, gap: int = 1):
        for _ in range(gap):
            self.x = self.F @ self.x
            self.P = self.F @ self.P @ self.F.T + self.Q
        z = np.array([box.cx, box.cy, box.w, box.h])
        S = self.H @ self.P @ self.H.T + self.R
        K = self.P @ self.H.T @ np.linalg.inv(S)
        self.x = self.x + K @ (z - self.H @ self.x)
        self.P = (np.eye(8) - K @ self.H) @ self.P

    def predict(self, horizon: int):
        boxes = []
        x = self.x.copy()
        for _ in range(horizon):
            x = self.F @ x
            cx, cy, w, h = x[:4]
            boxes.append(box_from_center(cx, cy, max(w, 1.0), max(h, 1.0)))
        return boxes


class ReferenceAdamW:
    """Element-by-element AdamW in pure Python floats: the canonical
    mhat/vhat formulation with decoupled weight decay."""

    def __init__(self, lr, betas, weight_decay, milestones):
        self.base_lr = lr
        self.b1, self.b2 = betas
        self.wd = weight_decay
        self.milestones = sorted(milestones)
        self.eps = 1e-8
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads, epoch):
        self.t += 1
        lr = self.base_lr * 0.1 ** sum(1 for ms in self.milestones if ms <= epoch)
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            flat_p = p.ravel()
            flat_g = g.ravel()
            flat_m = m.ravel()
            flat_v = v.ravel()
            for i in range(flat_p.size):
                flat_m[i] = self.b1 * flat_m[i] + (1.0 - self.b1) * flat_g[i]
                flat_v[i] = self.b2 * flat_v[i] + (1.0 - self.b2) * flat_g[i] * flat_g[i]
                mhat = flat_m[i] / (1.0 - self.b1 ** self.t)
                vhat = flat_v[i] / (1.0 - self.b2 ** self.t)
                flat_p[i] -= lr * (mhat / (math.sqrt(vhat) + self.eps) + self.wd * flat_p[i])


def pm_forward_loops(w, x):
    """Literal forward pass of the motion net over a (B, k, 8) batch.

    Explicit loops over rows: the dense encoder, the 3-tap temporal conv
    (tap d reads row t + d - 1, and rows outside the window read as
    zeros), mean pooling over time, the shared decoder, each head and
    the shared output layer, with a ReLU after every layer but the last.
    Returns a (B, N, 4) array."""
    def relu(v):
        return max(v, 0.0)

    k, c_enc, c_dec = w.k, w.c_enc, w.c_dec
    out = np.zeros((len(x), w.n_heads, 4))
    for b, window in enumerate(x):
        h1 = []
        for t in range(k):
            h1.append([relu(w.enc_b[c] + sum(w.enc_w[c, i] * window[t][i] for i in range(8)))
                       for c in range(c_enc)])
        pooled = [0.0] * c_enc
        for t in range(k):
            for o in range(c_enc):
                acc = w.conv_b[o]
                for tap in range(3):
                    src = t + tap - 1
                    if 0 <= src < k:
                        acc += sum(w.conv_w[tap, o, c] * h1[src][c] for c in range(c_enc))
                pooled[o] += relu(acc) / k
        h3 = [relu(w.dec_b[o] + sum(w.dec_w[o, c] * pooled[c] for c in range(c_enc)))
              for o in range(c_dec)]
        for n in range(w.n_heads):
            h4 = [relu(w.head_b[n, o] + sum(w.head_w[n, o, i] * h3[i] for i in range(c_dec)))
                  for o in range(c_dec)]
            for f in range(4):
                out[b, n, f] = w.out_b[f] + sum(w.out_w[f, o] * h4[o] for o in range(c_dec))
    return out


def sample_windows_loop(traj, k, horizon_n, stride_set, rng):
    """Literal per-anchor window sampler over a list of boxes.

    For each anchor with room for a full history and N future frames:
    one rng call draws its k stride indices, the history walks back from
    the anchor by those strides, and every motion is the scalar codec
    formula with math.log. Returns (boxes, intervals, motions, targets)
    as arrays shaped (n, k+1, 4), (n, k), (n, k, 4) and (n, N, 4)."""
    def encode(prev, cur):
        return [(cur.cx - prev.cx) / prev.w, (cur.cy - prev.cy) / prev.h,
                math.log(cur.w / prev.w), math.log(cur.h / prev.h)]

    strides = sorted(set(stride_set))
    boxes, intervals, motions, targets = [], [], [], []
    for anchor in range(k * strides[-1], len(traj) - horizon_n):
        picks = rng.integers(0, len(strides), size=k)
        frames = [anchor]
        for idx in picks:
            frames.append(frames[-1] - strides[idx])
        frames.reverse()
        rows, gaps, steps = [], [], []
        for f in frames:
            rows.append([traj[f].cx, traj[f].cy, traj[f].w, traj[f].h])
        for prev, cur in zip(frames, frames[1:]):
            gaps.append(cur - prev)
            steps.append(encode(traj[prev], traj[cur]))
        future = []
        for n in range(1, horizon_n + 1):
            future.append(encode(traj[anchor], traj[anchor + n]))
        boxes.append(rows)
        intervals.append(gaps)
        motions.append(steps)
        targets.append(future)
    return np.array(boxes), np.array(intervals), np.array(motions), np.array(targets)


def load_sequence_lines(path):
    """Literal line-by-line ground-truth reader: strip each line, skip
    `#` comments, read a blank line as a NaN row, split every other line
    on commas, float() each stripped field and check the values through
    BoundingBox. Returns the (n, 4) column (the parsed values on an
    all-NaN line, float("nan") on a blank one) and the annotated mask;
    a bad line raises the first error with the reader's message, which
    starts with `path:line: `."""
    path = Path(path)
    rows, mask = [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if line.startswith("#"):
            continue
        if line == "":
            rows.append([float("nan")] * 4)
            mask.append(False)
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise ValidationError(f"{path}:{lineno}: expected 4 comma-separated values, got {line!r}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        nans = [math.isnan(v) for v in vals]
        if all(nans):
            rows.append(vals)
            mask.append(False)
            continue
        if any(nans):
            raise ValidationError(f"{path}:{lineno}: partial NaN annotation {line!r}")
        try:
            box = BoundingBox(*vals)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        rows.append([box.x, box.y, box.w, box.h])
        mask.append(True)
    if len(rows) < 2:
        raise ValidationError(f"sequence {path.stem!r} needs >= 2 frames, got {len(rows)}")
    if not mask[0]:
        raise ValidationError(f"sequence {path.stem!r} is missing the frame-0 init box")
    return np.array(rows, dtype=np.float64), np.array(mask, dtype=bool)


def central_differences(fn, arrays: dict, h: float = 1e-6) -> dict:
    """d fn / d arrays by central finite differences, element by element.
    `fn` must be a pure scalar function of the (mutated) arrays."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = fn()
            flat[i] = keep - h
            down = fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def kf_noise_gradient_fd(theta, windows, h: float = 1e-4) -> np.ndarray:
    """The noise fit's objective differentiated by central differences:
    d/dtheta of the one-step motion L1 of
    kf_motion_batch(1, exp theta[:8], exp theta[8:]) over windows, two
    loss evaluations per log-parameter, each a step of h to one side."""
    def loss(t):
        return motion_l1_on_samples(windows, kf_motion_batch(1, np.exp(t[:8]), np.exp(t[8:])))

    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        grad[i] = (loss(theta + bump) - loss(theta - bump)) / (2 * h)
    return grad


def latency_draws_loop(profile, seed, role, sequence):
    """Literal per-draw latency source, one value per next(): the
    constant, one scalar normal draw clamped at the floor, or the
    recorded values in order until they run out, naming the `role`
    ("tracker" or "predictor") and sequence whose block ran out."""
    rng = np.random.default_rng(seed)
    used = 0
    while True:
        if profile.kind == "constant":
            yield profile.mean
        elif profile.kind == "gaussian":
            yield max(profile.floor, float(rng.normal(profile.mean, profile.stddev)))
        else:
            if used >= len(profile.replay_values):
                raise ValidationError(f"{role} replay latency exhausted after {used} draws "
                                      f"in sequence {sequence!r}")
            yield profile.replay_values[used]
            used += 1


def next_frame(clock, prev_finish, prev_frame, last_frame):
    """Frame the tracker processes after finishing prev_frame at
    prev_finish; None once the stream is exhausted.

    Picks the largest f with capture_time(f) <= prev_finish. If even the
    next frame is not captured yet (real-time tracker), the next frame
    is chosen and processing waits for its capture.
    """
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


def schedule_loop(clock, last_frame, tracker_lat, predictor_lat):
    """simulate._schedule one step at a time, with Python lists: the
    processed frames, arrivals, finish times and each predictor
    invocation's availability, plus the block that ran out (or None).

    Frame 0 arrives at 0. After frame 0, a predictor draw runs from each
    arrival before the tracker's draw does, and the predictor block is
    checked before the tracker's."""
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


class OnlineZeroMotion:
    """The latest box or row carried forward, through the online
    protocol: reset(b0), observe(frame, row) and predict(horizon)."""

    def reset(self, b0):
        self.latest = tuple(b0)

    def observe(self, frame, row):
        self.latest = tuple(row)

    def predict(self, horizon):
        return [self.latest] * horizon


class OnlineKalman:
    """The Kalman filter one observation at a time, through the online
    protocol, in Python floats and on its own code. The state is
    `filters`: one (pos, vel, a, b, c) float tuple per coordinate (cx,
    cy, w, h), which a reset fills from b0 with zero velocity and
    covariance diag(DEFAULT_INIT_COV). An observation at frame gap g
    applies g single-frame time updates, then one Joseph-form
    correction; a prediction rolls the means out, clamping emitted
    sizes at 1 px."""

    def __init__(self, q_diag, r_diag):
        self.q_diag, self.r_diag = q_diag, r_diag

    def reset(self, b0):
        x, y, w, h = b0
        p = DEFAULT_INIT_COV
        self.filters = tuple((z, 0.0, p, 0.0, p) for z in (x + w / 2.0, y + h / 2.0, w, h))
        self.frame = 0

    @staticmethod
    def step(pos, vel, a, b, c, q_pos, q_vel, r, z, gap):
        for _ in range(gap):
            pos = pos + vel
            bc = b + c
            a = a + b + bc + q_pos
            b = bc
            c = c + q_vel
        s = a + r
        k1, k2 = a / s, b / s
        innov = z - pos
        j = 1.0 - k1
        return (pos + k1 * innov, vel + k2 * innov, j * j * a + k1 * k1 * r,
                j * (b - k2 * a) + k1 * k2 * r, c - 2.0 * k2 * b + k2 * k2 * s)

    def observe(self, frame, row):
        gap = frame - self.frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self.frame} -> {frame}")
        x, y, w, h = row
        self.filters = tuple(
            self.step(*f, q_pos, q_vel, r, z, gap) for f, q_pos, q_vel, r, z in
            zip(self.filters, self.q_diag, self.q_diag[4:], self.r_diag,
                (x + w / 2.0, y + h / 2.0, w, h)))
        self.frame = frame

    def predict(self, horizon):
        (cx, vx, *_), (cy, vy, *_), (w, vw, *_), (h, vh, *_) = self.filters
        rows = []
        for _ in range(horizon):
            cx, cy, w, h = cx + vx, cy + vy, w + vw, h + vh
            ew, eh = max(w, 1.0), max(h, 1.0)
            rows.append((cx - ew / 2.0, cy - eh / 2.0, ew, eh))
        return rows


def online_kalman(b0, q_diag=None, r_diag=None):
    """An OnlineKalman with a KalmanBoxPredictor's checked noise (the
    defaults for None), reset at b0."""
    model = KalmanBoxPredictor(q_diag, r_diag)
    online = OnlineKalman(model.q_diag, model.r_diag)
    online.reset(b0)
    return online


class OnlineMotionNet:
    """The motion net one window at a time, through the online protocol
    (reset, observe, predict).

    The window is a (k, 4) motion array and a (k,) frame-gap array,
    oldest first. A reset fills them with zero motions of gap 1, and
    each observation shifts them one row and writes the newest last,
    the motion from the previous row through the scalar codec. Each
    prediction is one batch-of-one pm_motions call, decoded row by row
    by apply_motion_row."""

    def __init__(self, weights):
        self.weights = weights

    def reset(self, b0):
        self.motions = np.zeros((self.weights.k, 4))
        self.intervals = np.ones(self.weights.k)
        self.latest = tuple(b0)
        self.frame = 0

    def observe(self, frame, row):
        gap = frame - self.frame
        if gap < 1:
            raise ValidationError(f"observations must advance frames, got {self.frame} -> {frame}")
        motion = encode_motion(self.latest, row)
        self.motions[:-1] = self.motions[1:]
        self.intervals[:-1] = self.intervals[1:]
        self.motions[-1] = motion
        self.intervals[-1] = gap
        self.latest = tuple(row)
        self.frame = frame

    def predict(self, horizon):
        if horizon != self.weights.n_heads:
            raise ValidationError(
                f"network predicts exactly {self.weights.n_heads} frames, asked for {horizon}")
        motions = pm_motions(self.weights, self.motions[None], self.intervals[None])[0]
        return [apply_motion_row(self.latest, m) for m in motions.tolist()]


def online_predictor(model):
    """The online oracle of a built predictor."""
    if isinstance(model, ZeroMotionPredictor):
        return OnlineZeroMotion()
    if isinstance(model, KalmanBoxPredictor):
        return OnlineKalman(model.q_diag, model.r_diag)
    if isinstance(model, MotionNetPredictor):
        return OnlineMotionNet(model.weights)
    raise TypeError(f"no online oracle for {type(model).__name__}")


def run_stream_loop(seq, tracker, predictor=None, *, seed=0):
    """Literal frame-by-frame simulation of one run, as a RunLog.

    Frame 0 starts at time 0; after each frame the tracker takes the
    latest frame captured by its finish time, or waits for the next
    capture. With a predictor, every arrival after frame 0 first charges
    one predictor draw and emits predict(N) for the frames after the
    previous one, then the tracker draw runs. The tracker's row is the
    last annotated box plus, after frame 0, the next row of one
    standard-normal block scaled by the sigmas (sizes through math.exp),
    or a replay trace's raw row for the frame. Each row after frame 0 is
    observed online, by the adapter's model as online_predictor maps
    it."""
    clock = seq.clock
    if tracker.trace is not None:
        trace = tracker.trace
        recorded = {}
        for target, kind, row in zip(trace.target_frame.tolist(), trace.kind.tolist(),
                                     trace.boxes.tolist()):
            if kind == RAW:
                recorded[target] = tuple(row)

        def box_for(f):
            if f not in recorded:
                raise ValidationError(
                    f"replay trace {trace.sequence_name!r} has no box for frame {f}")
            return recorded[f]
    else:
        filled = []
        for f in range(len(seq)):
            if seq.annotated[f]:
                filled.append(tuple(seq.boxes[f].tolist()))
            else:
                filled.append(filled[-1])
        sigmas = (tracker.sigma_pos, tracker.sigma_pos, tracker.sigma_scale, tracker.sigma_scale)
        noise = iter((rng_for(seed, "tracker-noise").normal(size=(len(seq) - 1, 4))
                      * sigmas).tolist())

        def box_for(f):
            if f == 0:
                return filled[0]
            x, y, w, h = filled[f]
            dx, dy, dw, dh = next(noise)
            return (x + dx, y + dy, w * math.exp(dw), h * math.exp(dh))

    tracker_latency = latency_draws_loop(tracker.latency, derive_seed(seed, "tracker-latency"),
                                         "tracker", seq.name)
    instance = None
    if predictor is not None:
        instance = online_predictor(predictor.model)
        instance.reset(seq.b0)
        predictor_latency = latency_draws_loop(predictor.latency,
                                               derive_seed(seed, "predictor-latency"),
                                               "predictor", seq.name)
    schedule, outputs, pred_lats = [], [], []
    prev_frame, prev_finish = None, 0.0
    while True:
        if prev_frame is None:
            f = 0
        elif prev_frame >= seq.last_frame:
            break
        else:
            f = prev_frame + 1
            while f < seq.last_frame and clock.capture_time(f + 1) <= prev_finish:
                f += 1
        arrival = max(prev_finish, clock.capture_time(f))
        track_start = arrival
        if instance is not None and prev_frame is not None:
            lat_p = next(predictor_latency)
            available = arrival + lat_p
            for n, row in enumerate(instance.predict(predictor.horizon_n), start=1):
                outputs.append((prev_frame + n, available, PREDICTED, row))
            pred_lats.append(lat_p)
            track_start = available
        finish = track_start + next(tracker_latency)
        row = box_for(f)
        outputs.append((f, finish, RAW, row))
        schedule.append((f, arrival, finish))
        if instance is not None and f >= 1:
            instance.observe(f, row)
        prev_frame, prev_finish = f, finish
    return run_log(seq.name, schedule, outputs, pred_lats)


def pick_horizon_n_loop(seq, tracker, trials=3, *, seed=0):
    """The largest gap between consecutive processed frames over
    `trials` full run_stream_loop runs without a predictor, trial t
    seeded derive_seed(seed, "prerun", t)."""
    worst = 0
    for t in range(trials):
        log = run_stream_loop(seq, tracker, seed=derive_seed(seed, "prerun", t))
        frames = log.frame.tolist()
        for prev, cur in zip(frames, frames[1:]):
            worst = max(worst, cur - prev)
    return worst
