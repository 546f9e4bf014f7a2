"""Training: AdamW, window sampling over trajectories, the one track
split and fit loop that the motion network and the Kalman noise fit share,
synthetic trajectories, and a motion-space L1 harness for predictors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import DEFAULT_FRAMERATE, FrameClock, Sequence, box_column, centers, corners
from .errors import DivergenceError, ValidationError
from .motion import encode_motion_rows
from .network import (DEFAULT_C_DEC, DEFAULT_C_ENC, backward_batch, forward_batch, init_weights,
                      l1_loss, pm_motions, window_inputs)
from .seeding import derive_seed, rng_for

_EPS = 1e-8
_BETAS = (0.9, 0.999)
# The window recipe's history strides; its k is network.DEFAULT_K.
DEFAULT_STRIDE_SET = (1, 2)


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    lr: float = 0.03
    weight_decay: float = 0.01
    epochs: int = 100
    milestones: tuple = (30, 80)
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.lr < math.inf):
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")
        if not (0 <= self.weight_decay < math.inf):
            raise ValidationError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        ms = tuple(sorted(int(m) for m in self.milestones))
        if ms and ms[0] < 1:
            raise ValidationError(f"milestones must be >= 1, got {self.milestones}")
        if ms and ms[-1] >= self.epochs:
            raise ValidationError(
                f"milestones {ms} must all fall before the last of {self.epochs} epochs"
            )
        object.__setattr__(self, "milestones", ms)

    def lr_at(self, epoch: int) -> float:
        """Step schedule: lr drops by 10x at each milestone epoch
        (1-indexed), staying dropped from the milestone on."""
        drops = sum(1 for m in self.milestones if m <= epoch)
        return self.lr * 0.1 ** drops


class AdamW:
    """Decoupled-weight-decay Adam over one parameter array, updated in
    place, with one first/second moment pair shaped like it. The motion
    net steps its whole parameter vector (PMWeights.flat) as that one
    array.

    A first moment below the smallest normal float64 is flushed to 0
    after its update. A dead unit's zero gradient would otherwise decay
    it by b1 each step into the subnormal range, where every operation
    takes the slow path. The weights do not move: a flushed entry's
    update is below lr * tiny / eps, which rounds away against wd * p
    for any parameter above about 1e-280 in magnitude. The second
    moment decays by only b2 per step and stays normal.

    A step runs in place on two scratch buffers shaped like the
    parameters, with out= ufuncs in the order of the textbook update,
    so the flush's boolean mask is its one temporary array."""

    def __init__(self, config: OptimizerConfig):
        self.config = config
        self.t = 0
        self._m = self._v = None

    def step(self, p: np.ndarray, g: np.ndarray, epoch: int) -> None:
        if g.shape != p.shape:
            raise ValidationError(f"grad shape {g.shape} != param shape {p.shape}")
        if self._m is None:
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
            self._s, self._u = np.empty_like(p), np.empty_like(p)
        self.t += 1
        lr = self.config.lr_at(epoch)
        b1, b2 = _BETAS
        wd = self.config.weight_decay
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        m, v, s, u = self._m, self._v, self._s, self._u
        # m = b1 m + (1 - b1) g, flushed below the smallest normal
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        np.copyto(m, 0.0, where=np.abs(m, out=s) < np.finfo(np.float64).tiny)
        # v = b2 v + (1 - b2) g g
        v *= b2
        np.multiply(1.0 - b2, g, out=s)
        v += np.multiply(s, g, out=s)
        # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p)
        np.sqrt(np.divide(v, bc2, out=s), out=s)
        s += _EPS
        np.divide(np.divide(m, bc1, out=u), s, out=u)
        u += np.multiply(wd, p, out=s)
        u *= lr
        p -= u


@dataclass(frozen=True, eq=False)
class Windows:
    """Supervised windows over trajectories, as arrays with one row per
    window. Boxes are (cx, cy, w, h) rows.

    boxes      (n, k+1, 4)  the history's boxes, oldest first, anchor last
    intervals  (n, k)       frame gap each history motion spans
    motions    (n, k, 4)    normalized motions between consecutive boxes
    targets    (n, N, 4)    true motions from the anchor to each of the
                            next N frames

    A Windows holds at least one window. len() counts them, indexing
    and slicing select rows, and iterating yields one-row Windows, so a
    list of windows flattened across trajectories joins back with
    concat.
    """

    boxes: np.ndarray
    intervals: np.ndarray
    motions: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        n, k = self.intervals.shape if self.intervals.ndim == 2 else (0, 0)
        if not (n >= 1 and k >= 1 and self.boxes.shape == (n, k + 1, 4) and self.motions.shape == (n, k, 4)
                and self.targets.ndim == 3 and self.targets.shape[0] == n
                and self.targets.shape[1] >= 1 and self.targets.shape[2] == 4):
            raise ValidationError(
                f"window arrays disagree: boxes {self.boxes.shape}, intervals "
                f"{self.intervals.shape}, motions {self.motions.shape}, targets {self.targets.shape}"
            )

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, rows) -> "Windows":
        return Windows(self.boxes[rows], self.intervals[rows], self.motions[rows],
                       self.targets[rows])

    def __iter__(self):
        return (self[i:i + 1] for i in range(len(self)))

    @classmethod
    def concat(cls, parts) -> "Windows":
        """One Windows from a Windows (returned as is) or an iterable of them."""
        if isinstance(parts, Windows):
            return parts
        parts = list(parts)
        if not parts:
            raise ValidationError("no windows")
        sizes = {(p.intervals.shape[1], p.targets.shape[1]) for p in parts}
        if len(sizes) > 1:
            raise ValidationError(f"cannot join windows of different (k, N): {sorted(sizes)}")
        return cls(*(np.concatenate([getattr(p, f) for p in parts])
                     for f in ("boxes", "intervals", "motions", "targets")))


def _check_sizes(windows: Windows, k: int, horizon_n: int) -> None:
    got = (windows.intervals.shape[1], windows.targets.shape[1])
    if got != (k, horizon_n):
        raise ValidationError(f"windows have (k, N) = {got}, the model needs {(k, horizon_n)}")


def sample_windows(traj, k: int, horizon_n: int, stride_set, rng) -> Windows:
    """Windows over one trajectory (a Sequence, its box column, or one
    box per frame; see boxes.box_column): every anchor with room for
    a full stride-k history and N future frames, with the k history
    intervals drawn uniformly from stride_set (one draw per anchor and
    step, in anchor order)."""
    strides = sorted(set(int(s) for s in stride_set))
    if not strides or strides[0] < 1:
        raise ValidationError(f"stride_set must hold integers >= 1, got {stride_set!r}")
    if k < 1 or horizon_n < 1:
        raise ValidationError("k and horizon must be >= 1")
    traj = box_column(traj)
    need = k * strides[-1] + horizon_n + 1
    if len(traj) < need:
        raise ValidationError(f"trajectory of {len(traj)} frames is shorter than {need}")
    missing = np.flatnonzero(np.isnan(traj).any(axis=1))
    if missing.size:
        raise ValidationError(f"windows need a box on every frame; frame {missing[0]} has none")
    rows = centers(traj)
    anchors = np.arange(k * strides[-1], len(traj) - horizon_n)
    steps = np.array(strides)[rng.integers(0, len(strides), size=(len(anchors), k))]
    # draw j is the gap that ends j steps before the anchor; frames run oldest first
    frames = np.concatenate([anchors[:, None] - np.cumsum(steps, axis=1)[:, ::-1],
                             anchors[:, None]], axis=1)
    boxes = rows[frames]
    future = rows[anchors[:, None] + np.arange(1, horizon_n + 1)]
    return Windows(boxes, np.diff(frames, axis=1),
                   encode_motion_rows(boxes[:, :-1], boxes[:, 1:]),
                   encode_motion_rows(boxes[:, -1:], future))


def split_tracks(n: int, seed: int, key: str):
    """Train and validation indices of n tracks, in the order of a permutation
    seeded by (seed, key): validation takes its first max(1, round(0.1 n)),
    none of a single track, whose fit then validates on its training windows."""
    order = rng_for(seed, key).permutation(n)
    n_val = max(1, round(0.1 * n)) if n >= 2 else 0
    return order[n_val:], order[:n_val]


def fit_best_on_validation(params, config: OptimizerConfig, epoch_steps, val_loss):
    """The one fit loop. Each epoch, epoch_steps(opt, epoch) steps params in
    place through opt, an AdamW, and returns its train L1; then
    val_loss(params) scores them, and a non-finite score diverges. Returns
    a copy of the best params on validation, the start included, so a fit
    never leaves validation worse, and the (epoch, train_l1, val_l1) rows."""
    opt = AdamW(config)
    best, best_val, history = params.copy(), val_loss(params), []
    for epoch in range(1, config.epochs + 1):
        train_l1 = epoch_steps(opt, epoch)
        val = val_loss(params)
        if not math.isfinite(val):
            raise DivergenceError(f"validation loss became {val} at epoch {epoch}")
        history.append((epoch, train_l1, val))
        if val < best_val:
            best, best_val = params.copy(), val
    return best, history


def train_pm(windows_per_track, config: OptimizerConfig, *, c_enc: int = DEFAULT_C_ENC,
             c_dec: int = DEFAULT_C_DEC):
    """Train the motion network on windows grouped per trajectory, one
    Windows (or iterable of them) per trajectory.

    The network's k and N are the windows' own: every group must share
    one (k, N). Trajectories (not windows) are split by split_tracks
    under key pm-split, so validation frames never leak into training.
    Returns fit_best_on_validation's weights and history, with val_l1
    the validation windows' motion_l1_on_samples. Groups of another (k,
    N) fail before the first step.
    """
    groups = [Windows.concat(g) for g in windows_per_track if len(g)]
    if not groups:
        raise ValidationError("no training windows")
    train_idx, val_idx = split_tracks(len(groups), config.seed, "pm-split")
    train_w = Windows.concat(groups[i] for i in train_idx)
    val_w = Windows.concat(groups[i] for i in val_idx) if len(val_idx) else train_w

    xs, speeds = window_inputs(train_w.motions, train_w.intervals)
    speeds = speeds[:, None, :]
    n = len(train_w)
    weights = init_weights(train_w.intervals.shape[1], train_w.targets.shape[1],
                           c_enc=c_enc, c_dec=c_dec,
                           seed=derive_seed(config.seed, "pm-init"))

    def epoch_steps(opt, epoch):
        perm = rng_for(config.seed, "pm-epoch", epoch).permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            speed = speeds[idx]
            factors, cache = forward_batch(weights, xs[idx], keep_cache=True)
            loss, sign = l1_loss(factors * speed, train_w.targets[idx])
            if not math.isfinite(loss):
                raise DivergenceError(f"training loss became {loss} at epoch {epoch}")
            # sign * speed, then / size: another order rounds the weights differently
            grad = backward_batch(weights, cache, sign * speed / sign.size)
            opt.step(weights.flat, grad.flat, epoch=epoch)
            epoch_loss += loss * len(idx)
        return epoch_loss / n

    return fit_best_on_validation(weights, config, epoch_steps,
                                  lambda w: motion_l1_on_samples(val_w, pm_motion_batch(w)))


# ---------------------------------------------------------------------------
# Synthetic trajectories

CONSTANT_VELOCITY = "constant_velocity"
CONSTANT_ACCELERATION = "constant_acceleration"
SINUSOIDAL = "sinusoidal"
RANDOM_WALK = "random_walk"
SYNTH_KINDS = (CONSTANT_VELOCITY, CONSTANT_ACCELERATION, SINUSOIDAL, RANDOM_WALK)


@dataclass(frozen=True, slots=True)
class SyntheticSpec:
    kind: str
    n_sequences: int
    length: int
    seed: int = 0
    center_range: tuple = (120.0, 400.0)
    size_range: tuple = (40.0, 70.0)
    speed_range: tuple = (1.0, 4.0)
    accel_range: tuple = (0.02, 0.12)
    amplitude_range: tuple = (15.0, 35.0)
    period_range: tuple = (18.0, 40.0)
    walk_step: float = 2.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValidationError(f"unknown trajectory kind {self.kind!r}")
        if self.n_sequences < 1 or self.length < 2:
            raise ValidationError("need n_sequences >= 1 and length >= 2")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.walk_step < math.inf:
            raise ValidationError(f"walk_step must be finite and >= 0, got {self.walk_step}")
        for name in ("center_range", "size_range", "speed_range", "accel_range",
                     "amplitude_range", "period_range"):
            bounds = getattr(self, name)
            positive = name in ("size_range", "period_range")
            if not (len(bounds) == 2 and -math.inf < bounds[0] <= bounds[1] < math.inf
                    and (bounds[0] > 0 or not positive)):
                raise ValidationError(f"{name} must be two finite numbers lo <= hi"
                                      f"{', lo > 0' if positive else ''}, got {bounds!r}")


def _signed_uniform(rng, lo, hi):
    return (1 if rng.random() < 0.5 else -1) * rng.uniform(lo, hi)


def _center_path(spec: SyntheticSpec, rng):
    t = np.arange(spec.length, dtype=float)
    c0 = rng.uniform(*spec.center_range, size=2)
    if spec.kind == CONSTANT_VELOCITY:
        v = np.array([_signed_uniform(rng, *spec.speed_range) for _ in range(2)])
        return c0[None, :] + t[:, None] * v[None, :]
    if spec.kind == CONSTANT_ACCELERATION:
        v = np.array([_signed_uniform(rng, *spec.speed_range) for _ in range(2)])
        a = np.array([_signed_uniform(rng, *spec.accel_range) for _ in range(2)])
        return c0[None, :] + t[:, None] * v[None, :] + 0.5 * t[:, None] ** 2 * a[None, :]
    if spec.kind == SINUSOIDAL:
        amp = rng.uniform(*spec.amplitude_range, size=2)
        period = rng.uniform(*spec.period_range, size=2)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=2)
        return c0[None, :] + amp[None, :] * np.sin(2.0 * math.pi * t[:, None] / period[None, :]
                                                   + phase[None, :])
    steps = rng.normal(0.0, spec.walk_step, size=(spec.length - 1, 2))
    return np.vstack([c0, c0 + np.cumsum(steps, axis=0)])


def gen_synthetic(spec: SyntheticSpec) -> list:
    """Deterministic family of synthetic sequences; each sequence's
    randomness is derived from (seed, kind, index) so regenerating any
    subset reproduces the same tracks. The files gen writes hold no
    clock, so every sequence runs at DEFAULT_FRAMERATE."""
    clock = FrameClock(DEFAULT_FRAMERATE)
    sequences = []
    for i in range(spec.n_sequences):
        rng = rng_for(spec.seed, "synthetic", spec.kind, i)
        path = _center_path(spec, rng)
        w, h = rng.uniform(*spec.size_range, size=2)
        if spec.noise_sigma > 0:
            path = path + rng.normal(0.0, spec.noise_sigma, size=path.shape)
        boxes = corners(np.hstack([path, np.tile([w, h], (len(path), 1))]))
        sequences.append(Sequence(f"{spec.kind}-{i:03d}", clock, boxes))
    return sequences


def motion_l1_on_samples(windows, predict_batch) -> float:
    """Mean motion-space L1 error of a predictor over supervised windows,
    given as one Windows or an iterable of them.

    predict_batch maps a Windows to an (n, N, 4) array of predicted
    normalized motions from each window's anchor. Comparing predictors
    through this harness keeps them honest: every predictor sees the
    identical windows, boxes, and frame gaps.
    """
    windows = Windows.concat(windows)
    return l1_loss(predict_batch(windows), windows.targets)[0]


def pm_motion_batch(weights):
    """Window predictor wrapping trained motion-factor weights."""
    def predict(windows):
        _check_sizes(windows, weights.k, weights.n_heads)
        return pm_motions(weights, windows.motions, windows.intervals)
    return predict
