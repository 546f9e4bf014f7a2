"""Motion-factor predictor network: forward pass, reverse-mode gradients.

Input is a k x 8 window: per past step, the normalized motion (4) next to
its per-frame speed (4). The net encodes rows, convolves over the time
axis, mean-pools, decodes through a shared layer, then N independent head
layers and a shared 4-wide output layer produce one motion factor per
future frame. No output nonlinearity: factors multiply a signed speed.

Everything is float64 numpy and batched. pm_motions is the one
inference path: (B, k, 4) motions and (B, k) frame intervals go through
window_inputs and forward_batch to (B, N, 4) predicted motions, for
batch evaluation, validation and the online predictor alike. Training
steps call window_inputs and forward_batch themselves, because they
keep the cache for the backward pass. l1_loss is the one motion-space
objective, for training steps and every score.

The stacking rule: window_inputs, forward_batch and pm_motions also take
leading stack axes, (..., B, k, ·). Every layer reshapes to
(..., rows, ·) and reduces over axis -2, and numpy's matmul runs one
BLAS call per stack, so each (B, k, ·) stack gets exactly the bits of
its own call. pm_predict runs all m windows of a run as an (m, 1, k, ·)
stack, which equals m batches of one bit for bit. One (m, k, ·) batch
may not: BLAS can take another kernel, and so another summation order,
for an m-row product. The parameters are one flat vector with a shaped
view per layer; backward_batch writes hand-derived gradients (checked
against central finite differences in the tests) into the same layout.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .boxes import centers, corners
from .errors import ValidationError, naming
from .motion import apply_motion_rows

CHECKPOINT_VERSION = 1
# The default geometry: history length k, which the window recipe
# shares, and the encoder and decoder widths.
DEFAULT_K, DEFAULT_C_ENC, DEFAULT_C_DEC = 3, 64, 32


def _check_geometry(k: int, n_heads: int, c_enc: int, c_dec: int) -> None:
    if k < 1 or n_heads < 1:
        raise ValidationError(f"need k >= 1 and n_heads >= 1, got k={k}, N={n_heads}")
    if c_enc < 1 or c_dec < 1:
        raise ValidationError(f"need c_enc >= 1 and c_dec >= 1, got c_enc={c_enc}, c_dec={c_dec}")


def _layout(k: int, n_heads: int, c_enc: int, c_dec: int) -> dict:
    """Parameter name -> (checkpoint layer name, shape), in checkpoint
    order, for a checked geometry."""
    _check_geometry(k, n_heads, c_enc, c_dec)
    c, d, n = c_enc, c_dec, n_heads
    return {
        "enc_w": ("enc_fc.weight", (c, 8)), "enc_b": ("enc_fc.bias", (c,)),
        "conv_w": ("temporal_conv.weight", (3, c, c)), "conv_b": ("temporal_conv.bias", (c,)),
        "dec_w": ("dec_shared_fc.weight", (d, c)), "dec_b": ("dec_shared_fc.bias", (d,)),
        "head_w": ("head_fc.weight", (n, d, d)), "head_b": ("head_fc.bias", (n, d)),
        "out_w": ("out_fc.weight", (4, d)), "out_b": ("out_fc.bias", (4,)),
    }


class PMWeights:
    """All parameters as one float64 vector, plus the (k, n_heads, c_enc,
    c_dec) geometry.

    `flat` holds every parameter in checkpoint order; enc_w ... out_b
    are shaped views into it, so a write through either shows in the
    other. Gradients use the same class and layout, and the optimizer
    steps `flat` as one array. Without `flat` every parameter is zero.

    conv_w[d] is the kernel tap for time offset d-1, so the temporal
    convolution sees the previous, current, and next row under zero
    padding ("same" over the k axis).
    """

    def __init__(self, k: int, n_heads: int, c_enc: int, c_dec: int, flat=None):
        self._layout = _layout(k, n_heads, c_enc, c_dec)
        self.k, self.n_heads, self.c_enc, self.c_dec = k, n_heads, c_enc, c_dec
        size = sum(math.prod(shape) for _, shape in self._layout.values())
        if flat is None:
            flat = np.zeros(size)
        else:
            flat = np.ascontiguousarray(flat, dtype=np.float64)
            if flat.shape != (size,):
                raise ValidationError(f"flat must have shape {(size,)}, got {flat.shape}")
            if not np.all(np.isfinite(flat)):
                raise ValidationError("parameters contain non-finite values")
        self.flat = flat
        lo = 0
        for name, (_, shape) in self._layout.items():
            hi = lo + math.prod(shape)
            setattr(self, name, flat[lo:hi].reshape(shape))
            lo = hi

    def copy(self) -> "PMWeights":
        return PMWeights(self.k, self.n_heads, self.c_enc, self.c_dec, self.flat.copy())


def init_weights(k: int = DEFAULT_K, n_heads: int = 1, c_enc: int = DEFAULT_C_ENC,
                 c_dec: int = DEFAULT_C_DEC, seed: int = 0) -> PMWeights:
    """Fan-in-scaled uniform init (bound sqrt(6/fan_in)), zero biases."""
    w = PMWeights(k, n_heads, c_enc, c_dec)
    rng = np.random.default_rng(seed)
    for view, fan_in in ((w.enc_w, 8), (w.conv_w, 3 * c_enc), (w.dec_w, c_enc),
                         (w.head_w, c_dec), (w.out_w, c_dec)):
        bound = math.sqrt(6.0 / fan_in)
        view[...] = rng.uniform(-bound, bound, size=view.shape)
    return w


def _check_input(w: PMWeights, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 3 or x.shape[-2:] != (w.k, 8):
        raise ValidationError(f"input must have shape (..., B, {w.k}, 8), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("network input contains non-finite values")
    return x


def forward_batch(w: PMWeights, x: np.ndarray, keep_cache: bool = False):
    """Evaluate a (..., B, k, 8) batch -> (..., B, N, 4) factors,
    optional cache; training passes (B, k, 8) and backward_batch takes
    only that.

    Every layer is one matmul over each stack's rows. The temporal conv
    multiplies all B·k rows by each tap and adds the products shifted
    by one step; the rows a shift pushes past either end are dropped,
    which is the zero padding.
    """
    x = _check_input(w, x)
    *lead, b, k, _ = x.shape
    c, d, n = w.c_enc, w.c_dec, w.n_heads
    pre1 = x.reshape(*lead, b * k, 8) @ w.enc_w.T + w.enc_b
    h1 = np.maximum(pre1, 0.0)
    prec = (h1 @ w.conv_w[1].T).reshape(*lead, b, k, c)
    prec[..., 1:, :] += (h1 @ w.conv_w[0].T).reshape(*lead, b, k, c)[..., :-1, :]
    prec[..., :-1, :] += (h1 @ w.conv_w[2].T).reshape(*lead, b, k, c)[..., 1:, :]
    prec += w.conv_b
    g = np.maximum(prec, 0.0).mean(axis=-2)
    pre3 = g @ w.dec_w.T + w.dec_b
    h3 = np.maximum(pre3, 0.0)
    pre4 = (h3 @ w.head_w.reshape(n * d, d).T).reshape(*lead, b, n, d) + w.head_b
    h4 = np.maximum(pre4, 0.0).reshape(*lead, b * n, d)
    out = (h4 @ w.out_w.T + w.out_b).reshape(*lead, b, n, 4)
    if not keep_cache:
        return out, None
    cache = {"x": x, "pre1": pre1, "h1": h1, "prec": prec, "g": g,
             "pre3": pre3, "h3": h3, "pre4": pre4, "h4": h4}
    return out, cache


def backward_batch(w: PMWeights, cache: dict, grad_out: np.ndarray) -> PMWeights:
    """Gradients of sum(out * grad_out) w.r.t. every parameter, as a
    PMWeights in the parameters' layout: grad.flat lines up with w.flat
    and each view holds its layer's gradient."""
    x = cache["x"]
    b, k, _ = x.shape
    c, d, n = w.c_enc, w.c_dec, w.n_heads
    go = np.asarray(grad_out, dtype=np.float64)
    if go.shape != (b, n, 4):
        raise ValidationError(f"grad_out must have shape {(b, n, 4)}, got {go.shape}")

    grad = PMWeights(k, n, c, d)
    go = go.reshape(b * n, 4)
    grad.out_b[...] = go.sum(axis=0)
    grad.out_w[...] = go.T @ cache["h4"]
    d_pre4 = ((go @ w.out_w) * (cache["pre4"].reshape(b * n, d) > 0.0)).reshape(b, n * d)
    grad.head_b[...] = d_pre4.sum(axis=0).reshape(n, d)
    grad.head_w[...] = (d_pre4.T @ cache["h3"]).reshape(n, d, d)
    d_h3 = d_pre4 @ w.head_w.reshape(n * d, d)
    d_pre3 = d_h3 * (cache["pre3"] > 0.0)
    grad.dec_b[...] = d_pre3.sum(axis=0)
    grad.dec_w[...] = d_pre3.T @ cache["g"]
    d_g = d_pre3 @ w.dec_w
    d_prec = d_g[:, None, :] / k * (cache["prec"] > 0.0)
    grad.conv_b[...] = d_prec.sum(axis=(0, 1))
    h1 = cache["h1"]
    h1_seq = h1.reshape(b, k, c)
    grad.conv_w[0] = d_prec[:, 1:].reshape(-1, c).T @ h1_seq[:, :-1].reshape(-1, c)
    grad.conv_w[1] = d_prec.reshape(b * k, c).T @ h1
    grad.conv_w[2] = d_prec[:, :-1].reshape(-1, c).T @ h1_seq[:, 1:].reshape(-1, c)
    d_prec = d_prec.reshape(b * k, c)
    d_h1 = (d_prec @ w.conv_w[1]).reshape(b, k, c)
    d_h1[:, :-1] += (d_prec @ w.conv_w[0]).reshape(b, k, c)[:, 1:]
    d_h1[:, 1:] += (d_prec @ w.conv_w[2]).reshape(b, k, c)[:, :-1]
    d_pre1 = d_h1.reshape(b * k, c) * (cache["pre1"] > 0.0)
    grad.enc_b[...] = d_pre1.sum(axis=0)
    grad.enc_w[...] = d_pre1.T @ x.reshape(b * k, 8)
    return grad


def window_inputs(motions: np.ndarray, intervals: np.ndarray):
    """Network inputs and mean speeds of a batch of motion windows.

    motions (..., B, k, 4) and their frame intervals (..., B, k) give
    the input rows [motion, motion / interval], shaped (..., B, k, 8),
    and each window's mean per-frame speed, the mean of motion /
    interval over its k steps, shaped (..., B, 4). The speed is what
    predicted motion factors multiply.
    """
    rates = motions / intervals[..., None]
    return np.concatenate([motions, rates], axis=-1), rates.sum(axis=-2) / motions.shape[-2]


def pm_motions(w: PMWeights, motions: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Predicted normalized motions, (..., B, N, 4), of a batch of
    windows.

    motions (..., B, k, 4) and intervals (..., B, k) run through
    window_inputs and forward_batch, whose input check is the one shape
    and finiteness check; head n's factor then scales each window's mean
    per-frame speed.
    """
    xs, speeds = window_inputs(motions, intervals)
    factors, _ = forward_batch(w, xs)
    return factors * speeds[..., None, :]


def pm_predict(w: PMWeights, motions: np.ndarray, intervals: np.ndarray,
               latest: np.ndarray) -> np.ndarray:
    """Predict (x, y, w, h) rows for the N frames after each of m
    windows' latest processed frame.

    motions (m, k, 4) and intervals (m, k) are m windows, oldest step
    first, and the (m, 4) array `latest` holds each window's latest
    (x, y, w, h) row. The windows run through pm_motions as an
    (m, 1, k, ·) stack, which gives each the bits of its own batch of
    one. Each predicted motion is applied to its window's latest row by
    apply_motion_rows, so predictions are normalized by the latest raw
    box's scale. Returns (m, N, 4) rows, checked where the run log is
    built.
    """
    if latest.shape != (len(motions), 4):
        raise ValidationError(f"need one latest row per window, got shape {latest.shape} "
                              f"for {len(motions)} windows")
    pred = pm_motions(w, motions[:, None], intervals[:, None])[:, 0]
    return corners(apply_motion_rows(centers(latest)[:, None], pred))


def l1_loss(pred: np.ndarray, targets: np.ndarray):
    """Mean absolute motion-space error of predictions against targets
    of the same shape, and sign(pred - targets): the loss's subgradient
    w.r.t. pred times the element count, 0 at exact ties."""
    pred = np.asarray(pred, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if pred.shape != targets.shape:
        raise ValidationError(
            f"predictions shaped {pred.shape} do not match targets {targets.shape}"
        )
    diff = pred - targets
    return float(np.abs(diff).mean()), np.sign(diff)


def save_weights(w: PMWeights, path, manifest_ref: str = None) -> None:
    layers = {layer_name: {"shape": list(shape), "data": getattr(w, key).ravel().tolist()}
              for key, (layer_name, shape) in w._layout.items()}
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "k": w.k, "n_heads": w.n_heads, "c_enc": w.c_enc, "c_dec": w.c_dec,
        "layers": layers,
    }
    if manifest_ref:
        doc["manifest"] = manifest_ref
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def json_numbers(values) -> np.ndarray:
    """A JSON list of numbers as a float64 array: every entry an int or
    a float (never a bool, a string or an object) and finite, else a
    ValidationError. The types are checked in one pass over the list."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise ValidationError("expected a JSON list of numbers")
    try:
        arr = np.array(values, dtype=np.float64)
        if np.isfinite(arr).all():
            return arr
    except OverflowError:  # an int past float's range
        pass
    raise ValidationError("expected finite numbers")


def load_weights(path) -> PMWeights:
    """Read a checkpoint; any malformed content is a ValidationError
    naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: checkpoint must be a JSON object")
    version = doc.get("format_version")
    # the JSON integer only: true and 1.0 compare equal to 1
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {version!r}")
    geometry = {key: doc.get(key) for key in ("k", "n_heads", "c_enc", "c_dec")}
    for key, value in geometry.items():
        # a JSON integer only: int() would take 3.9, "3" and true
        if type(value) is not int:
            raise ValidationError(f"{path}: missing or non-integer {key!r}")
    with naming(path):
        parts = []
        for layer_name, shape in _layout(**geometry).values():
            try:
                entry = doc["layers"][layer_name]
                arr = json_numbers(entry["data"]).reshape(entry["shape"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"bad layer {layer_name}: {exc}") from None
            if arr.shape != shape:
                raise ValidationError(f"layer {layer_name} must have shape {shape}, got {arr.shape}")
            parts.append(arr.ravel())
        return PMWeights(**geometry, flat=np.concatenate(parts))
