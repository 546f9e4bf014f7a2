"""Normalized box-motion codec.

A motion between two boxes is the 4-vector
[d_center_x / prev.w, d_center_y / prev.h, ln(cur.w / prev.w), ln(cur.h / prev.h)]:
center displacement in units of the previous box size plus log size
ratios. The representation is scale-free, so a predictor trained on one
motion scale transfers to another.

encode_motion_rows encodes and apply_motion_rows decodes, both on arrays
of (cx, cy, w, h) center rows (boxes.centers makes them). encode_motion
is the scalar encoder on two (x, y, w, h) rows, returning a plain
4-tuple; the library no longer calls it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_SIZE_EPS = 1e-12


def encode_motion(prev, cur) -> tuple:
    """Motion from the (x, y, w, h) row prev to cur, normalized by prev's
    scale. Kept for bench/ (it is traced) until ROADMAP item 1."""
    px, py, pw, ph = prev
    cx, cy, cw, ch = cur
    if min(pw, ph, cw, ch) <= _SIZE_EPS:
        raise ValidationError("cannot encode motion for degenerate box sizes")
    m = (((cx + cw / 2.0) - (px + pw / 2.0)) / pw, ((cy + ch / 2.0) - (py + ph / 2.0)) / ph,
         math.log(cw / pw), math.log(ch / ph))
    if not all(map(math.isfinite, m)):
        raise ValidationError(f"motion components must be finite, got {m}")
    return m


def encode_motion_rows(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """encode_motion over arrays of (cx, cy, w, h) rows that broadcast
    against each other, with the same two checks.

    The log size ratios go through math.log, as in encode_motion:
    np.log differs from it by an ulp on some inputs, and the two codecs
    must give the same numbers."""
    if np.any(prev[..., 2:] <= _SIZE_EPS) or np.any(cur[..., 2:] <= _SIZE_EPS):
        raise ValidationError("cannot encode motion for degenerate box sizes")
    ratios = cur[..., 2:] / prev[..., 2:]
    logs = np.array([math.log(v) for v in ratios.ravel().tolist()]).reshape(ratios.shape)
    motions = np.concatenate([(cur[..., :2] - prev[..., :2]) / prev[..., 2:], logs], axis=-1)
    if not np.all(np.isfinite(motions)):
        raise ValidationError("motion components must be finite")
    return motions


def apply_motion_rows(base: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Inverse of encode_motion_rows: the (cx, cy, w, h) rows base, moved
    by the motions m that broadcast against them, unchecked. The size
    ratios go through math.exp, as the encoder's through math.log; a log
    size ratio beyond exp's range is a ValidationError."""
    logs = m[..., 2:]
    try:
        ratios = np.array([math.exp(v) for v in logs.ravel().tolist()]).reshape(logs.shape)
    except OverflowError:
        raise ValidationError(f"decoded box size overflows: log size ratios up to "
                              f"{logs.max()}") from None
    sizes = base[..., 2:]
    return np.concatenate([base[..., :2] + m[..., :2] * sizes, sizes * ratios], axis=-1)
