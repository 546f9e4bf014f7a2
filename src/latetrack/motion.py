"""Normalized box-motion codec on (x, y, w, h) rows.

A motion between two boxes is the 4-vector
[d_center_x / prev.w, d_center_y / prev.h, ln(cur.w / prev.w), ln(cur.h / prev.h)]:
center displacement in units of the previous box size plus log size
ratios. The representation is scale-free, so a predictor trained on one
motion scale transfers to another.

encode_motion takes two rows (a BoundingBox unpacks as one) and returns
the motion as a plain 4-tuple; encode_motion_rows is the same codec over
arrays of rows, and apply_motion_row is the one decoder.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_SIZE_EPS = 1e-12


def encode_motion(prev, cur) -> tuple:
    """Motion from prev to cur, normalized by prev's scale."""
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


def apply_motion_row(base, m) -> tuple:
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
