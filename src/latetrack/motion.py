"""Normalized box-motion codec.

A motion between two boxes is the 4-vector
[d_center_x / prev.w, d_center_y / prev.h, ln(cur.w / prev.w), ln(cur.h / prev.h)]:
center displacement in units of the previous box size plus log size
ratios. The representation is scale-free, so a predictor trained on one
motion scale transfers to another.

The scalar codec takes a BoundingBox or a plain (x, y, w, h) row for
each box; apply_motion_row is the decoder on rows that the online
motion net uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoundingBox
from .errors import ValidationError

_SIZE_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class NormalizedMotion:
    dx_over_w: float
    dy_over_h: float
    log_w_ratio: float
    log_h_ratio: float

    def __post_init__(self):
        for v in self.as_tuple():
            if not math.isfinite(v):
                raise ValidationError(f"motion components must be finite, got {self!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.dx_over_w, self.dy_over_h, self.log_w_ratio, self.log_h_ratio)


def encode_motion(prev, cur) -> NormalizedMotion:
    """Motion from prev to cur (boxes or rows), normalized by prev's scale."""
    px, py, pw, ph = prev
    cx, cy, cw, ch = cur
    if min(pw, ph, cw, ch) <= _SIZE_EPS:
        raise ValidationError("cannot encode motion for degenerate box sizes")
    return NormalizedMotion(
        ((cx + cw / 2.0) - (px + pw / 2.0)) / pw,
        ((cy + ch / 2.0) - (py + ph / 2.0)) / ph,
        math.log(cw / pw),
        math.log(ch / ph),
    )


def encode_motion_rows(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """encode_motion over arrays of (cx, cy, w, h) rows that broadcast
    against each other; the same size check, and non-finite motions
    raise just as NormalizedMotion does.

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
    """apply_motion on a box or row and any 4 motion components; returns
    the (x, y, w, h) row, unchecked. The sizes go through math.exp, and
    a log size ratio beyond its range is a ValidationError."""
    x, y, w, h = base
    dx, dy, lw, lh = m
    try:
        nw, nh = w * math.exp(lw), h * math.exp(lh)
    except OverflowError:
        raise ValidationError(f"decoded box size overflows: log size ratios {lw}, {lh}") from None
    return ((x + w / 2.0) + dx * w - nw / 2.0, (y + h / 2.0) + dy * h - nh / 2.0, nw, nh)


def apply_motion(base: BoundingBox, m: NormalizedMotion) -> BoundingBox:
    """Inverse of encode_motion: apply m to base, normalized by base's scale."""
    return BoundingBox(*apply_motion_row(base, m.as_tuple()))
