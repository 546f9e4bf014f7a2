"""Core domain types: boxes, frame clocks, sequences.

Boxes are axis-aligned, anchored at the top-left corner, sized in pixels.
Centers are derived as (x + w/2, y + h/2). All timestamps are seconds in
double precision; frame indices are non-negative ints.

A BoundingBox is the checked type at the library boundary. Inside the
simulation loop, and in a run log's outputs, a box is a plain
(x, y, w, h) row of floats; a BoundingBox unpacks as its row, so the
metrics and the predictors take either. A Sequence's ground truth is
one (n, 4) column of rows, NaN where a frame has no annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ValidationError

RAW = "raw"
PREDICTED = "predicted"

_store = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class BoundingBox:
    x: float
    y: float
    w: float
    h: float

    def __init__(self, x: float, y: float, w: float, h: float):
        # one coercion and one store per field: the generated __init__
        # plus a __post_init__ would store each field twice
        x, y, w, h = float(x), float(y), float(w), float(h)
        _store(self, "x", x)
        _store(self, "y", y)
        _store(self, "w", w)
        _store(self, "h", h)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
            raise ValidationError(f"box fields must be finite, got {self!r}")
        if w <= 0 or h <= 0:
            raise ValidationError(f"box sizes must be positive, got w={w}, h={h}")

    def __iter__(self):
        return iter((self.x, self.y, self.w, self.h))

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @classmethod
    def from_center(cls, cx: float, cy: float, w: float, h: float) -> "BoundingBox":
        return cls(cx - w / 2.0, cy - h / 2.0, w, h)


@dataclass(frozen=True, slots=True)
class FrameClock:
    framerate_kappa: float

    def __post_init__(self):
        object.__setattr__(self, "framerate_kappa", float(self.framerate_kappa))
        if not (math.isfinite(self.framerate_kappa) and self.framerate_kappa > 0):
            raise ValidationError(f"framerate must be positive and finite, got {self.framerate_kappa}")

    def capture_time(self, f: int) -> float:
        """Wall-clock capture time of frame f: f / kappa seconds."""
        if f < 0:
            raise ValidationError(f"frame index must be >= 0, got {f}")
        return f / self.framerate_kappa


def box_column(boxes) -> np.ndarray:
    """(n, 4) float64 (x, y, w, h) rows, NaN where a frame has no box,
    from a Sequence, an array, or one BoundingBox, row or None per frame."""
    if isinstance(boxes, Sequence):
        return boxes.boxes
    if not isinstance(boxes, np.ndarray):
        boxes = [(math.nan,) * 4 if b is None else tuple(b) for b in boxes]
    col = np.asarray(boxes, dtype=np.float64)
    if col.size and (col.ndim != 2 or col.shape[1] != 4):
        raise ValidationError(f"boxes must be (n, 4) rows, got shape {col.shape}")
    return col.reshape(-1, 4)


class Sequence:
    """A named ground-truth trajectory with its capture clock.

    `boxes` is a read-only (n, 4) float64 column of (x, y, w, h) rows,
    NaN on a frame with no annotation, and `annotated` its read-only
    mask. The constructor takes the column or one BoundingBox, row or
    None per frame, and checks all rows in one vectorized pass. Frame 0
    must be annotated: it is the init box b0 handed to tracker and
    predictors. `ground_truth` derives one BoundingBox or None per frame.
    """

    def __init__(self, name: str, clock: FrameClock, truth):
        boxes = np.array(box_column(truth))
        if len(boxes) < 2:
            raise ValidationError(f"sequence {name!r} needs >= 2 frames, got {len(boxes)}")
        annotated = ~np.isnan(boxes).all(axis=1)
        ok = ~annotated | (np.isfinite(boxes).all(axis=1) & (boxes[:, 2] > 0) & (boxes[:, 3] > 0))
        if not ok.all():
            # the first bad row (a partial NaN one included) raises as BoundingBox words it
            BoundingBox(*boxes[int(np.argmin(ok))].tolist())
        if not annotated[0]:
            raise ValidationError(f"sequence {name!r} is missing the frame-0 init box")
        boxes.flags.writeable = annotated.flags.writeable = False
        self.name, self.clock, self.boxes, self.annotated = name, clock, boxes, annotated
        self.b0 = BoundingBox(*boxes[0].tolist())

    def __len__(self) -> int:
        return len(self.boxes)

    @cached_property
    def ground_truth(self) -> tuple:
        """One BoundingBox per annotated frame, None elsewhere; built on first use."""
        return tuple(BoundingBox(*row) if a else None
                     for row, a in zip(self.boxes.tolist(), self.annotated.tolist()))

    @property
    def last_frame(self) -> int:
        return len(self.boxes) - 1


def iou(a, b) -> float:
    """Intersection over union of two boxes or rows; 0 for disjoint boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    # float error can push the ratio a hair past 1 for near-identical boxes
    return min(1.0, inter / (aw * ah + bw * bh - inter))


def center_error(a, b) -> float:
    """Euclidean distance between the centers of two boxes or rows, pixels."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return math.hypot((ax + aw / 2.0) - (bx + bw / 2.0), (ay + ah / 2.0) - (by + bh / 2.0))


def _parse_line(line: str, lineno: int, path) -> BoundingBox | None:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 4:
        raise ValidationError(f"{path}:{lineno}: expected 4 comma-separated values, got {line!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if all(math.isnan(v) for v in vals):
        return None
    if any(math.isnan(v) for v in vals):
        raise ValidationError(f"{path}:{lineno}: partial NaN annotation {line!r}")
    return BoundingBox(*vals)


def load_sequence(path, framerate: float = 30.0, name: str | None = None) -> Sequence:
    """Read a ground-truth file: one "x,y,w,h" line per frame.

    Blank lines and NaN,NaN,NaN,NaN lines mark frames with no
    annotation; `#` lines are comments and do not count as frames.
    Four-field lines are cast in one numpy call (float() per field) and
    checked as a column; on any failure the per-line parser names the
    first bad line. Fields are counted per line, or a 3-field line and a
    5-field line would join into two rows.
    """
    path = Path(path)
    lines = [line.strip() for line in path.read_text().splitlines()]
    body = [line or "nan,nan,nan,nan" for line in lines if not line.startswith("#")]
    if all(line.count(",") == 3 for line in body):
        try:
            column = np.array(",".join(body).split(","), dtype=np.float64).reshape(-1, 4)
            return Sequence(name or path.stem, FrameClock(framerate), column)
        except ValueError:
            pass
    boxes = [_parse_line(line, lineno, path) if line else None
             for lineno, line in enumerate(lines, start=1) if not line.startswith("#")]
    return Sequence(name or path.stem, FrameClock(framerate), boxes)


def save_sequence(seq: Sequence, path, manifest_ref: str = None) -> None:
    lines = [f"# manifest={manifest_ref}"] if manifest_ref else []
    for row, annotated in zip(seq.boxes.tolist(), seq.annotated.tolist()):
        lines.append(",".join(map(repr, row)) if annotated else "NaN,NaN,NaN,NaN")
    Path(path).write_text("\n".join(lines) + "\n")
