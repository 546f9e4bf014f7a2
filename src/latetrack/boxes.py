"""Core domain types: boxes, frame clocks, sequences.

Boxes are axis-aligned, anchored at the top-left corner, sized in pixels.
centers and corners are the one conversion between (x, y, w, h) rows
and (cx, cy, w, h) rows, cx = x + w/2 and cy = y + h/2. All timestamps
are seconds in double precision; frame indices are non-negative ints.
FrameClock.capture_times is the one rule for when a frame is captured,
f / kappa seconds; the schedule and the deadlines both read it.

A box is an (x, y, w, h) row of floats everywhere: in a Sequence's
ground truth, in a simulated run and in a run log's `boxes` column.
box_column makes an (n, 4) array of rows. valid_boxes is the one rule
for a valid box (finite fields, positive sizes), and check_rows the one
place that words a bad row; Sequence, RunLog and the ground-truth
reader check their rows through it. A Sequence's ground truth is one
(n, 4) column of rows, NaN where a frame has no annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ValidationError, naming

RAW = "raw"
PREDICTED = "predicted"
# Frames per second of a sequence whose file holds no clock.
DEFAULT_FRAMERATE = 30.0

@dataclass(frozen=True, slots=True)
class FrameClock:
    framerate_kappa: float

    def __post_init__(self):
        object.__setattr__(self, "framerate_kappa", float(self.framerate_kappa))
        if not (math.isfinite(self.framerate_kappa) and self.framerate_kappa > 0):
            raise ValidationError(f"framerate must be positive and finite, got {self.framerate_kappa}")

    def capture_times(self, frames) -> np.ndarray:
        """Wall-clock capture instants of frame indices: f / kappa
        seconds each, the one such rule. Unchecked: callers check frames
        at their boundary."""
        return np.asarray(frames) / self.framerate_kappa


def box_column(boxes) -> np.ndarray:
    """(n, 4) float64 (x, y, w, h) rows, NaN where a frame has no box,
    from a Sequence, an array, or one row or None per frame."""
    if isinstance(boxes, Sequence):
        return boxes.boxes
    if not isinstance(boxes, np.ndarray):
        boxes = [(math.nan,) * 4 if b is None else tuple(b) for b in boxes]
    col = np.asarray(boxes, dtype=np.float64)
    if col.size and (col.ndim != 2 or col.shape[1] != 4):
        raise ValidationError(f"boxes must be (n, 4) rows, got shape {col.shape}")
    return col.reshape(-1, 4)


def valid_boxes(rows: np.ndarray) -> np.ndarray:
    """The (n,) mask of the (n, 4) rows that are boxes: every field
    finite, and positive sizes."""
    return np.isfinite(rows).all(axis=1) & (rows[:, 2] > 0) & (rows[:, 3] > 0)


def check_rows(rows) -> None:
    """Raise a ValidationError naming the first of the (n, 4) rows that
    is not a box: non-finite fields first, then non-positive sizes."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    ok = valid_boxes(rows)
    if ok.all():
        return
    x, y, w, h = rows[int(np.argmin(ok))].tolist()
    if not all(map(math.isfinite, (x, y, w, h))):
        raise ValidationError(f"box fields must be finite, got "
                              f"BoundingBox(x={x!r}, y={y!r}, w={w!r}, h={h!r})")
    raise ValidationError(f"box sizes must be positive, got w={w}, h={h}")


def centers(rows: np.ndarray) -> np.ndarray:
    """(..., 4) (x, y, w, h) rows as (cx, cy, w, h) rows."""
    return np.concatenate([rows[..., :2] + rows[..., 2:] / 2.0, rows[..., 2:]], axis=-1)


def corners(rows: np.ndarray) -> np.ndarray:
    """(..., 4) (cx, cy, w, h) rows as (x, y, w, h) rows."""
    return np.concatenate([rows[..., :2] - rows[..., 2:] / 2.0, rows[..., 2:]], axis=-1)


class Sequence:
    """A named ground-truth trajectory with its capture clock.

    `boxes` is a read-only (n, 4) float64 column of (x, y, w, h) rows,
    NaN on a frame with no annotation, and `annotated` its read-only
    mask. The constructor takes the column or one row or None per frame,
    and checks every annotated row (a partial NaN one included) in one
    check_rows pass. Frame 0 must be annotated: its row is the init box
    b0, a 4-tuple of floats, handed to tracker and predictors.
    `ground_truth` derives one row tuple or None per frame.
    """

    def __init__(self, name: str, clock: FrameClock, truth):
        boxes = np.array(box_column(truth))
        if len(boxes) < 2:
            raise ValidationError(f"sequence {name!r} needs >= 2 frames, got {len(boxes)}")
        annotated = ~np.isnan(boxes).all(axis=1)
        check_rows(boxes[annotated])
        if not annotated[0]:
            raise ValidationError(f"sequence {name!r} is missing the frame-0 init box")
        boxes.flags.writeable = annotated.flags.writeable = False
        self.name, self.clock, self.boxes, self.annotated = name, clock, boxes, annotated
        self.b0 = tuple(boxes[0].tolist())

    def __len__(self) -> int:
        return len(self.boxes)

    @cached_property
    def ground_truth(self) -> tuple:
        """One (x, y, w, h) tuple per annotated frame, None elsewhere;
        built on first use. Kept for bench/ until ROADMAP item 1."""
        return tuple(tuple(row) if a else None
                     for row, a in zip(self.boxes.tolist(), self.annotated.tolist()))

    @property
    def last_frame(self) -> int:
        return len(self.boxes) - 1


def iou(a, b) -> float:
    """Intersection over union of two boxes or rows; 0 for disjoint
    boxes. Kept for bench/ (its calls are counted) until ROADMAP item 1."""
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
    """Euclidean distance between the centers of two boxes or rows,
    pixels. Kept for bench/ (its calls are counted) until ROADMAP item 1."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return math.hypot((ax + aw / 2.0) - (bx + bw / 2.0), (ay + ah / 2.0) - (by + bh / 2.0))


def _parse_line(line: str, lineno: int, path) -> tuple | None:
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
    with naming(f"{path}:{lineno}"):
        check_rows(vals)
    return tuple(vals)


def load_sequence(path, framerate: float = DEFAULT_FRAMERATE) -> Sequence:
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
            return Sequence(path.stem, FrameClock(framerate), column)
        except ValueError:
            pass
    boxes = [_parse_line(line, lineno, path) if line else None
             for lineno, line in enumerate(lines, start=1) if not line.startswith("#")]
    return Sequence(path.stem, FrameClock(framerate), boxes)


def save_sequence(seq: Sequence, path, manifest_ref: str = None) -> None:
    lines = [f"# manifest={manifest_ref}"] if manifest_ref else []
    for row, annotated in zip(seq.boxes.tolist(), seq.annotated.tolist()):
        lines.append(",".join(map(repr, row)) if annotated else "NaN,NaN,NaN,NaN")
    Path(path).write_text("\n".join(lines) + "\n")
