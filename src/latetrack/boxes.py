"""Core domain types: boxes, frame clocks, sequences.

Boxes are axis-aligned, anchored at the top-left corner, sized in pixels.
Centers are derived as (x + w/2, y + h/2). All timestamps are seconds in
double precision; frame indices are non-negative ints.

A BoundingBox is the checked type at file and library boundaries.
Inside the simulation loop, and in a run log's outputs, a box is a plain
(x, y, w, h) row of floats; a BoundingBox unpacks as its row, so the
metrics and the predictors take either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class Sequence:
    """A named ground-truth trajectory with its capture clock.

    ground_truth has one entry per frame; None marks a frame with no
    annotation. Frame 0 must be annotated: it is the initialization
    box b_0 handed to tracker and predictors.
    """

    name: str
    clock: FrameClock
    ground_truth: tuple

    def __post_init__(self):
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        if len(self.ground_truth) < 2:
            raise ValidationError(f"sequence {self.name!r} needs >= 2 frames, got {len(self.ground_truth)}")
        if self.ground_truth[0] is None:
            raise ValidationError(f"sequence {self.name!r} is missing the frame-0 init box")

    def __len__(self) -> int:
        return len(self.ground_truth)

    @property
    def b0(self) -> BoundingBox:
        return self.ground_truth[0]

    @property
    def last_frame(self) -> int:
        return len(self.ground_truth) - 1


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
    """
    path = Path(path)
    boxes = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        if stripped == "":
            boxes.append(None)
            continue
        boxes.append(_parse_line(stripped, lineno, path))
    return Sequence(name or path.stem, FrameClock(framerate), tuple(boxes))


def save_sequence(seq: Sequence, path, manifest_ref: str = None) -> None:
    lines = []
    if manifest_ref:
        lines.append(f"# manifest={manifest_ref}")
    for box in seq.ground_truth:
        if box is None:
            lines.append("NaN,NaN,NaN,NaN")
        else:
            lines.append(f"{box.x!r},{box.y!r},{box.w!r},{box.h!r}")
    Path(path).write_text("\n".join(lines) + "\n")
