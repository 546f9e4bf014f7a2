"""Per-invocation processing-time models for trackers and predictors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CONSTANT = "constant"
GAUSSIAN = "gaussian"
REPLAY = "replay"


@dataclass(frozen=True, slots=True)
class LatencyProfile:
    """Config for a latency source; each run takes one block of draws
    from it with a seed of the run's own.

    Draws are clamped at `floor`, so sampled latency >= floor >= 0 always.
    The replay kind yields recorded values in order and errs when exhausted.
    """

    kind: str
    mean: float = 0.0
    stddev: float = 0.0
    floor: float = 0.0
    replay_values: tuple = ()

    def __post_init__(self):
        if self.kind not in (CONSTANT, GAUSSIAN, REPLAY):
            raise ValidationError(f"unknown latency kind {self.kind!r}")
        for name in ("mean", "stddev", "floor"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.floor < 0 or not math.isfinite(self.floor):
            raise ValidationError(f"floor must be >= 0, got {self.floor}")
        if not (math.isfinite(self.mean) and math.isfinite(self.stddev)):
            raise ValidationError(f"mean and stddev must be finite, got {self.mean} and {self.stddev}")
        if self.kind == CONSTANT and self.mean < self.floor:
            raise ValidationError(f"constant latency {self.mean} below floor {self.floor}")
        if self.kind == GAUSSIAN and self.stddev < 0:
            raise ValidationError(f"stddev must be >= 0, got {self.stddev}")
        if self.kind == REPLAY:
            object.__setattr__(self, "replay_values", tuple(float(v) for v in self.replay_values))
            if not self.replay_values:
                raise ValidationError("replay profile needs at least one value")
            if not all(self.floor <= v < math.inf for v in self.replay_values):
                raise ValidationError("replay latency must be finite and >= floor")

    @classmethod
    def constant(cls, mean: float) -> "LatencyProfile":
        return cls(CONSTANT, mean=mean)

    @classmethod
    def gaussian(cls, mean: float, stddev: float, floor: float = 0.001) -> "LatencyProfile":
        return cls(GAUSSIAN, mean=mean, stddev=stddev, floor=floor)

    @classmethod
    def replay(cls, values) -> "LatencyProfile":
        return cls(REPLAY, replay_values=tuple(values))

    def draws(self, seed: int, n: int) -> list:
        """A run's first n draws as floats, taken as one block: the mean
        n times, n normal draws clamped at the floor, or the recorded
        values in order. One size-n normal call gives the numbers of n
        scalar calls on a generator seeded `seed`; only gaussian draws
        use the seed. A replay profile gives at most its values, and a
        run that needs more raises `Exhausted`."""
        if self.kind == CONSTANT:
            return [self.mean] * n
        if self.kind == GAUSSIAN:
            block = np.random.default_rng(seed).normal(self.mean, self.stddev, size=n)
            # where(x > floor, x, floor) is max(floor, x), signed zeros included
            return np.where(block > self.floor, block, self.floor).tolist()
        return list(self.replay_values[:n])


class Exhausted(ValidationError):
    """The error of a run that needs one latency draw more than `draws`
    holds, which only a replay block can run out of. `role` ("tracker"
    or "predictor") and `sequence` say whose block it was, so a reader
    of the block's file can name it."""

    def __init__(self, draws, role: str, sequence: str):
        super().__init__(f"{role} replay latency exhausted after {len(draws)} draws "
                         f"in sequence {sequence!r}")
        self.role, self.sequence = role, sequence
