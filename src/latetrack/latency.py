"""Per-invocation processing-time models for trackers and predictors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CONSTANT = "constant"
GAUSSIAN = "gaussian_truncated"
REPLAY = "replay"


@dataclass(frozen=True, slots=True)
class LatencyProfile:
    """Config for a latency source; each run builds a sampler from it
    with a seed of the run's own.

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

    def sampler(self, seed: int) -> "LatencySampler":
        """Fresh per-run sampler; only gaussian draws use the seed."""
        return LatencySampler(self, seed)


class LatencySampler:
    def __init__(self, profile: LatencyProfile, seed: int):
        self._profile = profile
        self._rng = np.random.default_rng(seed) if profile.kind == GAUSSIAN else None
        self._pos = 0

    def draw(self) -> float:
        p = self._profile
        if p.kind == CONSTANT:
            return p.mean
        if p.kind == GAUSSIAN:
            return max(p.floor, float(self._rng.normal(p.mean, p.stddev)))
        if self._pos >= len(p.replay_values):
            raise ValidationError(f"replay latency exhausted after {self._pos} draws")
        value = p.replay_values[self._pos]
        self._pos += 1
        return value
