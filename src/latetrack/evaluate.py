"""Latency-aware evaluation: match each frame's wall-clock deadline to
the newest available output, score center error and overlap, and sweep
the permitted-latency grid.

The permitted latency sigma is dimensionless, a fraction of one frame
period; the slack added to frame f's deadline is sigma / kappa seconds.
sigma = 0 scores the stream strictly online; sigma -> 1 approaches (but
never reaches) a one-frame grace period.

Scoring is array-native: an EstimateMatcher indexes one run log once,
and the same index answers every (frame, sigma) pair with two
`searchsorted` calls. `serve` names the output that serves each pair.
`scores` scores by runs: along each annotated frame's row of sigmas the
served output changes only where the deadline crosses an availability
instant, so it matches and scores each run of one served output once
(center error, IoU) and counts the run for every sigma it spans, which
gives DP and AUC per sigma exactly as scoring every pair would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import RAW, Sequence
from .errors import ValidationError
from .simulate import RunLog

DP_THRESHOLD_PX = 20.0
IOU_THRESHOLDS = tuple((np.arange(21) / 20.0).tolist())

_GRID = tuple((np.arange(50) * 0.02).tolist())
_TAU = np.asarray(IOU_THRESHOLDS)


def sigma_grid() -> tuple:
    """The 50-point evaluation grid {0, 0.02, ..., 0.98}."""
    return _GRID


class EstimateMatcher:
    """Deadline matcher over one run log, built once and queried with
    arrays of (frame, sigma) pairs.

    The policy: take the newest availability instant not after the
    deadline, then within that instant the output with the largest
    target frame <= f, else the largest target frame outright; ties go
    to the latest entry in log order. No instant in time means the
    initial box b0.

    The index sorts the outputs by (available_at, target_frame, log
    index). Outputs sharing an instant form a group, stored as its first
    and last positions. Each entry's key is group * span + target_frame,
    where span exceeds every target and every frame, so the keys ascend
    and a right `searchsorted` of group * span + f lands on the group's
    last entry with target <= f, or before the group's start when there
    is none. Row 0 of the served table is b0; sorted entry k is row k + 1.
    The index reads the log's columns directly, as rows.

    `scores` asks the index once per run: a maximal stretch of a frame's
    sigmas whose deadlines fall in one instant group, and so share one
    served output.
    """

    def __init__(self, seq: Sequence, log: RunLog):
        target = log.target_frame
        beyond = (log.kind == RAW) & (target > seq.last_frame)
        if beyond.any():
            raise ValidationError(
                f"log targets frame {target[np.argmax(beyond)]} beyond sequence end {seq.last_frame}"
            )
        self._seq = seq
        order = np.lexsort((np.arange(len(target)), target, log.available_at))
        avail = log.available_at[order]
        target = target[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = avail[1:] != avail[:-1]
        self._avail = avail[starts]
        self._first = np.flatnonzero(starts)
        self._last = np.append(self._first[1:], len(order)) - 1
        self._span = max(seq.last_frame, int(target.max(initial=0))) + 2
        self._keys = (np.cumsum(starts) - 1) * self._span + target
        self._order = order
        self._rows = np.concatenate([seq.boxes[:1], log.boxes[order]])
        self._frames = np.flatnonzero(seq.annotated)
        self._truth = seq.boxes[seq.annotated]

    def _pick(self, frames, deadlines):
        """Row of the served table for each (frame, deadline) pair;
        frames broadcast against deadlines."""
        gi = np.searchsorted(self._avail, deadlines, side="right") - 1
        if not len(self._avail):
            return np.zeros(np.shape(gi), dtype=np.intp)
        group = np.maximum(gi, 0)
        pos = np.searchsorted(self._keys, group * self._span + frames, side="right") - 1
        pos = np.where(pos < self._first[group], self._last[group], pos)
        return np.where(gi < 0, 0, pos + 1)

    def _deadlines(self, frames, sigmas):
        """f / kappa + sigma / kappa for each (frame, sigma) pair, frames
        broadcast against sigmas; a frame outside the sequence or a
        sigma outside [0, 1) raises, naming the first."""
        last = self._seq.last_frame
        frames = np.asarray(frames)
        sigmas = np.asarray(sigmas, dtype=float)
        bad = (frames < 0) | (frames > last)
        if bad.any():
            raise ValidationError(f"frame {frames.flat[np.argmax(bad)]} outside sequence 0..{last}")
        bad = ~((sigmas >= 0.0) & (sigmas < 1.0))
        if bad.any():
            raise ValidationError(f"sigma must be in [0, 1), got {sigmas.flat[np.argmax(bad)]}")
        clock = self._seq.clock
        return clock.capture_times(frames) + sigmas / clock.framerate_kappa

    def serve(self, frames, sigmas) -> np.ndarray:
        """Log index of the output that serves each (frame, sigma) pair,
        frames broadcast against sigmas; -1 where b0 serves."""
        rows = self._pick(frames, self._deadlines(frames, sigmas))
        return np.append(-1, self._order)[rows]

    def scores(self, sigmas) -> tuple:
        """(DP, AUC) arrays with one entry per sigma. Frames without an
        annotation are excluded from both. Sigmas may come in any order
        and repeat: runs follow the given order, and the integer counts
        per sigma equal those of scoring every pair."""
        deadlines = self._deadlines(self._frames[:, None], np.reshape(sigmas, (1, -1)))
        n, n_sigma = deadlines.shape
        group = np.searchsorted(self._avail, deadlines, side="right")
        opens = np.ones(deadlines.shape, dtype=bool)
        opens[:, 1:] = group[:, 1:] != group[:, :-1]
        # run r covers sigmas start[r]:end[r] of annotated frame at[r];
        # the run after a row's last starts the next row at 0
        runs = np.flatnonzero(opens)
        at, start = np.divmod(runs, n_sigma)
        end = np.concatenate((start[1:], start[:1]))
        end[end == 0] = n_sigma
        est = self._rows[self._pick(self._frames[at], deadlines.ravel()[runs])]
        gx, gy, gw, gh = self._truth[at].T
        ex, ey, ew, eh = est.T
        # boxes.center_error and boxes.iou, elementwise
        dx = (gx + gw / 2.0) - (ex + ew / 2.0)
        dy = (gy + gh / 2.0) - (ey + eh / 2.0)
        cle = np.hypot(dx, dy)
        hits = cle <= DP_THRESHOLD_PX
        # np.hypot and math.hypot may round an ulp apart; settle the
        # threshold near 20 px with the scalar center_error's math.hypot
        for i in np.flatnonzero(np.abs(cle - DP_THRESHOLD_PX) < 1e-9).tolist():
            hits[i] = math.hypot(dx[i], dy[i]) <= DP_THRESHOLD_PX
        ix = np.minimum(gx + gw, ex + ew) - np.maximum(gx, ex)
        iy = np.minimum(gy + gh, ey + eh) - np.maximum(gy, ey)
        inter = ix * iy
        overlap = np.zeros_like(inter)
        np.divide(inter, gw * gh + ew * eh - inter, out=overlap, where=(ix > 0) & (iy > 0))
        np.minimum(overlap, 1.0, out=overlap)
        dp = _run_counts(start[hits], end[hits], 1, n_sigma)[:, 0] / n
        # above[j, k] = #(iou > tau_k) at sigma j, from the number of
        # thresholds below each IoU, binned per sigma
        below = np.searchsorted(_TAU, overlap, side="left")
        bins = len(_TAU) + 1
        hist = _run_counts(below + bins * start, below + bins * end, bins, n_sigma)
        above = n - np.cumsum(hist, axis=1)[:, :-1]
        auc = (above / n).mean(axis=1)
        return dp, auc


def _run_counts(first, end, bins, n_sigma) -> np.ndarray:
    """(n_sigma, bins) integer counts of runs spanning each sigma, from
    each run's cell at its first sigma and at its end (bin + bins * sigma):
    +1 at the first, -1 at the end, summed along sigma."""
    cells = bins * (n_sigma + 1)
    steps = np.bincount(first, minlength=cells) - np.bincount(end, minlength=cells)
    return np.cumsum(steps.reshape(n_sigma + 1, bins), axis=0)[:-1]


@dataclass(frozen=True)
class EvalCurve:
    """One value in [0, 1] per sigma of the 50-point grid."""
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(_GRID):
            raise ValidationError("one value per grid point required")
        if any(not 0.0 <= v <= 1.0 for v in self.values):
            raise ValidationError("curve values must lie in [0, 1]")

    @property
    def aggregate(self) -> float:
        return float(np.mean(self.values))


def _uniform_mean(per_sequence) -> list:
    """Per-sigma mean over sequences of equal-length value rows; each
    sigma's values are summed in sequence order, as np.mean of a list."""
    return np.stack(per_sequence, axis=1).mean(axis=1).tolist()


def average_curves(curves) -> EvalCurve:
    """Uniform mean of per-sequence curves; sweep over several
    sequences returns exactly this mean of their one-sequence sweeps."""
    return EvalCurve(_uniform_mean([np.asarray(c.values) for c in curves]))


def sweep(seq_set, logs) -> tuple:
    """Score every sequence at every grid sigma; returns the AUC curve
    and the DP curve, each averaged uniformly across sequences."""
    seq_set = list(seq_set)
    logs = list(logs)
    if not seq_set:
        raise ValidationError("sweep needs at least one sequence")
    if len(seq_set) != len(logs):
        raise ValidationError(f"{len(seq_set)} sequences but {len(logs)} logs")
    scores = [EstimateMatcher(seq, log).scores(_GRID) for seq, log in zip(seq_set, logs)]
    return (EvalCurve(_uniform_mean([auc for _, auc in scores])),
            EvalCurve(_uniform_mean([dp for dp, _ in scores])))
