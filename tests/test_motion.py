import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latetrack.boxes import BoundingBox, centers, corners
from latetrack.errors import ValidationError
from latetrack.motion import apply_motion_rows, encode_motion, encode_motion_rows
from latetrack.network import PMWeights, pm_predict, window_inputs

from _oracles import apply_motion_row, box_from_center

coords = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
sizes = st.floats(0.5, 1e3, allow_nan=False, allow_infinity=False)
gt_boxes = st.builds(BoundingBox, coords, coords, sizes, sizes)


def decode(base, m):
    """apply_motion_rows on one box, through its center row, as a box."""
    return BoundingBox(*corners(apply_motion_rows(centers(np.array([tuple(base)])),
                                                  np.array([m], dtype=float)))[0])


class TestEncode:
    def test_translation_example(self):
        prev = BoundingBox(0, 0, 10, 20)
        cur = BoundingBox(1, 3, 10, 20)
        assert encode_motion(prev, cur) == (0.1, 0.15, 0.0, 0.0)

    def test_identity(self):
        b = BoundingBox(4, 5, 8, 9)
        assert encode_motion(b, b) == (0.0, 0.0, 0.0, 0.0)

    def test_growth_example(self):
        prev = BoundingBox(0, 0, 10, 10)
        cur = box_from_center(10, 10, 20, 20)
        dx, dy, lw, lh = encode_motion(prev, cur)
        assert dx == pytest.approx(0.5)
        assert dy == pytest.approx(0.5)
        assert lw == pytest.approx(math.log(2))
        assert lh == pytest.approx(math.log(2))

    def test_non_finite_motion_rejected(self):
        # both sizes pass the degenerate check, but their ratio overflows to inf
        with pytest.raises(ValidationError, match="motion components must be finite"):
            encode_motion((0, 0, 1e-10, 1), (0, 0, 1e300, 1))


class TestApply:
    def test_identity(self):
        b = BoundingBox(4, 5, 8, 9)
        assert decode(b, (0, 0, 0, 0)) == b

    def test_doubling_example(self):
        out = decode(BoundingBox(0, 0, 10, 10), (0.5, 0.5, math.log(2), math.log(2)))
        assert out == BoundingBox(0, 0, 20, 20)

    @given(gt_boxes, gt_boxes)
    def test_round_trip(self, prev, cur):
        back = decode(prev, encode_motion(prev, cur))
        for a, b in zip((back.x, back.y, back.w, back.h), (cur.x, cur.y, cur.w, cur.h)):
            assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(b)))

    @given(gt_boxes, gt_boxes, st.sampled_from([0.1, 1.0, 10.0]))
    def test_scale_invariance(self, prev, cur, s):
        def scaled(b):
            return BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s)

        m = encode_motion(prev, cur)
        ms = encode_motion(scaled(prev), scaled(cur))
        for a, b in zip(m, ms):
            assert a == pytest.approx(b, abs=1e-9)

    def test_degenerate_result_rejected(self):
        with pytest.raises(ValidationError):
            decode(BoundingBox(0, 0, 1, 1), (0, 0, -800.0, 0))


class TestApplyRows:
    """apply_motion_rows against the scalar oracle, byte for byte."""

    @staticmethod
    def random_rows(rng, shape):
        corner = rng.uniform(-50, 50, (*shape, 2))
        return np.concatenate([corner, rng.uniform(0.5, 80, (*shape, 2))], axis=-1)

    def test_matches_the_scalar_decoder(self):
        # np.exp would differ from math.exp in a few of these size ratios
        rng = np.random.default_rng(5)
        base, m = self.random_rows(rng, (500,)), rng.normal(0, 0.5, size=(500, 4))
        got = corners(apply_motion_rows(centers(base), m))
        want = np.array([apply_motion_row(b, v) for b, v in zip(base.tolist(), m.tolist())])
        assert got.tobytes() == want.tobytes()

    def test_one_base_row_against_n_motions(self):
        # pm_predict's broadcast: (m, 1, 4) latest rows against (m, N, 4) motions
        rng = np.random.default_rng(6)
        base, m = self.random_rows(rng, (60,)), rng.normal(0, 0.5, size=(60, 3, 4))
        got = corners(apply_motion_rows(centers(base)[:, None], m))
        want = np.array([[apply_motion_row(b, v) for v in heads]
                         for b, heads in zip(base.tolist(), m.tolist())])
        assert got.shape == (60, 3, 4)
        assert got.tobytes() == want.tobytes()

    def test_overflowing_log_size_ratio_rejected(self):
        m = np.zeros((2, 4))
        m[1, 3] = 800.0
        with pytest.raises(ValidationError, match="^decoded box size overflows"):
            apply_motion_rows(np.array([[5.0, 5.0, 10.0, 10.0]]), m)


class TestEncodeRows:
    def test_matches_scalar_codec_exactly(self):
        # np.log would differ from math.log in a few of these size ratios
        rng = np.random.default_rng(4)
        pairs = [[BoundingBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 80, 2))
                  for _ in range(2)] for _ in range(500)]
        rows = np.array([[(b.cx, b.cy, b.w, b.h) for b in pair] for pair in pairs])
        got = encode_motion_rows(rows[:, 0], rows[:, 1])
        for (prev, cur), row in zip(pairs, got):
            assert tuple(row) == encode_motion(prev, cur)

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValidationError):
            encode_motion_rows(np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]))


def speed_of(motions, intervals):
    """Mean speed of one window, through the network's input builder."""
    _, speeds = window_inputs(np.array([motions], dtype=float),
                              np.array([intervals]))
    return tuple(speeds[0])


class TestAverageSpeed:
    def test_interval_weighting(self):
        # one unit of x-motion over one frame, then none over one frame
        ms = ((0.2, 0, 0, 0), (0, 0, 0, 0))
        assert speed_of(ms, (1, 1)) == (0.1, 0.0, 0.0, 0.0)

    def test_zeros(self):
        assert speed_of(((0, 0, 0, 0),) * 3, (1, 2, 1)) == (0.0, 0.0, 0.0, 0.0)

    def test_single_entry_with_stride(self):
        assert speed_of(((0.2, -0.2, 0, 0),), (2,)) == (0.1, -0.1, 0.0, 0.0)


BASE = BoundingBox(0, 0, 10, 10)


def predicted_box(factor, speed):
    """pm_predict's row for a constant factor over a one-step, one-frame
    window moving at `speed`, as a checked box."""
    w = PMWeights(k=1, n_heads=1, c_enc=2, c_dec=2)
    w.out_b[:] = factor
    return BoundingBox(*pm_predict(w, np.array([[speed]]), np.array([[1]]),
                                   np.array([tuple(BASE)]))[0, 0])


class TestApplyFactor:
    """A predicted factor scales the window's average speed
    elementwise; pm_predict applies the product to the latest box."""

    def test_scales_speed_by_factor(self):
        speed = (0.1, 0, 0, 0)
        want = BoundingBox(*apply_motion_row(BASE, (3.0 * 0.1, 0.0, 0.0, 0.0)))
        assert predicted_box((3.0, 3.0, 3.0, 3.0), speed) == want

    def test_zero_factor_annihilates(self):
        speed = (0.1, -0.2, 0.05, 0.01)
        want = BoundingBox(*apply_motion_row(BASE, (0, 0, 0, 0)))
        assert predicted_box((0, 0, 0, 0), speed) == want

    def test_unit_factor_identity(self):
        speed = (0.1, -0.2, 0.05, 0.01)
        assert predicted_box((1, 1, 1, 1), speed) == BoundingBox(*apply_motion_row(BASE, speed))

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_linear_in_factor(self, f1, f2):
        speed = (0.25, -0.5, 0.125, 0.0625)

        def motion(f):
            return encode_motion(BASE, predicted_box((f,) * 4, speed))

        for x, y, z in zip(motion(f1), motion(f2), motion(f1 + f2)):
            assert x + y == pytest.approx(z, abs=1e-12)


class TestConstantVelocityExactness:
    def test_unit_factors_continue_cv_track(self):
        # constant pixel velocity with fixed size: every step encodes identically
        track = [BoundingBox(3.0 * i, -1.5 * i, 12, 12) for i in range(6)]
        motions = tuple(encode_motion(a, b) for a, b in zip(track, track[1:]))
        step = speed_of(motions, (1,) * len(motions))
        nxt = decode(track[-1], step)
        want = BoundingBox(3.0 * 6, -1.5 * 6, 12, 12)
        assert nxt.cx == pytest.approx(want.cx, abs=1e-12)
        assert nxt.cy == pytest.approx(want.cy, abs=1e-12)
