import math

import pytest
from hypothesis import given, strategies as st

from latetrack.boxes import (BoundingBox, FrameClock, Sequence, center_error, iou,
                             load_sequence, save_sequence)
from latetrack.errors import ValidationError

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(0.1, 1e4, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, finite, finite, positive, positive)


class TestBoundingBox:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, 10, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            BoundingBox(float("nan"), 0, 10, 10)
        with pytest.raises(ValidationError):
            BoundingBox(0, float("inf"), 10, 10)

    def test_center(self):
        b = BoundingBox(0, 0, 10, 30)
        assert (b.cx, b.cy) == (5.0, 15.0)

    def test_from_center_round_trip(self):
        b = BoundingBox.from_center(5, 15, 10, 30)
        assert b == BoundingBox(0, 0, 10, 30)

    def test_fields_coerced_to_plain_floats(self):
        import numpy as np

        b = BoundingBox(np.float64(1.5), np.int64(2), np.float32(10.0), 20)
        assert all(type(v) is float for v in (b.x, b.y, b.w, b.h))

    def test_keywords_and_replace(self):
        import dataclasses

        b = BoundingBox(x=1, y=2, w=3, h=4)
        assert dataclasses.replace(b, w=5) == BoundingBox(1.0, 2.0, 5.0, 4.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.x = 0.0


class TestFrameClock:
    def test_capture_examples(self):
        assert FrameClock(30).capture_time(0) == 0.0
        assert FrameClock(30).capture_time(3) == 0.1
        assert FrameClock(25).capture_time(7) == 0.28

    def test_negative_frame_rejected(self):
        with pytest.raises(ValidationError):
            FrameClock(30).capture_time(-1)

    def test_bad_framerate(self):
        for kappa in (0, -5, float("nan")):
            with pytest.raises(ValidationError):
                FrameClock(kappa)

    @given(st.integers(0, 10_000))
    def test_strictly_monotone(self, f):
        clock = FrameClock(30)
        assert clock.capture_time(f + 1) > clock.capture_time(f)


class TestIoU:
    def test_identity(self):
        b = BoundingBox(3, 4, 11, 7)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0

    def test_half_overlap(self):
        # intersection 100, union 200
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, 20)) == 0.5

    def test_touching_edges_count_as_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 10, 10)) == 0.0

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


class TestCenterError:
    def test_identity(self):
        b = BoundingBox(1, 2, 3, 4)
        assert center_error(b, b) == 0.0

    def test_three_four_five(self):
        assert center_error(BoundingBox(0, 0, 10, 10), BoundingBox(3, 4, 10, 10)) == 5.0

    def test_size_change_moves_center(self):
        assert center_error(BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, 30)) == 10.0

    @given(boxes, boxes)
    def test_symmetric_nonnegative(self, a, b):
        assert center_error(a, b) == center_error(b, a) >= 0.0


class TestSequence:
    def test_too_short(self):
        with pytest.raises(ValidationError):
            Sequence("s", FrameClock(30), (BoundingBox(0, 0, 1, 1),))

    def test_frame_zero_must_be_annotated(self):
        with pytest.raises(ValidationError):
            Sequence("s", FrameClock(30), (None, BoundingBox(0, 0, 1, 1)))

    def test_b0_and_last_frame(self):
        b = BoundingBox(0, 0, 5, 5)
        seq = Sequence("s", FrameClock(30), (b, None, b))
        assert seq.b0 == b
        assert seq.last_frame == 2
        assert len(seq) == 3


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        seq = Sequence("rt", FrameClock(30), (
            BoundingBox(1.25, 2.5, 10.125, 20.0),
            None,
            BoundingBox(3.000000001, 4, 5, 6),
        ))
        path = tmp_path / "rt.txt"
        save_sequence(seq, path)
        back = load_sequence(path, framerate=30)
        assert back.name == "rt"
        assert back.ground_truth == seq.ground_truth

    def test_missing_annotation_forms(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("0,0,10,10\nNaN,NaN,NaN,NaN\n\n5,5,10,10\n")
        seq = load_sequence(path)
        assert seq.ground_truth[1] is None
        assert seq.ground_truth[2] is None
        assert len(seq) == 4

    def test_comment_lines_do_not_count_as_frames(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# manifest=abc\n0,0,10,10\n1,0,10,10\n")
        assert len(load_sequence(path)) == 2

    def test_manifest_comment_written(self, tmp_path):
        seq = Sequence("m", FrameClock(30), (BoundingBox(0, 0, 1, 1),) * 2)
        path = tmp_path / "m.txt"
        save_sequence(seq, path, manifest_ref="deadbeef0123")
        assert path.read_text().startswith("# manifest=deadbeef0123\n")

    def test_partial_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,10,10\nNaN,0,10,10\n")
        with pytest.raises(ValidationError):
            load_sequence(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0,10\n")
        with pytest.raises(ValidationError):
            load_sequence(path)
