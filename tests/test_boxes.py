import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import BoundingBox, load_sequence_lines
from latetrack.boxes import (RAW, FrameClock, Sequence, center_error, centers, check_rows,
                             corners, iou, load_sequence, save_sequence, valid_boxes)
from latetrack.errors import ValidationError
from latetrack.simulate import RunLog, load_run_log, load_trace

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(0.1, 1e4, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, finite, finite, positive, positive)


class TestBoundingBox:
    """A box is an (x, y, w, h) row: valid_boxes and check_rows are the
    one row check, and the oracle BoundingBox words what they must say."""

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError):
            check_rows([(0, 0, 0, 10)])
        with pytest.raises(ValidationError):
            check_rows([(0, 0, 10, 10), (0, 0, 10, -1)])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            check_rows([(float("nan"), 0, 10, 10)])
        with pytest.raises(ValidationError):
            check_rows(np.array([[0, float("inf"), 10, 10]]))

    def test_center(self):
        rng = np.random.default_rng(4)
        rows = np.hstack([rng.uniform(-50, 50, (20, 2)), rng.uniform(0.5, 80, (20, 2))])
        boxes = [BoundingBox(*row) for row in rows.tolist()]
        assert centers(rows).tolist() == [[b.cx, b.cy, b.w, b.h] for b in boxes]

    def test_centers_and_corners_round_trip(self):
        rows = np.array([[0.0, 0.0, 10.0, 30.0], [-3.0, 7.5, 4.0, 1.0]])
        assert centers(rows).tolist() == [[5.0, 15.0, 10.0, 30.0], [-1.0, 8.0, 4.0, 1.0]]
        assert np.array_equal(corners(centers(rows)), rows)
        assert centers(rows[None]).shape == (1, 2, 4)

    def test_fields_coerced_to_plain_floats(self):
        row = (np.float64(1.5), np.int64(2), np.float32(10.0), 20)
        seq = Sequence("s", FrameClock(30), (row, None, row))
        assert seq.b0 == (1.5, 2.0, 10.0, 20.0) and type(seq.b0) is tuple
        assert all(type(v) is float for gt in (seq.b0, seq.ground_truth[2]) for v in gt)

    def test_mask_and_messages_match_the_oracle(self):
        rng = np.random.default_rng(11)
        special = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 5.0])
        rows = rng.uniform(-20, 20, (400, 4))
        rows[:, 2:] = np.abs(rows[:, 2:])
        hit = rng.random((400, 4)) < 0.15
        rows[hit] = rng.choice(special, size=int(hit.sum()))
        mask = valid_boxes(rows)
        assert 50 < mask.sum() < 350
        for row, ok in zip(rows.tolist(), mask.tolist()):
            try:
                BoundingBox(*row)
            except ValidationError as exc:
                assert not ok, row
                with pytest.raises(ValidationError) as got:
                    check_rows([(0, 0, 1, 1), row])
                assert str(got.value) == str(exc)
            else:
                assert ok, row
                check_rows([row])


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

    def test_column_and_mask(self):
        b = BoundingBox(1.5, 2, 5, 6)
        seq = Sequence("s", FrameClock(30), (b, None, (3, 4, 7, 8)))
        assert seq.boxes.shape == (3, 4) and seq.boxes.dtype == np.float64
        assert seq.annotated.tolist() == [True, False, True]
        assert np.isnan(seq.boxes[1]).all()
        assert seq.boxes[2].tolist() == [3.0, 4.0, 7.0, 8.0]
        with pytest.raises(ValueError):
            seq.boxes[0, 0] = 9.0
        again = Sequence("s", FrameClock(30), seq.boxes)
        assert again.boxes.tobytes() == seq.boxes.tobytes() and again.b0 == b

    @pytest.mark.parametrize("row, message", [
        ((math.nan, 0, 1, 1), "box fields must be finite, got BoundingBox(x=nan, y=0.0, w=1.0, h=1.0)"),
        ((0, math.inf, 1, 1), "box fields must be finite, got BoundingBox(x=0.0, y=inf, w=1.0, h=1.0)"),
        ((0, 0, 0, 1), "box sizes must be positive, got w=0.0, h=1.0"),
    ])
    def test_column_rows_are_checked(self, row, message):
        column = np.array([(0, 0, 1, 1), row, (0, 0, 1, 1)], dtype=float)
        with pytest.raises(ValidationError) as exc:
            Sequence("s", FrameClock(30), column)
        assert str(exc.value) == message

    def test_column_shape_is_checked(self):
        with pytest.raises(ValidationError):
            Sequence("s", FrameClock(30), np.zeros((3, 5)))

    def test_ground_truth_view_matches_the_column(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.5,1,10,12\nNaN,NaN,NaN,NaN\n\n2.25,3,10.5,12\n")
        seq = load_sequence(path)
        view = seq.ground_truth
        assert seq.ground_truth is view
        assert [gt is None for gt in view] == (~seq.annotated).tolist()
        for f in np.flatnonzero(seq.annotated).tolist():
            assert tuple(view[f]) == tuple(seq.boxes[f].tolist())
        assert view[0] == seq.b0


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

    @pytest.mark.parametrize("line, message", [
        ("1,2,-3,4", "box sizes must be positive, got w=-3.0, h=4.0"),
        ("1,2,inf,4", "box fields must be finite"),
    ])
    def test_bad_box_values_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"0,0,10,10\n{line}\n")
        with pytest.raises(ValidationError) as got:
            load_sequence(path)
        assert str(got.value).startswith(f"{path}:2: {message}")


NAN, INF = math.nan, math.inf
LOG_HEADER = "kind,target_frame,available_at,x,y,w,h\r\n"
TRACE_HEADER = "frame,t_start,t_finish,x,y,w,h\r\n"


def _read_bad_box(entry, row, path):
    """Give `row` as the second box to one entry point, through `path`
    for the file readers."""
    good = (1.0, 2.0, 3.0, 4.0)
    line = ",".join(map(repr, row))
    if entry == "Sequence":
        Sequence("s", FrameClock(30), [good, row, good])
    elif entry == "RunLog":
        RunLog("s", [0, 1], [0.0, 0.1], [0.1, 0.2], [0, 1], [0.1, 0.2], [RAW, RAW],
               np.array([good, row]))
    elif entry == "load_sequence, one cast":
        path.write_text(f"1,2,3,4\n{line}\n1,2,3,4\n")
        load_sequence(path)
    elif entry == "load_sequence, per line":
        # the 3-field line sends the whole file to the per-line parser
        path.write_text(f"1,2,3,4\n{line}\n1,2,3\n")
        load_sequence(path)
    elif entry == "load_run_log":
        path.write_text(f"{LOG_HEADER}raw,0,0.1,1,2,3,4\r\nraw,1,0.2,{line}\r\n")
        load_run_log(path)
    else:
        path.write_text(f"{TRACE_HEADER}0,0.0,0.1,1,2,3,4\r\n1,0.1,0.2,{line}\r\n")
        load_trace(path)


@pytest.mark.parametrize("row", [(NAN, 2.0, 3.0, 4.0), (1.0, INF, 3.0, 4.0), (1.0, 2.0, 0.0, 4.0),
                                 (1.0, 2.0, 3.0, -4.0), (1.0, NAN, NAN, 4.0)],
                         ids=["nan_x", "inf_y", "zero_w", "negative_h", "partial_nan"])
@pytest.mark.parametrize("entry", ["Sequence", "RunLog", "load_sequence, one cast",
                                   "load_sequence, per line", "load_run_log", "load_trace"])
def test_one_message_for_a_bad_box_from_every_entry_point(entry, row, tmp_path):
    """Every reader of boxes words a bad one as the oracle BoundingBox
    does, behind its own prefix. The ground-truth reader names the line,
    and names a partial NaN line before checking its values."""
    with pytest.raises(ValidationError) as oracle:
        BoundingBox(*row)
    message = str(oracle.value)
    path = tmp_path / "bad.txt"
    if entry.startswith("load_sequence"):
        line = ",".join(map(repr, row))
        nan = any(map(math.isnan, row))
        message = f"{path}:2: " + (f"partial NaN annotation {line!r}" if nan else message)
    elif entry.startswith("load_"):
        message = f"{path}: {message}"
    with pytest.raises(ValidationError) as got:
        _read_bad_box(entry, row, path)
    assert str(got.value) == message


def _random_token(rng: random.Random) -> str:
    pick = rng.random()
    if pick < 0.55:
        return repr(rng.uniform(-500.0, 500.0))
    if pick < 0.7:
        return f"{rng.uniform(0.0, 900.0):.{rng.randrange(0, 6)}f}"
    if pick < 0.8:
        return f"{rng.uniform(1.0, 900.0):.{rng.randrange(1, 8)}e}".replace("e", rng.choice("eE"))
    if pick < 0.9:
        return str(rng.randrange(1, 2000))
    return rng.choice(["1_000", "+7", "12.", ".5", "1e3", "2E-1", "0.0", "-0", "1e-400"])


def _random_line(rng: random.Random) -> str:
    tokens = [_random_token(rng), _random_token(rng)]
    for _ in range(2):
        tokens.append(rng.choice([repr(rng.uniform(1.0, 90.0)), f"{rng.uniform(1.0, 90.0):.3e}",
                                  "1_000", "12.", "2E-1", "7"]))
    pad = rng.choice(["", " ", "\t", "  "])
    return ",".join(pad + t + rng.choice(["", " "]) for t in tokens)


# constructs that break a file, each on its own; the 3-field line
# followed by a 5-field line has 8 fields, two rows' worth, in all
_BAD_LINES = [
    ["1e400,2,3,4"], ["1,2,0,4"], ["1,2,3,-4"], ["1,NaN,3,4"], ["nan,nan,nan,5"],
    ["1,2,3,4,"], ["1,2,3", "4,5,6,7,8"], ["1,2,3"], ["1,2,3,4,5"], ["1,2,x,4"],
    ["1,2,inf,4"], ["-infinity,2,3,4"], ["1,,3,4"], ["0x10,2,3,4"], ["1__0,2,3,4"],
]


def _random_file(rng: random.Random) -> str:
    lines = [_random_line(rng) if rng.random() < 0.95 else "NaN,NaN,NaN,NaN"]
    for _ in range(rng.randrange(0, 40)):
        pick = rng.random()
        if pick < 0.08:
            lines.append(rng.choice(["# manifest=abc", "   # a comment, with commas", "#"]))
        elif pick < 0.14:
            lines.append(rng.choice(["", "   ", "\t \t"]))
        elif pick < 0.2:
            lines.append(rng.choice(["NaN,NaN,NaN,NaN", " nan, NaN ,-nan,NAN", "nan,nan,nan,nan"]))
        else:
            lines.append(_random_line(rng))
    if rng.random() < 0.5:
        at = rng.randrange(0, len(lines) + 1)
        lines[at:at] = rng.choice(_BAD_LINES)
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


class TestLoaderMatchesLineReader:
    """The column loader against the literal per-line reader on random
    files: equal columns and masks bit for bit, or the same message."""

    def test_random_files(self, tmp_path):
        rng = random.Random(20261018)
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(400):
            path = tmp_path / f"s{i}.txt"
            path.write_text(_random_file(rng))
            try:
                column, mask = load_sequence_lines(path)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as got:
                    load_sequence(path)
                assert str(got.value) == str(exc), path.read_text()
                outcomes["rejected"] += 1
                continue
            seq = load_sequence(path)
            assert seq.boxes.tobytes() == column.tobytes(), path.read_text()
            assert np.array_equal(seq.annotated, mask)
            outcomes["loaded"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_three_then_five_fields_is_rejected(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("0,0,10,10\n1,2,3\n4,5,6,7,8\n")
        with pytest.raises(ValidationError, match=r"split.txt:2: expected 4 comma-separated"):
            load_sequence(path)


def _float_bits(text: str):
    try:
        return struct.pack("<d", float(text))
    except ValueError:
        return None


def _numpy_bits(text: str):
    try:
        return np.array([text], dtype=np.float64).tobytes()
    except ValueError:
        return None


class TestNumpyCastIsFloat:
    """load_sequence casts the fields with numpy in one call; that cast
    must give float()'s value, bits and errors on every field."""

    EDGE = ["1_000", "1__0", "_1", "1_", "infinity", "-Infinity", "+inf", "iNf", "NaN", "-nan",
            "1e400", "-1e400", "1e-400", "4.9e-324", "2.2250738585072014e-308", "0x10", "nan(1)",
            "1d5", "", " ", " 1.5\t", "\u20031.5", "\xa02", "\u0661\u0662", ".5", "5.", "-0",
            "+0.0", "1E+3", "9007199254740993", "0.1000000000000000055511151231257827"]

    def test_edge_tokens(self):
        for text in self.EDGE:
            assert _numpy_bits(text) == _float_bits(text), repr(text)

    def test_random_decimal_strings(self):
        rng = np.random.default_rng(7)
        mant = rng.integers(0, 10 ** 17, size=200_000)
        digits = rng.integers(0, 18, size=200_000)
        exps = rng.integers(-330, 310, size=200_000)
        texts = [f"{'-' if m % 3 == 0 else ''}{str(m)[:d] or '0'}.{str(m)[d:]}e{e}"
                 for m, d, e in zip(mant.tolist(), digits.tolist(), exps.tolist())]
        expected = np.array([float(t) for t in texts])
        assert np.array(texts, dtype=np.float64).tobytes() == expected.tobytes()
