"""Replay tracker end to end: `simulate` with `behavior = replay_log`
re-emits a recorded trace, and a bad trace is a validation error."""

import re
from pathlib import Path

import pytest

from latetrack.cli import main
from latetrack.errors import ValidationError
from latetrack.simulate import load_trace
from test_golden import GOLDEN, body


def test_replaying_the_golden_trace_writes_the_committed_bytes(tmp_path):
    """With no latency group the recorded durations are replayed, so the
    raw run comes back byte for byte."""
    tracker = tmp_path / "replay.cfg"
    tracker.write_text(f"behavior = replay_log\ntrace = {GOLDEN / 'none' / 'golden.trace.csv'}\n")
    predictor = tmp_path / "none.cfg"
    predictor.write_text("kind = none\n")
    out = tmp_path / "out"
    assert main(["simulate", "--sequences", str(GOLDEN / "golden.txt"), "--tracker",
                 str(tracker), "--predictor", str(predictor), "--out", str(out),
                 "--seed", "11"]) == 0
    for ext in ("log", "trace"):
        name = f"golden.{ext}.csv"
        assert body(out / name) == body(GOLDEN / "none" / name), f"{name} differs"


def bad_trace(tmp_path, case: str) -> Path:
    """The golden none trace with one defect; the file is `<case>.trace.csv`."""
    lines = (GOLDEN / "none" / "golden.trace.csv").read_text().splitlines(keepends=True)
    header, rows = lines[1], lines[2:]
    if case == "swapped":
        rows[2], rows[3] = rows[3], rows[2]
    elif case == "repeated":
        rows.insert(3, rows[3])
    elif case == "zero_size":
        fields = rows[3].split(",")
        fields[5] = "0.0"
        rows[3] = ",".join(fields)
    elif case == "header":
        header = header.replace("frame,", "frames,")
    path = tmp_path / f"{case}.trace.csv"
    path.write_text(header + "".join(rows))
    return path


CASES = ["swapped", "repeated", "zero_size", "header"]


@pytest.mark.parametrize("case", CASES)
def test_bad_trace_is_rejected_naming_the_file(tmp_path, case):
    path = bad_trace(tmp_path, case)
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        load_trace(path)


def replay_cfg(tmp_path, trace: Path) -> str:
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(f"behavior = replay_log\ntrace = {trace}\n")
    return str(cfg)


@pytest.mark.parametrize("case", CASES)
def test_simulate_on_a_bad_trace_exits_two_and_writes_nothing(tmp_path, capsys, case):
    path = bad_trace(tmp_path, case)
    out = tmp_path / "out"
    assert main(["simulate", "--sequences", str(GOLDEN / "golden.txt"), "--tracker",
                 replay_cfg(tmp_path, path), "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_compare_on_a_bad_trace_exits_two_and_writes_nothing(tmp_path):
    # an explicit horizon skips the pre-run, so the trace is first read for the runs
    out = tmp_path / "out"
    assert main(["compare", "--sequences", str(GOLDEN / "golden.txt"), "--tracker",
                 replay_cfg(tmp_path, bad_trace(tmp_path, "repeated")), "--predictors",
                 "none,zero", "--horizon", "2", "--out", str(out)]) == 2
    assert not out.exists()


def test_horizon_on_a_bad_trace_exits_two_and_writes_nothing(tmp_path):
    out = tmp_path / "out"
    assert main(["horizon", "--sequences", str(GOLDEN / "golden.txt"), "--tracker",
                 replay_cfg(tmp_path, bad_trace(tmp_path, "repeated")), "--out", str(out)]) == 2
    assert not out.exists()
