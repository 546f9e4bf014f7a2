"""`src` holds only what runs: every function in src/latetrack is reached
by the README's shell commands and library example, or by the failure
paths below, or stands on ALLOWED with the ROADMAP item that removes it.

A profile hook records each code object that starts running. Functions
are keyed by file and first line (a decorated one starts at its first
decorator), so two nested functions of one name, such as the `predict`
inside kf_motion_batch and inside pm_motion_batch, stay apart."""

import ast
import sys
from pathlib import Path

import latetrack
from latetrack.cli import main

from _readme import run_commands, run_example

SRC = Path(latetrack.__file__).parent  # as the code objects name their files

# module:qualified name -> the ROADMAP item that gives it a caller or
# moves it out of src. An entry leaves when that item lands.
ALLOWED = {
    # item 1: only bench/ calls these
    "boxes:iou": 1,
    "boxes:center_error": 1,
    "boxes:Sequence.ground_truth": 1,
    "motion:encode_motion": 1,
    "predictors:make_kf_state": 1,
    "simulate:RunLog.processed": 1,
    "training:Windows.__iter__": 1,
    # item 5: the noise fit has no verb yet
    "predictors:kf_fit_noise": 5,
    "predictors:kf_fit_noise.<locals>.windows": 5,
    "predictors:kf_fit_noise.<locals>.epoch_step": 5,
    "predictors:kf_motion_batch": 5,
    "predictors:kf_motion_batch.<locals>.predict": 5,
    "predictors:_kf_windows": 5,
    "predictors:_kf_tangent": 5,
    "predictors:_kf_noise_gradient": 5,
    "predictors:save_kf_noise": 5,
    "training:Windows.__getitem__": 5,
    # item 4: a loaded log equal to the simulated one
    "simulate:RunLog.__eq__": 4,
}


def defs_in_src() -> dict:
    """(file, first line) -> module:qualified name of every def in src."""
    found = {}

    def visit(node, path, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = f"{module}:{scope}{child.name}"
                visit(child, path, module, f"{scope}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{scope}{child.name}.")
            else:
                visit(child, path, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem, "")
    return found


def run_everything(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_commands()
    run_example()
    Path("replay.cfg").write_text("behavior = replay_log\ntrace = runs/base\n")
    assert main(["simulate", "--sequences", "data/seqs", "--tracker", "replay.cfg",
                 "--out", "runs/replay"]) == 0
    Path("gaussian.cfg").write_text(
        "latency.kind = gaussian\nlatency.mean = 0.05\nlatency.stddev = 0.01\n")
    assert main(["horizon", "--sequences", "data/seqs", "--tracker", "gaussian.cfg",
                 "--out", "hz_gaussian"]) == 0
    Path("short.txt").write_text("0.05\n0.05\n")
    Path("short.cfg").write_text("latency.kind = replay\nlatency.file = short.txt\n")
    assert main(["simulate", "--sequences", "data/seqs", "--tracker", "short.cfg",
                 "--out", "runs/short"]) == 2
    Path("bad").mkdir()
    Path("bad/three.txt").write_text("1,2,3,4\n1,2,3\n")
    assert main(["simulate", "--sequences", "bad", "--tracker", "tracker.cfg",
                 "--out", "runs/bad"]) == 2


def test_every_function_in_src_is_reached_or_allowed(tmp_path, monkeypatch, capsys):
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run_everything(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    defs = defs_in_src()
    reached_names = {name for where, name in defs.items() if where in reached}
    unreached = sorted(set(defs.values()) - reached_names - set(ALLOWED))
    assert not unreached, f"functions in src that nothing runs: {unreached}"
    stale = sorted(name for name in ALLOWED
                   if name in reached_names or name not in defs.values())
    assert not stale, f"stale allowlist entries (reached, or gone from src): {stale}"
