"""Every file a verb reads fails loudly on a field of the wrong type.

One valid file per input format, with one field changed: a JSON field
becomes a string, a bool, a list, an object, NaN or goes missing; a
text field becomes `true`, `[1]`, `{}`, empty, `nan` or `1e400`. The
verb that reads the file must exit 2 and name the file on stderr. It
must never exit 1, raise, or accept the file. A key whose value is a
path names a missing file instead, which is an I/O error (exit 3),
unless the value is empty.
"""

import json
import math
from pathlib import Path

import pytest

from latetrack.boxes import save_sequence
from latetrack.cli import main
from latetrack.network import init_weights, save_weights
from latetrack.predictors import DEFAULT_Q_DIAG, DEFAULT_R_DIAG, save_kf_noise
from latetrack.training import SyntheticSpec, gen_synthetic

JSON_VALUES = ("1", True, [1], {"a": 1}, math.nan, None)  # None: the key goes missing
TEXT_VALUES = ("true", "[1]", "{}", "", "nan", "1e400")
PATH_KEYS = ("trace", "latency.file", "noise", "weights")

CONFIGS = {
    "spec": ("kind = constant_velocity\ncount = 1\nlength = 12\nseed = 3\n"
             "center_range = 100, 200\nsize_range = 20, 30\nspeed_range = 1, 2\n"
             "accel_range = 0.01, 0.02\namplitude_range = 5, 10\nperiod_range = 10, 20\n"
             "walk_step = 1.5\nnoise_sigma = 0.2\n"),
    "oracle_noisy": ("behavior = oracle_noisy\nsigma_pos = 0.5\nsigma_scale = 0.01\n"
                     "latency.kind = gaussian\nlatency.mean = 0.05\nlatency.stddev = 0.01\n"
                     "latency.floor = 0.002\n"),
    "replay_log": "behavior = replay_log\ntrace = {v}/run/a.trace.csv\n"
                  "latency.kind = constant\nlatency.mean = 0.04\n",
    "replay_latency": "latency.kind = replay\nlatency.file = {v}/latency.txt\n",
    "none": "kind = none\n",
    "zero": "kind = zero\nhorizon = 2\nlatency.kind = constant\nlatency.mean = 0.004\n",
    "kf": "kind = kf\nhorizon = 2\nlatency.kind = constant\nlatency.mean = 0.004\n",
    "kf_learned": "kind = kf_learned\nnoise = {v}/noise.json\nhorizon = 2\n"
                  "latency.kind = constant\nlatency.mean = 0.004\n",
    "pm": "kind = pm\nweights = {v}/pm.json\nhorizon = 2\n"
          "latency.kind = constant\nlatency.mean = 0.004\n",
    "train": ("seed = 1\nepochs = 2\nmilestones = 1\nlr = 0.01\nweight_decay = 0.0\n"
              "batch_size = 8\nk = 2\nhorizon = 2\nstride_set = 1, 2\nc_enc = 2\nc_dec = 2\n"),
}


def _seq_args(v):
    return ["--sequences", f"{v}/seqs/a.txt"]


def _sim_args(v, tracker=None):
    return ["simulate", *_seq_args(v), "--tracker", tracker or f"{v}/tracker.cfg"]


def _keys(config):
    return [line.partition(" = ")[0] for line in CONFIGS[config].splitlines()]


def _compare(v, token, *flags):
    return ["compare", *_seq_args(v), "--tracker", f"{v}/tracker.cfg", "--predictors", token,
            *flags]


def _reads(f, head):
    """A tracker config beside `f` whose last line is `<head> = f`."""
    cfg = Path(f).with_name("reads.cfg")
    cfg.write_text(f"{head} = {f}\n")
    return str(cfg)


# format -> (file name, a verb's arguments that read the file `f`, fields to change:
# a JSON key path, a (line, column) cell or a config key)
FORMATS = {
    "sequence": ("a.txt", lambda f, v: ["simulate", "--sequences", f,
                                        "--tracker", f"{v}/tracker.cfg"],
                 [(1, j) for j in range(4)]),
    "run log": ("a.log.csv", lambda f, v: ["evaluate", *_seq_args(v), "--logs", f],
                [(3, j) for j in range(7)]),
    "trace": ("a.trace.csv",
              lambda f, v: _sim_args(v, _reads(f, "behavior = replay_log\ntrace")),
              [(3, j) for j in range(7)]),
    "latency replay file": ("latency.txt",
                            lambda f, v: _sim_args(v, _reads(f, "latency.kind = replay\n"
                                                                "latency.file")),
                            [(2, 0)]),
    "checkpoint": ("pm.json", lambda f, v: _compare(v, f"pm:{f}"),
                   [("format_version",), ("k",), ("n_heads",), ("c_enc",), ("c_dec",),
                    ("layers",), ("layers", "enc_fc.weight", "shape"),
                    ("layers", "out_fc.bias", "data")]),
    "noise file": ("noise.json", lambda f, v: _compare(v, f"kf_learned:{f}", "--horizon", "2"),
                   [("q",), ("r",)]),
    "spec": ("spec.cfg", lambda f, v: ["gen", f], _keys("spec")),
    **{f"{kind} tracker": (f"{kind}.cfg", lambda f, v: _sim_args(v, f), _keys(kind))
       for kind in ("oracle_noisy", "replay_log", "replay_latency")},
    **{f"{kind} predictor": (f"{kind}.cfg", lambda f, v: [*_sim_args(v), "--predictor", f],
                             _keys(kind))
       for kind in ("none", "zero", "kf", "kf_learned", "pm")},
    "train": ("train.cfg", lambda f, v: ["train", "--corpus", f"{v}/seqs", "--config", f],
              _keys("train")),
}


def _cases():
    for fmt, (name, _, fields) in FORMATS.items():
        values = JSON_VALUES if name.endswith(".json") else TEXT_VALUES
        yield from ((fmt, field, value) for field in fields for value in values)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file of every format, in one directory."""
    v = tmp_path_factory.mktemp("valid")
    (v / "seqs").mkdir()
    [seq] = gen_synthetic(SyntheticSpec("constant_velocity", 1, 12, seed=3))
    save_sequence(seq, v / "seqs" / "a.txt")
    (v / "tracker.cfg").write_text("latency.kind = constant\nlatency.mean = 0.05\n")
    (v / "latency.txt").write_text("0.05\n" * 20)
    save_weights(init_weights(k=2, n_heads=2, c_enc=2, c_dec=2), v / "pm.json")
    save_kf_noise(DEFAULT_Q_DIAG, DEFAULT_R_DIAG, v / "noise.json")
    assert main([*_sim_args(v), "--out", str(v / "run")]) == 0
    for name, text in CONFIGS.items():
        (v / f"{name}.cfg").write_text(text.format(v=v))
    return v


def _source(valid, fmt) -> Path:
    name = FORMATS[fmt][0]
    return {"a.txt": valid / "seqs" / name, "a.log.csv": valid / "run" / name,
            "a.trace.csv": valid / "run" / name}.get(name, valid / name)


def _changed(text: str, name: str, field, value) -> str:
    if name.endswith(".json"):
        doc = json.loads(text)
        *parents, key = field
        owner = doc
        for parent in parents:
            owner = owner[parent]
        if value is None:
            del owner[key]
        else:
            owner[key] = value
        return json.dumps(doc)
    lines = text.split("\n")
    if name.endswith(".cfg"):
        i = next(i for i, ln in enumerate(lines) if ln.partition(" = ")[0] == field)
        lines[i] = f"{field} = {value}"
    else:
        row, j = field
        cells = lines[row].split(",")
        cells[j] = value
        lines[row] = ",".join(cells)
    return "\n".join(lines)


def _id(fmt, field, value) -> str:
    return f"{fmt}-{field if isinstance(field, str) else '/'.join(map(str, field))}-{value!r}"


@pytest.mark.parametrize("fmt, field, value", [pytest.param(*case, id=_id(*case))
                                               for case in _cases()])
def test_a_field_of_the_wrong_type_exits_two_naming_the_file(valid, tmp_path, monkeypatch,
                                                             capsys, fmt, field, value):
    name, argv, _ = FORMATS[fmt]
    changed = tmp_path / name
    changed.write_text(_changed(_source(valid, fmt).read_text(), name, field, value))
    monkeypatch.chdir(tmp_path)  # a relative path value names no file here
    capsys.readouterr()
    code = main([*argv(str(changed), valid), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if field in PATH_KEYS and value:
        assert (code, err.startswith("i/o error")) == (3, True), err
    else:
        assert (code, str(changed) in err) == (2, True), err
    if field in PATH_KEYS and not value:
        assert f"key {field!r} needs a file name, got ''" in err
    assert not (tmp_path / "out").exists()
