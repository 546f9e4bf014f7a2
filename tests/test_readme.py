import ast
import inspect
import json
import re
from pathlib import Path

import latetrack
from latetrack.cli import _TRAIN_KEYS, build_parser, main
from latetrack.config import (_PREDICTOR_KEYS, _SPEC_KEYS, _TRACKER_KEYS, Config,
                              predictor_from_config, synthetic_spec_from_config,
                              tracker_from_config)
from latetrack.predictors import DEFAULT_Q_DIAG, DEFAULT_R_DIAG, KalmanBoxPredictor
from latetrack.training import gen_synthetic

from _readme import (COMMANDS, EXAMPLES, PREDICTOR, README, SPEC, TEXT, TRACKER, run_commands,
                     run_example)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    assert len(EXAMPLES) == 1
    monkeypatch.chdir(tmp_path)
    Path("corpus.cfg").write_text("kind = constant_velocity\ncount = 1\nlength = 40\n")
    assert main(["gen", "corpus.cfg", "--out", "data/seqs", "--seed", "1"]) == 0
    capsys.readouterr()
    run_example()
    assert 0.0 <= float(capsys.readouterr().out.split()[0]) <= 1.0


def test_config_examples_load_as_written():
    """The spec, tracker and predictor blocks, copied verbatim, load
    through their readers."""
    spec, tracker, predictor = (Config.from_text(block, str(README))
                                for block in (SPEC, TRACKER, PREDICTOR))
    synthetic = synthetic_spec_from_config(spec)
    assert (synthetic.n_sequences, synthetic.length, synthetic.noise_sigma) == (20, 90, 0.45)
    seq = gen_synthetic(synthetic)[0]
    [adapter] = tracker_from_config(tracker, [seq])
    assert (adapter.sigma_pos, adapter.latency.mean) == (0.45, 0.05)
    adapter = predictor_from_config(predictor)
    assert (type(adapter.model), adapter.horizon_n, adapter.latency.mean) == (
        KalmanBoxPredictor, 2, 0.005)
    assert (adapter.model.q_diag, adapter.model.r_diag) == (DEFAULT_Q_DIAG, DEFAULT_R_DIAG)


def test_shell_commands_parse():
    """Every `latetrack` command in the README's shell blocks parses, so
    the README advertises no flag the parser rejects."""
    assert len(COMMANDS) == 7
    for argv in COMMANDS:
        build_parser().parse_args(argv[1:])


def test_every_config_key_is_named():
    """Each key a config reader accepts appears in the README, in
    backticks or on an ini line; a dotted key may be named by its last
    part, as the `latency.` group is."""
    named = set(re.findall(r"`([\w.]+)", TEXT)) | set(re.findall(r"^#? ?([\w.]+) = ", TEXT, re.M))
    per_kind = (("behavior",), *_TRACKER_KEYS.values(), *_PREDICTOR_KEYS.values())
    for key in (*_SPEC_KEYS, *(key for keys in per_kind for key in keys), *_TRAIN_KEYS):
        assert key in named or key.rpartition(".")[2] in named, key


def test_every_output_file_column_and_key_is_named(tmp_path, monkeypatch, capsys):
    """The README's shell commands, run in order on a tiny corpus with its
    tracker and predictor blocks, write only files the README names (a
    sequence's name as `<name>`), and the README names every CSV header
    column and top-level JSON key in them, and in the noise file that
    `compare` reads. The library example imports only from `latetrack`,
    and uses every name the root exports."""
    named = set(re.findall(r"`([^`\n]+)`", TEXT))
    monkeypatch.chdir(tmp_path)
    run_commands()
    capsys.readouterr()
    outputs = [p for p in tmp_path.rglob("*") if p.is_file() and p.parent != tmp_path]
    stems = {p.stem for p in Path("data/seqs").glob("*.txt")}
    for path in [*outputs, tmp_path / "noise.json"]:
        name = path.name
        for stem in stems:
            name = name.replace(stem, "<name>")
        assert name in named, path
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        fields = (body[0].split(",") if path.suffix == ".csv"
                  else json.loads("\n".join(body)) if path.suffix == ".json" else ())
        for field in fields:
            assert field in named, (path.name, field)

    [example] = EXAMPLES
    tree = ast.parse(example)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {(type(node), getattr(node, "module", None)) for node in imports} == {
        (ast.ImportFrom, "latetrack")}
    exported = {name for name, value in vars(latetrack).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert {alias.name for node in imports for alias in node.names} == exported
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert exported <= used
