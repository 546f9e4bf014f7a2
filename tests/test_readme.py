import ast
import inspect
import json
import re
import shlex
from pathlib import Path

import latetrack
from latetrack.cli import _TRAIN_KEYS, build_parser, main
from latetrack.config import (_PREDICTOR_KEYS, _SPEC_KEYS, _TRACKER_KEYS, Config,
                              predictor_from_config, synthetic_spec_from_config,
                              tracker_from_config)
from latetrack.predictors import DEFAULT_Q_DIAG, DEFAULT_R_DIAG, KalmanBoxPredictor, save_kf_noise
from latetrack.training import gen_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    Path("corpus.cfg").write_text("kind = constant_velocity\ncount = 1\nlength = 40\n")
    assert main(["gen", "corpus.cfg", "--out", "data/seqs", "--seed", "1"]) == 0
    capsys.readouterr()
    exec(compile(blocks[0], str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out.split()[0]) <= 1.0


def test_config_examples_load_as_written():
    """The spec, tracker and predictor blocks, copied verbatim, load
    through their readers."""
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    spec, tracker, predictor = (Config.from_text(b, str(README)) for b in blocks)
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
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln, comments=True) for ln in lines if ln.startswith("latetrack ")]
    assert len(commands) == 7
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_every_config_key_is_named():
    """Each key a config reader accepts appears in the README, in
    backticks or on an ini line; a dotted key may be named by its last
    part, as the `latency.` group is."""
    text = README.read_text()
    named = set(re.findall(r"`([\w.]+)", text)) | set(re.findall(r"^#? ?([\w.]+) = ", text, re.M))
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
    text = README.read_text()
    named = set(re.findall(r"`([^`\n]+)`", text))
    _, tracker, predictor = re.findall(r"```ini\n(.*?)```", text, re.S)
    monkeypatch.chdir(tmp_path)
    Path("corpus.cfg").write_text("kind = constant_velocity\ncount = 2\nlength = 30\n")
    Path("tracker.cfg").write_text(tracker)
    Path("kf.cfg").write_text(predictor)
    save_kf_noise(DEFAULT_Q_DIAG, DEFAULT_R_DIAG, "noise.json")
    lines = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    for line in lines.splitlines():
        if line.startswith("latetrack "):
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
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

    [example] = re.findall(r"```python\n(.*?)```", text, re.S)
    tree = ast.parse(example)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {(type(node), getattr(node, "module", None)) for node in imports} == {
        (ast.ImportFrom, "latetrack")}
    exported = {name for name, value in vars(latetrack).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert {alias.name for node in imports for alias in node.names} == exported
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert exported <= used
