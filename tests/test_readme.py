import re
import shlex
from pathlib import Path

from latetrack.cli import _TRAIN_KEYS, build_parser, main
from latetrack.config import (_PREDICTOR_KEYS, _SPEC_KEYS, _TRACKER_KEYS, Config,
                              predictor_from_config, synthetic_spec_from_config,
                              tracker_from_config)
from latetrack.predictors import DEFAULT_Q_DIAG, DEFAULT_R_DIAG, KalmanBoxPredictor
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
