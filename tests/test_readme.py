import re
from pathlib import Path

from latetrack.cli import main

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
