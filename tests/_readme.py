"""The README's runnable parts, parsed once for every test that reads
them: its ini blocks (spec, tracker, predictor), its `latetrack` shell
commands and its one library example, plus runners for the commands
and the example."""

import json
import re
import shlex
from pathlib import Path

from latetrack.cli import main
from latetrack.predictors import DEFAULT_Q_DIAG, DEFAULT_R_DIAG

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
SPEC, TRACKER, PREDICTOR = re.findall(r"```ini\n(.*?)```", TEXT, re.S)
COMMANDS = [shlex.split(ln, comments=True)
            for ln in "\n".join(re.findall(r"```sh\n(.*?)```", TEXT, re.S))
            .replace("\\\n", " ").splitlines() if ln.startswith("latetrack ")]
EXAMPLES = re.findall(r"```python\n(.*?)```", TEXT, re.S)


def run_commands():
    """Run the shell commands in order, in the current directory, on a
    corpus of two 30-frame tracks, with the tracker and predictor blocks
    as `tracker.cfg` and `kf.cfg`, and the default Kalman noise as
    `noise.json` (plain JSON text). Each command must exit 0."""
    Path("corpus.cfg").write_text("kind = constant_velocity\ncount = 2\nlength = 30\n")
    Path("tracker.cfg").write_text(TRACKER)
    Path("kf.cfg").write_text(PREDICTOR)
    Path("noise.json").write_text(json.dumps({"q": DEFAULT_Q_DIAG, "r": DEFAULT_R_DIAG}))
    for argv in COMMANDS:
        assert main(argv[1:]) == 0, argv


def run_example():
    """Run the library example in the current directory; it reads a
    constant-velocity track that `gen` wrote to data/seqs."""
    [example] = EXAMPLES
    exec(compile(example, str(README), "exec"), {})
