"""Byte-level regression gate for `simulate`: re-simulate one short
sequence with every predictor kind of the README and compare the
written `.log.csv` and `.trace.csv` with the committed copies in
tests/data/golden, `# manifest=` lines aside.

The inputs are committed too: the sequence (frame 7 unannotated), a
noise file with fixed diagonals for kf_learned, a
constant_factor_weights checkpoint for pm and an
init_weights(k=3, n_heads=2, seed=2) checkpoint for pm_init. The
tracker adds position and scale noise under gaussian latency, so the
run skips 1-3 frames at a time and the predictor runs on a moving,
resizing box.

The constant-factor net's zero matrices make every product exact, so
only pm_init can see the order in which the network sums. It sees some
such changes, not all: a motion that moves by 1e-18 mostly rounds away
once applied to a box. Seed 2 is one whose log moves when a run's
windows go through the net as one (m, k, 8) batch instead of an
(m, 1, k, 8) stack, or when the temporal conv adds its taps in another
order. tests/test_simulate.py compares every prediction, bit for bit,
with the online predictor of the frame-by-frame loop, which runs the
same net."""

from pathlib import Path

import pytest

from latetrack.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
SEED = "11"
TRACKER = """sigma_pos = 0.5
sigma_scale = 0.03
latency.kind = gaussian
latency.mean = 0.05
latency.stddev = 0.02
"""
PREDICTOR_LATENCY = "latency.kind = gaussian\nlatency.mean = 0.006\nlatency.stddev = 0.002\n"
PREDICTORS = {
    "none": "kind = none\n",
    "zero": "kind = zero\nhorizon = 2\n",
    "kf": "kind = kf\nhorizon = 3\n",
    "kf_learned": f"kind = kf_learned\nhorizon = 2\nnoise = {GOLDEN / 'noise.json'}\n",
    "pm": f"kind = pm\nweights = {GOLDEN / 'pm.json'}\n",
    "pm_init": f"kind = pm\nweights = {GOLDEN / 'pm_init.json'}\n",
}


def simulate_kind(kind: str, work: Path) -> Path:
    """Run `latetrack simulate` for one predictor kind; returns --out."""
    tracker = work / "tracker.cfg"
    tracker.write_text(TRACKER)
    predictor = work / f"{kind}.cfg"
    predictor.write_text(PREDICTORS[kind] + PREDICTOR_LATENCY)
    out = work / kind
    code = main(["simulate", "--sequences", str(GOLDEN / "golden.txt"), "--tracker",
                 str(tracker), "--predictor", str(predictor), "--out", str(out),
                 "--seed", SEED])
    assert code == 0
    return out


def body(path: Path) -> list:
    return [ln for ln in path.read_bytes().splitlines(keepends=True)
            if not ln.startswith(b"# manifest=")]


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
def test_simulate_writes_the_committed_bytes(kind, tmp_path):
    out = simulate_kind(kind, tmp_path)
    for ext in ("log", "trace"):
        name = f"golden.{ext}.csv"
        assert body(out / name) == body(GOLDEN / kind / name), f"{kind}: {name} differs"
