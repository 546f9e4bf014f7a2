import pathlib
import time

import pytest

from latetrack.boxes import load_sequence
from latetrack.seeding import rng_for
from latetrack.simulate import load_run_log
from latetrack.training import (CONSTANT_ACCELERATION, SINUSOIDAL, OptimizerConfig,
                                SyntheticSpec, Windows, gen_synthetic, sample_windows, train_pm)

DATA = pathlib.Path(__file__).parent / "data"

# Observation noise shared by the training corpus and held-out tracks;
# the irreducible motion-target noise floor it induces is what the
# trained-network comparisons below are calibrated against.
TRAIN_NOISE = 0.45
PM_K = 3
PM_HORIZON = 2
PM_STRIDES = (1, 2)
# Acceleration band for the corpus: the low end keeps near-linear tracks
# in distribution so the net stays competitive with the filter there.
CORPUS_ACCEL = (0.001, 0.04)


def window_groups(sequences, seed):
    """Per-trajectory Windows with seeded per-sequence strides."""
    return [
        sample_windows(list(s.ground_truth), PM_K, PM_HORIZON, PM_STRIDES,
                       rng_for(seed, "windows", s.name))
        for s in sequences
    ]


def collect_windows(sequences, seed):
    """All sequences' windows joined, for held-out evaluation."""
    return Windows.concat(window_groups(sequences, seed))


def corpus_sequences():
    ca = gen_synthetic(SyntheticSpec(CONSTANT_ACCELERATION, 70, 110, seed=101,
                                     noise_sigma=TRAIN_NOISE, accel_range=CORPUS_ACCEL))
    sin = gen_synthetic(SyntheticSpec(SINUSOIDAL, 30, 110, seed=202,
                                      noise_sigma=TRAIN_NOISE))
    return ca + sin


@pytest.fixture(scope="session")
def toy_pair():
    """The committed 5-frame hand-computed metric fixture."""
    seq = load_sequence(DATA / "toy_seq.txt", framerate=30.0)
    log = load_run_log(DATA / "toy_log.csv", seq.name)
    return seq, log


@pytest.fixture(scope="session")
def trained_pm():
    """Motion network trained on the mixed corpus with the full default
    schedule; shared by the training-efficacy and end-to-end comparisons
    because the run costs real time. Wall time is kept so the efficacy
    check can count training against its own budget."""
    t0 = time.monotonic()
    weights, history = train_pm(window_groups(corpus_sequences(), seed=7), OptimizerConfig(seed=7))
    return {"weights": weights, "history": history,
            "seconds": time.monotonic() - t0}
