"""The benchmark's workloads.

Each workload is a closed loop with one caller: one process runs its
steps one after another and starts the next only when the previous one
returned. Inputs are made from the workload seed alone; the program
sees only the generated files.

- ``score``: deadline scoring (``evaluate``, and the sweeps inside
  ``compare``) dominates, plus run-log writing and reading.
- ``online``: the per-frame online predictors inside ``simulate``
  dominate (Kalman update at gaps 1-3, the motion net at batch size 1);
  nothing is swept or trained in the timed part.
- ``fit``: offline fitting: batched network training with AdamW and
  the Kalman noise fit over many windows; nothing is simulated.

CLI verbs run in-process through ``latetrack.cli.main``; the noise fit
has no verb, so it is called as a library function.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Input sizes per scale. ``full`` is what the benchmark measures;
# ``tiny`` only exercises every path, for the smoke test.
SIZES = {
    "full": {
        "score": {"count": 2, "length": 100},
        "online": {"count": 5, "length": 300},
        "fit": {"count": 12, "length": 150, "epochs": 2, "milestone": 1,
                "fit_steps": 1, "max_windows": 200},
        "fixture": {"count": 6, "length": 120, "epochs": 2, "fit_steps": 1,
                    "max_windows": 100},
    },
    "tiny": {
        "score": {"count": 1, "length": 60},
        "online": {"count": 1, "length": 60},
        "fit": {"count": 2, "length": 60, "epochs": 2, "milestone": 1,
                "fit_steps": 1, "max_windows": 20},
        "fixture": {"count": 2, "length": 60, "epochs": 1, "fit_steps": 1,
                    "max_windows": 20},
    },
}

SCORE_KINDS = ("constant_acceleration", "sinusoidal", "random_walk")
FIT_KINDS = ("constant_acceleration", "sinusoidal")
# Observation noise on generated centers, in pixels.
TRACK_NOISE = 0.45
# A noisy tracker taking 50 +- 10 ms per frame at 30 fps: slower than the
# 33 ms frame period, so it skips frames and its outputs arrive late.
TRACKER_CFG = """behavior = oracle_noisy
sigma_pos = 1.0
sigma_scale = 0.02
latency.kind = gaussian
latency.mean = 0.05
latency.stddev = 0.01
"""
# Seed offset for the held-out tracks of the fit workload.
HOLDOUT_SEED_OFFSET = 1_000_003


@dataclass
class Step:
    """One timed operation: a CLI verb, or a library call for work that
    has no verb."""

    metric: str                    # end-to-end time metric it adds to
    verb: str                      # span name of the call in the traced run
    run: Callable[[], int]         # returns an exit code
    outputs: tuple                 # files that must exist afterwards
    manifest: Path | None = None   # the verb's manifest.json


@dataclass
class Workload:
    steps: list
    # Untimed, after the loop: quality metrics read from the outputs.
    quality: Callable[[], dict]
    # Untimed, after the loop: extra (check name, passed, detail) rows.
    checks: Callable[[], list] = field(default=lambda: [])


def cli_main(argv, cwd: Path | None = None) -> int:
    from latetrack import cli

    here = os.getcwd()
    with contextlib.redirect_stdout(io.StringIO()):
        if cwd is not None:
            os.chdir(cwd)
        try:
            return cli.main([str(a) for a in argv])
        finally:
            os.chdir(here)


def cli_step(metric: str, verb: str, argv, out: Path, outputs, cwd: Path | None = None) -> Step:
    return Step(metric, f"cli.{verb}", lambda: cli_main([verb, *argv], cwd),
                tuple(outputs) + (out / "manifest.json",), out / "manifest.json")


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _spec(path: Path, kind: str, count: int, length: int) -> Path:
    return _write(path, f"kind = {kind}\ncount = {count}\nlength = {length}\n"
                        f"noise_sigma = {TRACK_NOISE}\n")


def _names(kinds, count):
    return [f"{kind}-{i:03d}" for kind in kinds for i in range(count)]


def _gen_corpus(root: Path, out: Path, kinds, count, length, seed) -> list:
    for kind in kinds:
        if cli_main(["gen", _spec(root / f"{kind}.spec", kind, count, length),
                     "--out", out, "--seed", seed]) != 0:
            raise RuntimeError(f"set-up: gen {kind} failed")
    return _names(kinds, count)


def _fit_noise(tracks, seed: int, size: dict, out: Path) -> int:
    """Fit the Kalman noise diagonals (no verb does this) and save them."""
    from latetrack import predictors
    from latetrack.training import OptimizerConfig

    q, r = predictors.kf_fit_noise(
        tracks, predictors.make_kf_state(tracks[0].b0),
        OptimizerConfig(epochs=size["fit_steps"], milestones=(), seed=seed),
        max_windows=size["max_windows"])
    predictors.save_kf_noise(q, r, out)
    return 0


def _fixtures(root: Path, seed: int, size: dict):
    """A short-trained motion-net checkpoint and a fitted noise file,
    both made by the program from the workload seed."""
    from latetrack.boxes import load_sequence

    corpus = root / "fixture_corpus"
    names = _gen_corpus(root / "fixture_specs", corpus, FIT_KINDS, size["count"],
                        size["length"], seed)
    train_cfg = _write(root / "fixture_train.cfg",
                       f"epochs = {size['epochs']}\nmilestones = 1\n")
    model = root / "fixture_model"
    if cli_main(["train", "--corpus", corpus, "--config", train_cfg, "--out", model,
                 "--seed", seed]) != 0:
        raise RuntimeError("set-up: train failed")
    noise = root / "noise.json"
    _fit_noise([load_sequence(corpus / f"{n}.txt") for n in names], seed, size, noise)
    return model / "pm_checkpoint.json", noise


def _run_files(out: Path, names) -> list:
    return [out / f"{n}.{ext}.csv" for n in names for ext in ("log", "trace")]


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _mauc_of_logs(corpus: Path, logs: Path, names) -> float:
    from latetrack.boxes import load_sequence
    from latetrack.evaluate import sweep
    from latetrack.simulate import load_run_log

    seqs = [load_sequence(corpus / f"{n}.txt") for n in names]
    auc, _ = sweep(seqs, [load_run_log(logs / f"{n}.log.csv", n) for n in names])
    return auc.aggregate


def setup_score(root: Path, seed: int, sizes: dict) -> Workload:
    size = sizes["score"]
    ckpt, noise = _fixtures(root, seed, sizes["fixture"])
    tracker = _write(root / "tracker.cfg", TRACKER_CFG)
    corpus, raw, ev, cmp = (root / d for d in ("corpus", "runs_raw", "eval", "compare"))
    names = _names(SCORE_KINDS, size["count"])
    steps = [
        cli_step("gen_s", "gen",
                 [_spec(root / f"{kind}.spec", kind, size["count"], size["length"]),
                  "--out", corpus, "--seed", seed], corpus,
                 [corpus / f"{n}.txt" for n in _names([kind], size["count"])])
        for kind in SCORE_KINDS
    ]
    steps += [
        cli_step("simulate_s", "simulate",
                 ["--sequences", corpus, "--tracker", tracker, "--out", raw, "--seed", seed],
                 raw, _run_files(raw, names)),
        cli_step("evaluate_s", "evaluate",
                 ["--sequences", corpus, "--logs", raw, "--out", ev, "--seed", seed],
                 ev, [ev / "summary.json", ev / "curves.csv"]),
        # compare seeds each predictor's runs from its token, file path
        # included, so the fixtures are named relative to the workload
        # directory: the same seed then gives the same runs in any checkout.
        cli_step("compare_s", "compare",
                 ["--sequences", corpus, "--tracker", tracker, "--out", cmp, "--seed", seed,
                  "--predictors", f"none,zero,kf,kf_learned:{noise.relative_to(root)},"
                                  f"pm:{ckpt.relative_to(root)}"],
                 cmp, [cmp / "comparison.csv", cmp / "comparison.md"], cwd=root),
    ]

    def quality():
        rows = {row["predictor"].split(":", 1)[0]: float(row["mauc"])
                for row in _csv_rows(cmp / "comparison.csv")}
        return {"mauc_raw": json.loads((ev / "summary.json").read_text())["mauc"],
                "mauc_kf": rows["kf"], "mauc_pm": rows["pm"]}

    return Workload(steps, quality)


def setup_online(root: Path, seed: int, sizes: dict) -> Workload:
    size = sizes["online"]
    ckpt, noise = _fixtures(root, seed, sizes["fixture"])
    tracker = _write(root / "tracker.cfg", TRACKER_CFG)
    corpus = root / "corpus"
    names = _gen_corpus(root / "specs", corpus, SCORE_KINDS, size["count"], size["length"],
                        seed)
    predictor_cfgs = {
        "kf": "kind = kf\nhorizon = 2\n",
        "kf_learned": f"kind = kf_learned\nhorizon = 2\nnoise = {noise}\n",
        "pm": f"kind = pm\nweights = {ckpt}\n",
    }
    steps = []
    for kind, text in predictor_cfgs.items():
        out = root / f"runs_{kind}"
        steps.append(cli_step(
            "simulate_s", "simulate",
            ["--sequences", corpus, "--tracker", tracker,
             "--predictor", _write(root / f"{kind}.cfg", text), "--out", out, "--seed", seed],
            out, _run_files(out, names)))
    hz = root / "horizon"
    steps.append(cli_step("horizon_s", "horizon",
                          ["--sequences", corpus, "--tracker", tracker, "--out", hz,
                           "--seed", seed], hz, [hz / "horizon.json"]))

    def quality():
        return {"mauc_kf": _mauc_of_logs(corpus, root / "runs_kf", names),
                "mauc_pm": _mauc_of_logs(corpus, root / "runs_pm", names)}

    def replay_check():
        """Re-simulating through a replay_log tracker over a raw run's
        traces must reproduce every log byte for byte, apart from the
        manifest line."""
        raw, replay = root / "replay_raw", root / "replay_out"
        replay_cfg = _write(root / "replay.cfg", f"behavior = replay_log\ntrace = {raw}\n")
        rows = []
        for name, tracker_cfg, out in (("replay.simulate_raw", tracker, raw),
                                       ("replay.simulate_replay", replay_cfg, replay)):
            code = cli_main(["simulate", "--sequences", corpus, "--tracker", tracker_cfg,
                             "--out", out, "--seed", seed])
            rows.append((name, code == 0, f"exit code {code}"))
            if code != 0:
                return rows

        def body(path):
            return [ln for ln in path.read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"# manifest=")]

        for n in names:
            same = body(raw / f"{n}.log.csv") == body(replay / f"{n}.log.csv")
            rows.append((f"replay.{n}", same, "identical" if same else "logs differ"))
        return rows

    return Workload(steps, quality, replay_check)


def setup_fit(root: Path, seed: int, sizes: dict) -> Workload:
    from latetrack import predictors
    from latetrack.boxes import load_sequence

    size = sizes["fit"]
    corpus = root / "corpus"
    names = _gen_corpus(root / "specs", corpus, FIT_KINDS, size["count"], size["length"], seed)
    holdout = root / "holdout"
    holdout_names = _gen_corpus(root / "holdout_specs", holdout, FIT_KINDS,
                                max(1, size["count"] // 3), size["length"],
                                seed + HOLDOUT_SEED_OFFSET)
    train_cfg = _write(root / "train.cfg",
                       f"epochs = {size['epochs']}\nmilestones = {size['milestone']}\n")
    tracks = [load_sequence(corpus / f"{n}.txt") for n in names]
    model, noise = root / "model", root / "noise.json"

    steps = [
        cli_step("train_s", "train",
                 ["--corpus", corpus, "--config", train_cfg, "--out", model, "--seed", seed],
                 model, [model / "pm_checkpoint.json", model / "loss.csv"]),
        Step("fit_noise_s", "predictors.kf_fit_noise",
             lambda: _fit_noise(tracks, seed, size, noise), (noise,)),
    ]

    def quality():
        from latetrack.seeding import rng_for
        from latetrack.training import motion_l1_on_samples, sample_windows

        q, r = predictors.load_kf_noise(noise)
        windows = [w for n in holdout_names
                   for w in sample_windows(list(load_sequence(holdout / f"{n}.txt").ground_truth),
                                           3, 1, (1, 2), rng_for(seed, "holdout", n))]
        return {"pm_val_l1": min(float(row["val_l1"]) for row in _csv_rows(model / "loss.csv")),
                "kf_fit_l1": motion_l1_on_samples(windows, predictors.kf_motion_batch(1, q, r))}

    return Workload(steps, quality)


SETUP = {"score": setup_score, "online": setup_online, "fit": setup_fit}

# Quality metrics per workload, checked against bench/reference.json.
QUALITY = {
    "score": ("mauc_raw", "mauc_kf", "mauc_pm"),
    "online": ("mauc_kf", "mauc_pm"),
    "fit": ("pm_val_l1", "kf_fit_l1"),
}
# End-to-end time metrics per workload, in the order they are printed.
TIME_METRICS = {
    "score": ("gen_s", "simulate_s", "evaluate_s", "compare_s"),
    "online": ("simulate_s", "horizon_s"),
    "fit": ("train_s", "fit_noise_s"),
}
