import csv
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from latetrack.boxes import load_sequence, save_sequence
from latetrack import cli
from latetrack.cli import build_parser, main
from latetrack.config import Config, latency_from_config, predictor_from_config
from latetrack.evaluate import EstimateMatcher, sweep
from latetrack.latency import LatencyProfile
from latetrack.network import init_weights, load_weights, save_weights
from latetrack.predictors import save_kf_noise
from latetrack.seeding import derive_seed
from latetrack.report import build_manifest
from latetrack.simulate import load_run_log, pick_horizon_n, run_streams
from latetrack.training import OptimizerConfig, SyntheticSpec, gen_synthetic, train_pm

from _oracles import constant_factor_weights, weight_views


def write_cfg(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture()
def cv_spec(tmp_path):
    return write_cfg(tmp_path / "cv.cfg",
                     "kind = constant_velocity\ncount = 3\nlength = 40\n")


@pytest.fixture()
def tracker_cfg(tmp_path):
    return write_cfg(tmp_path / "tracker.cfg",
                     "latency.kind = constant\nlatency.mean = 0.05\n")


def gen_corpus(tmp_path, name="seqs", count=3, length=40, noise=0.0,
               kind="constant_velocity", seed=0):
    spec = write_cfg(tmp_path / f"{name}.cfg",
                     f"kind = {kind}\ncount = {count}\nlength = {length}\n"
                     f"noise_sigma = {noise}\n")
    out = tmp_path / name
    assert main(["gen", spec, "--seed", str(seed), "--out", str(out)]) == 0
    return out


def read_csv_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


class TestGen:
    def test_writes_sequences_and_manifest(self, tmp_path, cv_spec):
        out = tmp_path / "out"
        assert main(["gen", cv_spec, "--out", str(out)]) == 0
        files = sorted(out.glob("*.txt"))
        assert [f.name for f in files] == [f"constant_velocity-{i:03d}.txt" for i in range(3)]
        assert (out / "manifest.json").exists()
        seq = load_sequence(files[0], framerate=30)
        assert len(seq) == 40

    def test_rerun_is_byte_identical(self, tmp_path, cv_spec):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", cv_spec, "--seed", "5", "--out", str(a)])
        main(["gen", cv_spec, "--seed", "5", "--out", str(b)])
        for f in a.glob("*.txt"):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_seed_changes_the_tracks(self, tmp_path, cv_spec):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", cv_spec, "--seed", "1", "--out", str(a)])
        main(["gen", cv_spec, "--seed", "2", "--out", str(b)])
        name = "constant_velocity-000.txt"
        assert (a / name).read_bytes() != (b / name).read_bytes()

    def test_single_frame_spec_is_a_validation_error(self, tmp_path):
        spec = write_cfg(tmp_path / "bad.cfg",
                         "kind = constant_velocity\ncount = 1\nlength = 1\n")
        assert main(["gen", spec, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key", ["framerate", "duration"])
    def test_removed_spec_key_is_rejected(self, tmp_path, capsys, key):
        # gen writes no clock, and `length` is the one spelling of a length
        spec = write_cfg(tmp_path / "spec.cfg",
                         f"kind = constant_velocity\ncount = 1\nlength = 20\n{key} = 25\n")
        out = tmp_path / "out"
        assert main(["gen", spec, "--out", str(out)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_result_files_carry_the_manifest_ref(self, tmp_path, cv_spec):
        out = tmp_path / "out"
        main(["gen", cv_spec, "--out", str(out)])
        ref = json.loads((out / "manifest.json").read_text())["ref"]
        first = next(out.glob("*.txt")).read_text().splitlines()[0]
        assert first == f"# manifest={ref}"


class TestSimulate:
    def test_log_and_trace_per_sequence(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path)
        out = tmp_path / "runs"
        assert main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--out", str(out)]) == 0
        for i in range(3):
            assert (out / f"constant_velocity-{i:03d}.log.csv").exists()
            assert (out / f"constant_velocity-{i:03d}.trace.csv").exists()
        log = load_run_log(out / "constant_velocity-000.log.csv")
        assert set(log.kind.tolist()) == {"raw"}

    def test_fifty_ms_schedule(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, length=10, count=1)
        out = tmp_path / "runs"
        main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
              "--out", str(out)])
        _, rows = read_csv_rows(out / "constant_velocity-000.trace.csv")
        assert [int(r[0]) for r in rows] == [0, 1, 3, 4, 6, 7, 9]

    def test_seeded_reruns_identical(self, tmp_path):
        seqs = gen_corpus(tmp_path, noise=0.5)
        trk = write_cfg(tmp_path / "trk.cfg",
                        "latency.kind = gaussian\nlatency.mean = 0.04\n"
                        "latency.stddev = 0.01\nsigma_pos = 1.0\n")
        a, b = tmp_path / "ra", tmp_path / "rb"
        main(["simulate", "--sequences", str(seqs), "--tracker", trk,
              "--seed", "3", "--out", str(a)])
        main(["simulate", "--sequences", str(seqs), "--tracker", trk,
              "--seed", "3", "--out", str(b)])
        name = "constant_velocity-000.log.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_predictor_config_adds_predicted_rows(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=1)
        pred = write_cfg(tmp_path / "pred.cfg", "kind = kf\nhorizon = 2\n")
        out = tmp_path / "runs"
        main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
              "--predictor", pred, "--out", str(out)])
        log = load_run_log(out / "constant_velocity-000.log.csv")
        kinds = set(log.kind.tolist())
        assert kinds == {"raw", "predicted"}

    def test_replay_binds_each_sequence_to_its_own_trace(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=3, length=60, kind="sinusoidal")
        raw = tmp_path / "raw"
        assert main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--out", str(raw)]) == 0
        replay = write_cfg(tmp_path / "dir.cfg", f"behavior = replay_log\ntrace = {raw}\n")
        out = tmp_path / "replayed"
        assert main(["simulate", "--sequences", str(seqs), "--tracker", replay,
                     "--out", str(out)]) == 0
        for i in range(3):
            name = f"sinusoidal-{i:03d}.log.csv"
            assert np.array_equal(load_run_log(out / name).boxes, load_run_log(raw / name).boxes)

    def test_one_trace_file_for_several_sequences_is_rejected(self, tmp_path, capsys,
                                                              tracker_cfg):
        seqs = gen_corpus(tmp_path, count=3, length=60, kind="sinusoidal")
        raw = tmp_path / "raw"
        assert main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--out", str(raw)]) == 0
        trace = raw / "sinusoidal-000.trace.csv"
        replay = write_cfg(tmp_path / "one.cfg", f"behavior = replay_log\ntrace = {trace}\n")
        out = tmp_path / "replayed"
        assert main(["simulate", "--sequences", str(seqs), "--tracker", replay,
                     "--out", str(out)]) == 2
        assert f"{trace} is one file for 3 sequences" in capsys.readouterr().err
        assert not out.exists()


def manifest_of(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


class TestManifestInputs:
    """The manifest digests every file a config or a compare token names."""

    def test_noise_file_changes_the_simulate_ref(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        noise = tmp_path / "noise.json"
        pred = write_cfg(tmp_path / "pred.cfg", f"kind = kf_learned\nnoise = {noise}\n")
        refs = []
        for i, r in enumerate((1.5, 0.5)):
            save_kf_noise(np.full(8, 0.02), np.full(4, r), noise)
            out = tmp_path / f"runs{i}"
            assert main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
                         "--predictor", pred, "--out", str(out)]) == 0
            refs.append(manifest_of(out)["ref"])
        assert "predictor.noise" in manifest_of(out)["input_digests"]
        assert refs[0] != refs[1]

    def test_replay_traces_and_latency_file_are_digested(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        raw = tmp_path / "raw"
        assert main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--out", str(raw)]) == 0
        durations = tmp_path / "durations.txt"
        durations.write_text("0.05\n" * 30)
        replay = write_cfg(tmp_path / "replay.cfg",
                           f"behavior = replay_log\ntrace = {raw}\n"
                           f"latency.kind = replay\nlatency.file = {durations}\n")
        out = tmp_path / "hz"
        assert main(["horizon", "--sequences", str(seqs), "--tracker", replay,
                     "--out", str(out)]) == 0
        assert {"tracker", "tracker.latency.file", "tracker.trace:constant_velocity-000",
                "tracker.trace:constant_velocity-001"} <= set(manifest_of(out)["input_digests"])

    def test_compare_keys_files_by_token(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        tokens = []
        for name, seed in (("a.json", 1), ("b.json", 2)):
            save_weights(init_weights(k=3, n_heads=2, c_enc=8, c_dec=6, seed=seed),
                         tmp_path / name)
            tokens.append(f"pm:{tmp_path / name}")
        out = tmp_path / "cmp"
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", ",".join(tokens), "--out", str(out)]) == 0
        assert set(tokens) <= set(manifest_of(out)["input_digests"])


class TestEvaluate:
    def run_eval(self, tmp_path, tracker_mean=0.02, fmt=None, noise=0.0):
        seqs = gen_corpus(tmp_path, noise=noise)
        trk = write_cfg(tmp_path / "trk.cfg",
                        f"latency.kind = constant\nlatency.mean = {tracker_mean}\n")
        runs = tmp_path / "runs"
        main(["simulate", "--sequences", str(seqs), "--tracker", trk,
              "--out", str(runs)])
        out = tmp_path / "eval"
        argv = ["evaluate", "--sequences", str(seqs), "--logs", str(runs),
                "--out", str(out)]
        if fmt:
            argv += ["--format", fmt]
        assert main(argv) == 0
        return seqs, runs, out

    def test_curve_grid_shape(self, tmp_path):
        _, _, out = self.run_eval(tmp_path)
        header, rows = read_csv_rows(out / "curves.csv")
        assert header == ["sigma", "auc", "dp"]
        assert len(rows) == 50
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(0.98)

    def test_instant_tracker_hits_the_ceiling(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=2)
        trk = write_cfg(tmp_path / "trk.cfg",
                        "latency.kind = constant\nlatency.mean = 0.0\n")
        runs = tmp_path / "runs"
        main(["simulate", "--sequences", str(seqs), "--tracker", trk,
              "--out", str(runs)])
        out = tmp_path / "eval"
        main(["evaluate", "--sequences", str(seqs), "--logs", str(runs),
              "--out", str(out)])
        _, rows = read_csv_rows(out / "curves.csv")
        for row in rows:
            assert float(row[1]) == pytest.approx(20 / 21, abs=1e-12)
            assert float(row[2]) == 1.0

    def test_sigma_zero_column_equals_direct_scoring(self, tmp_path):
        seqs, runs, out = self.run_eval(tmp_path, tracker_mean=0.05, noise=0.8)
        _, rows = read_csv_rows(out / "curves.csv")
        dps = []
        aucs = []
        for f in sorted(seqs.glob("*.txt")):
            seq = load_sequence(f, framerate=30)
            log = load_run_log(runs / f"{seq.name}.log.csv", seq.name)
            dp, auc = EstimateMatcher(seq, log).scores([0.0])
            dps.append(dp[0])
            aucs.append(auc[0])
        assert float(rows[0][1]) == pytest.approx(np.mean(aucs), abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(np.mean(dps), abs=1e-12)

    def test_summary_json_fields(self, tmp_path):
        _, _, out = self.run_eval(tmp_path)
        doc = json.loads((out / "summary.json").read_text())
        assert {"auc_la0", "dp_la0", "mauc", "mdp", "per_sequence", "manifest"} <= set(doc)
        assert len(doc["per_sequence"]) == 3

    def test_markdown_format(self, tmp_path):
        _, _, out = self.run_eval(tmp_path)
        text = (out / "summary.md").read_text()
        assert "| sequence |" in text
        assert "| all |" in text

    def test_svg_format(self, tmp_path):
        _, _, out = self.run_eval(tmp_path, fmt="svg")
        assert (out / "curves.svg").read_text().startswith("<svg ")

    def test_missing_log_is_an_io_error(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path)
        runs = tmp_path / "runs"
        runs.mkdir()
        assert main(["evaluate", "--sequences", str(seqs), "--logs", str(runs),
                     "--out", str(tmp_path / "eval")]) == 3
        assert main(["evaluate", "--sequences", str(seqs), "--logs", str(runs / "one.log.csv"),
                     "--out", str(tmp_path / "eval")]) == 2


class TestTrain:
    def test_cv_corpus_converges(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=5, length=60)
        out = tmp_path / "model"
        assert main(["train", "--corpus", str(seqs), "--epochs", "100",
                     "--seed", "0", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "loss.csv")
        assert header == ["epoch", "train_l1", "val_l1"]
        assert len(rows) == 100
        assert float(rows[-1][2]) < 0.01
        weights = load_weights(out / "pm_checkpoint.json")
        assert weights.n_heads == 2

    def test_same_seed_same_checkpoint_bytes(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        a, b = tmp_path / "ma", tmp_path / "mb"
        for out in (a, b):
            main(["train", "--corpus", str(seqs), "--epochs", "3",
                  "--seed", "11", "--out", str(out)])
        assert (a / "pm_checkpoint.json").read_bytes() == \
            (b / "pm_checkpoint.json").read_bytes()

    def test_zero_epochs_writes_initialization(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        out = tmp_path / "model"
        assert main(["train", "--corpus", str(seqs), "--epochs", "0",
                     "--seed", "4", "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "loss.csv")
        assert header == ["epoch", "train_l1", "val_l1"]
        assert rows == []
        got = load_weights(out / "pm_checkpoint.json")
        fresh = init_weights(3, 2, seed=derive_seed(4, "pm-init"))
        for name, arr in weight_views(got).items():
            assert np.array_equal(arr, weight_views(fresh)[name])

    def test_divergent_config_exits_four(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        cfg = write_cfg(tmp_path / "train.cfg",
                        "lr = 1e8\nweight_decay = 1.0\nmilestones = 90\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--corpus", str(seqs), "--config", cfg,
                         "--out", str(tmp_path / "model")])
        assert code == 4

    def test_corpus_with_gaps_rejected(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        name = "constant_velocity-000.txt"
        lines = (seqs / name).read_text().splitlines()
        lines[5] = "NaN,NaN,NaN,NaN"
        (seqs / name).write_text("\n".join(lines) + "\n")
        assert main(["train", "--corpus", str(seqs),
                     "--out", str(tmp_path / "model")]) == 2
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("setting", ["c_enc = 0", "c_dec = 0", "k = 0", "stride_set = 0",
                                         "k = 20"])
    def test_bad_setting_writes_nothing(self, tmp_path, setting):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        cfg = write_cfg(tmp_path / "train.cfg", setting + "\n")
        out = tmp_path / "model"
        assert main(["train", "--corpus", str(seqs), "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()


class TestCompare:
    def test_kf_beats_no_predictor_on_noisy_cv(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=4, length=60, noise=2.0)
        out = tmp_path / "cmp"
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", "none,kf", "--horizon", "2",
                     "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "comparison.csv")
        assert header == ["predictor", "auc_la0", "dp_la0", "mauc", "mdp",
                          "mean_extra_latency_s"]
        by_name = {r[0]: r for r in rows}
        assert set(by_name) == {"none", "kf"}
        assert float(by_name["kf"][1]) > float(by_name["none"][1])
        assert float(by_name["none"][5]) == 0.0
        assert float(by_name["kf"][5]) == pytest.approx(0.005)
        assert (out / "comparison.md").exists()

    def test_horizon_defaults_to_pre_run_pick(self, tmp_path, tracker_cfg):
        # 50 ms per frame at 30 fps skips one frame per step, so the
        # pre-run pick must land on 2 and match an explicit --horizon 2
        seqs = gen_corpus(tmp_path, count=1, length=30)
        auto, fixed = tmp_path / "auto", tmp_path / "fixed"
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", "zero", "--out", str(auto)]) == 0
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", "zero", "--horizon", "2",
                     "--out", str(fixed)]) == 0
        assert (auto / "comparison.csv").read_bytes() == \
            (fixed / "comparison.csv").read_bytes()

    def test_svg_output(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        out = tmp_path / "cmp"
        main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
              "--predictors", "none,zero", "--horizon", "2", "--format", "svg",
              "--out", str(out)])
        assert (out / "comparison.svg").exists()

    def test_unknown_predictor_name(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", "psychic", "--horizon", "2",
                     "--out", str(tmp_path / "cmp")]) == 2

    def test_token_given_twice(self, tmp_path, tracker_cfg, capsys):
        # both runs would be seeded from the one token and write the same row
        seqs = gen_corpus(tmp_path, count=1, length=30)
        out = tmp_path / "cmp"
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", "kf,kf,none", "--out", str(out)]) == 2
        assert "'kf' twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("predictors", ["none", "none,kf"])
    def test_horizon_below_one(self, tmp_path, tracker_cfg, capsys, predictors):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        out = tmp_path / "cmp"
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", predictors, "--horizon", "-5", "--out", str(out)]) == 2
        assert "horizon must be >= 1, got -5" in capsys.readouterr().err
        assert not out.exists()


def body_lines(path):
    """File lines without the `# manifest=` comment, which hashes the
    run's own configuration."""
    return [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("# manifest=")]


class TestPredictorVocabulary:
    """The README kinds none | zero | kf | kf_learned | pm, as config
    `kind` values and as compare tokens."""

    @pytest.fixture()
    def files(self, tmp_path):
        noise = tmp_path / "noise.json"
        save_kf_noise(np.full(8, 0.02), np.full(4, 1.5), noise)
        ckpt = tmp_path / "pm.json"
        save_weights(init_weights(k=3, n_heads=2, c_enc=8, c_dec=6, seed=1), ckpt)
        return {"kf_learned": f"noise = {noise}\n", "pm": f"weights = {ckpt}\n",
                "noise": noise, "ckpt": ckpt}

    def simulate(self, tmp_path, tracker_cfg, text, out="runs"):
        seqs = gen_corpus(tmp_path, count=2, length=30, noise=0.5)
        pred = write_cfg(tmp_path / "pred.cfg", text)
        return main(["simulate", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictor", pred, "--seed", "3", "--out", str(tmp_path / out)])

    @pytest.mark.parametrize("kind", ["none", "zero", "kf", "kf_learned", "pm"])
    def test_every_readme_kind_simulates(self, tmp_path, tracker_cfg, files, kind):
        text = f"kind = {kind}\n" + files.get(kind, "")
        assert self.simulate(tmp_path, tracker_cfg, text) == 0
        log = load_run_log(tmp_path / "runs" / "constant_velocity-000.log.csv")
        kinds = set(log.kind.tolist())
        assert kinds == ({"raw"} if kind == "none" else {"raw", "predicted"})

    def test_every_readme_kind_compares(self, tmp_path, tracker_cfg, files):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        out = tmp_path / "cmp"
        tokens = ["none", "zero", "kf", f"kf_learned:{files['noise']}", f"pm:{files['ckpt']}"]
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", ",".join(tokens), "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "comparison.csv")
        assert [r[0] for r in rows] == tokens

    def test_kind_none_matches_a_run_without_predictor(self, tmp_path, tracker_cfg):
        assert self.simulate(tmp_path, tracker_cfg, "kind = none\n", out="none") == 0
        bare = tmp_path / "bare"
        assert main(["simulate", "--sequences", str(tmp_path / "seqs"), "--tracker", tracker_cfg,
                     "--seed", "3", "--out", str(bare)]) == 0
        for f in bare.glob("*.csv"):
            assert body_lines(f) == body_lines(tmp_path / "none" / f.name)

    def test_non_finite_noise_file_is_a_validation_error(self, tmp_path, tracker_cfg, files,
                                                         capsys):
        files["noise"].write_text(json.dumps({"q": [float("nan")] + [0.02] * 7, "r": [1.5] * 4}))
        assert self.simulate(tmp_path, tracker_cfg, "kind = kf_learned\n" + files["kf_learned"]) == 2
        assert str(files["noise"]) in capsys.readouterr().err

    @pytest.mark.parametrize("q, r", [
        ("12345678", "1234"), (["0.02"] * 8, [1.5] * 4), ([True] * 8, [1.5] * 4),
        ({str(i): 0.02 for i in range(8)}, [1.5] * 4), ([0.02] * 8, [1.5] * 3 + [False])],
        ids=["digit_strings", "numeric_strings", "booleans", "object", "bool_in_r"])
    def test_noise_lists_of_non_numbers_are_validation_errors(self, tmp_path, tracker_cfg, files,
                                                              capsys, q, r):
        files["noise"].write_text(json.dumps({"q": q, "r": r}))
        assert self.simulate(tmp_path, tracker_cfg, "kind = kf_learned\n" + files["kf_learned"]) == 2
        assert f"{files['noise']}: not a fitted-noise file" in capsys.readouterr().err

    @pytest.mark.parametrize("head", [["1", True, 0.5, "2e0"], [True] * 4],
                             ids=["strings_and_bools", "booleans"])
    def test_layer_data_of_non_numbers_is_a_validation_error(self, tmp_path, tracker_cfg, files,
                                                             capsys, head):
        doc = json.loads(files["ckpt"].read_text())
        layer = doc["layers"]["enc_fc.bias"]
        layer["data"][:4] = head
        files["ckpt"].write_text(json.dumps(doc))
        assert self.simulate(tmp_path, tracker_cfg, "kind = pm\n" + files["pm"]) == 2
        assert f"{files['ckpt']}: bad layer enc_fc.bias" in capsys.readouterr().err

    def test_pm_horizon_must_match_checkpoint(self, tmp_path, tracker_cfg, files):
        text = "kind = pm\nhorizon = 3\n" + files["pm"]
        assert self.simulate(tmp_path, tracker_cfg, text) == 2

    def test_malformed_pm_checkpoint_is_a_validation_error(self, tmp_path, tracker_cfg, files):
        doc = json.loads(files["ckpt"].read_text())
        files["ckpt"].write_text(json.dumps(dict(doc, k="three")))
        assert self.simulate(tmp_path, tracker_cfg, "kind = pm\n" + files["pm"]) == 2

    def test_pm_size_overflow_is_a_validation_error(self, tmp_path, capsys):
        # a factor this large sends the decoded log size ratio past exp's range
        w = constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6)
        w.out_w[:, 0] *= 1e5
        save_weights(w, tmp_path / "huge.json")
        tracker = write_cfg(tmp_path / "scaled.cfg", "sigma_scale = 0.05\n"
                            "latency.kind = constant\nlatency.mean = 0.05\n")
        text = f"kind = pm\nweights = {tmp_path / 'huge.json'}\n"
        assert self.simulate(tmp_path, tracker, text) == 2
        assert "decoded box size overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["zero_motion", "neural_pm"])
    def test_old_spellings_rejected(self, tmp_path, tracker_cfg, files, kind):
        assert self.simulate(tmp_path, tracker_cfg, f"kind = {kind}\n" + files["pm"]) == 2

    @pytest.mark.parametrize("token", ["kf_learned", "pm", "kf:noise.json"])
    def test_malformed_compare_token(self, tmp_path, tracker_cfg, token):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        assert main(["compare", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--predictors", token, "--horizon", "2",
                     "--out", str(tmp_path / "cmp")]) == 2


def without_manifest(path) -> bytes:
    """A result file's bytes after its `# manifest=` line."""
    head, _, body = Path(path).read_bytes().partition(b"\n")
    assert head.startswith(b"# manifest=")
    return body


class TestRunsBatchAcrossSequences:
    """simulate and compare simulate a verb's runs, per predictor, as one
    batch; each run must be the run of its sequence alone at the same
    seed. The corpus mixes lengths, and the tracker's jittery latency
    gives each run its own gaps."""

    KINDS = ["zero", "kf", "kf_learned", "pm"]

    @pytest.fixture()
    def corpus(self, tmp_path):
        gen_corpus(tmp_path, count=2, length=45, noise=0.5)
        seqs = gen_corpus(tmp_path, count=1, length=25, kind="sinusoidal")
        trk = write_cfg(tmp_path / "jitter.cfg", "latency.kind = gaussian\nlatency.mean = 0.05\n"
                        "latency.stddev = 0.02\nsigma_pos = 0.5\nsigma_scale = 0.03\n")
        noise = tmp_path / "noise.json"
        save_kf_noise(np.full(8, 0.02), np.full(4, 1.5), noise)
        ckpt = tmp_path / "pm.json"
        save_weights(init_weights(k=3, n_heads=2, c_enc=8, c_dec=6, seed=1), ckpt)
        return seqs, trk, {"kf_learned": noise, "pm": ckpt}

    @pytest.mark.parametrize("kind", KINDS)
    def test_simulate_files_equal_each_sequence_alone(self, tmp_path, corpus, kind):
        seqs, trk, files = corpus
        text = f"kind = {kind}\n" + {"kf_learned": f"noise = {files['kf_learned']}\n",
                                      "pm": f"weights = {files['pm']}\n"}.get(kind, "")
        pred = write_cfg(tmp_path / "pred.cfg", text)
        names = sorted(f.stem for f in seqs.glob("*.txt"))
        assert len(names) == 3
        runs = [("all", seqs)] + [(name, seqs / f"{name}.txt") for name in names]
        for out, source in runs:
            assert main(["simulate", "--sequences", str(source), "--tracker", trk,
                         "--predictor", pred, "--seed", "4", "--out", str(tmp_path / out)]) == 0
        for name in names:
            for suffix in (".log.csv", ".trace.csv"):
                assert (without_manifest(tmp_path / "all" / f"{name}{suffix}")
                        == without_manifest(tmp_path / name / f"{name}{suffix}")), name + suffix

    def test_compare_rows_equal_each_sequence_alone(self, tmp_path, corpus, monkeypatch):
        seqs, trk, files = corpus
        batches = []

        def spy(sequences, trackers, predictor, seeds):
            logs = run_streams(sequences, trackers, predictor, seeds)
            batches.append(logs)
            return logs
        monkeypatch.setattr(cli, "run_streams", spy)
        tokens = ["none", "zero", "kf", f"kf_learned:{files['kf_learned']}", f"pm:{files['pm']}"]
        names = sorted(f.stem for f in seqs.glob("*.txt"))
        for out, source in [("all", seqs)] + [(name, seqs / f"{name}.txt") for name in names]:
            assert main(["compare", "--sequences", str(source), "--tracker", trk,
                         "--predictors", ",".join(tokens), "--horizon", "2", "--seed", "4",
                         "--out", str(tmp_path / out)]) == 0
        together, alone = batches[:len(tokens)], batches[len(tokens):]
        _, rows = read_csv_rows(tmp_path / "all" / "comparison.csv")
        sequences = [load_sequence(seqs / f"{name}.txt") for name in names]
        for j, (token, row) in enumerate(zip(tokens, rows)):
            logs = [alone[len(tokens) * i + j][0] for i in range(len(names))]
            for log, want in zip(together[j], logs):
                assert log == want and log.boxes.tobytes() == want.boxes.tobytes(), token
            auc, dp = sweep(sequences, logs)
            invocations = sum(log.predictor_invocations for log in logs)
            extra = sum(sum(log.predictor_latencies) for log in logs) / max(invocations, 1)
            assert row == [token, *map(repr, (auc.values[0], dp.values[0], auc.aggregate,
                                              dp.aggregate, extra))]


class TestHorizon:
    def test_fifty_ms_tracker_needs_two(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        out = tmp_path / "hz"
        assert main(["horizon", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--out", str(out)]) == 0
        doc = json.loads((out / "horizon.json").read_text())
        assert doc["horizon_n"] == 2
        assert set(doc["per_sequence"]) == {"constant_velocity-000",
                                            "constant_velocity-001"}

    def test_zero_trials_exits_two_and_writes_nothing(self, tmp_path, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        out = tmp_path / "hz"
        assert main(["horizon", "--sequences", str(seqs), "--tracker", tracker_cfg,
                     "--trials", "0", "--out", str(out)]) == 2
        assert not out.exists()


class TestExitCodes:
    def test_missing_config_file_is_io(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        assert main(["simulate", "--sequences", str(seqs),
                     "--tracker", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "runs")]) == 3

    def test_missing_sequence_path_is_io(self, tmp_path, tracker_cfg):
        assert main(["simulate", "--sequences", str(tmp_path / "nowhere"),
                     "--tracker", tracker_cfg,
                     "--out", str(tmp_path / "runs")]) == 3

    @pytest.mark.parametrize("verb, flag", [
        ("gen", "--format md"), ("gen", "--framerate 25"), ("simulate", "--format md"),
        ("train", "--format md"), ("train", "--framerate 25"), ("horizon", "--format md"),
    ])
    def test_flag_the_verb_ignores_is_rejected(self, tmp_path, capsys, verb, flag):
        inputs = {"gen": ["spec.cfg"], "train": ["--corpus", "seqs"],
                  "simulate": ["--sequences", "seqs", "--tracker", "tracker.cfg"],
                  "horizon": ["--sequences", "seqs", "--tracker", "tracker.cfg"]}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([verb, *inputs[verb], "--out", str(out), *flag.split()])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["evaluate", "compare"])
    @pytest.mark.parametrize("fmt", ["csv", "json", "md"])
    def test_format_that_adds_no_file_is_rejected(self, tmp_path, capsys, verb, fmt):
        inputs = {"evaluate": ["--sequences", "seqs", "--logs", "runs"],
                  "compare": ["--sequences", "seqs", "--tracker", "tracker.cfg",
                              "--predictors", "none"]}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([verb, *inputs[verb], "--out", str(out), "--format", fmt])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{fmt}'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_is_validation(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        trk = write_cfg(tmp_path / "trk.cfg",
                        "latency.kind = constant\nlatency.mean = abc\n")
        assert main(["simulate", "--sequences", str(seqs), "--tracker", trk,
                     "--out", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("key", ["sigma_pos", "sigma_scale"])
    def test_nan_tracker_noise_fails_before_running(self, tmp_path, key):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        trk = write_cfg(tmp_path / "trk.cfg",
                        f"{key} = nan\nlatency.kind = constant\nlatency.mean = 0.05\n")
        assert main(["simulate", "--sequences", str(seqs), "--tracker", trk,
                     "--out", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs").exists()

    def test_nan_track_noise_fails_before_generating(self, tmp_path):
        spec = write_cfg(tmp_path / "nan.cfg",
                         "kind = constant_velocity\ncount = 1\nlength = 30\nnoise_sigma = nan\n")
        assert main(["gen", spec, "--out", str(tmp_path / "seqs")]) == 2
        assert not (tmp_path / "seqs").exists()

    @pytest.mark.parametrize("setting", [
        "c_enc = 0", "c_dec = -3", "lr = nan", "weight_decay = inf",
    ])
    def test_bad_train_setting_is_validation(self, tmp_path, setting):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        cfg = write_cfg(tmp_path / "train.cfg", f"{setting}\n")
        assert main(["train", "--corpus", str(seqs), "--config", cfg, "--epochs", "2",
                     "--out", str(tmp_path / "model")]) == 2

    @pytest.mark.parametrize("kind, line", [
        ("spec", "nosie_sigma = 0.5"),
        ("tracker", "sigma_pso = 3.0"),
        ("predictor", "horizn = 5"),
        ("train", "milestone = 1"),
    ])
    def test_unknown_config_key_is_validation(self, tmp_path, capsys, kind, line):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        known = {"spec": "kind = constant_velocity\ncount = 1\nlength = 30\n",
                 "tracker": "latency.kind = constant\nlatency.mean = 0.05\n",
                 "predictor": "kind = kf\n", "train": "epochs = 1\n"}
        cfg = write_cfg(tmp_path / f"{kind}.cfg", known[kind] + line + "\n")
        tracker = write_cfg(tmp_path / "known.cfg", known["tracker"])
        argv = {
            "spec": ["gen", cfg],
            "tracker": ["simulate", "--sequences", str(seqs), "--tracker", cfg],
            "predictor": ["simulate", "--sequences", str(seqs), "--tracker", tracker,
                          "--predictor", cfg],
            "train": ["train", "--corpus", str(seqs), "--config", cfg],
        }[kind]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert cfg in err and repr(line.split(" = ")[0]) in err
        assert not out.exists()

    def test_nan_latency_is_validation(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        trk = write_cfg(tmp_path / "trk.cfg",
                        "latency.kind = gaussian\nlatency.mean = nan\nlatency.stddev = 0.01\n")
        assert main(["simulate", "--sequences", str(seqs), "--tracker", trk,
                     "--out", str(tmp_path / "runs")]) == 2


class TestExhaustedReplayLatency:
    """A replay latency block that runs out exits 2 naming the file it
    came from and the sequence, and leaves no --out."""

    SEQUENCE = "in sequence 'constant_velocity-000'"

    def run(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("verb, flags", [
        ("simulate", []), ("horizon", []), ("compare", ["--predictors", "none,kf"]),
        ("compare", ["--predictors", "none,kf", "--horizon", "2"]),
    ])
    def test_a_tracker_latency_file(self, tmp_path, capsys, verb, flags):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        durations = tmp_path / "durations.txt"
        durations.write_text("0.05\n" * 3)
        tracker = write_cfg(tmp_path / "replay.cfg",
                            f"latency.kind = replay\nlatency.file = {durations}\n")
        err = self.run(tmp_path, capsys, [verb, "--sequences", str(seqs), "--tracker", tracker,
                                          *flags])
        assert (f"error: {durations}: tracker replay latency exhausted after 3 draws "
                f"{self.SEQUENCE}") in err

    def test_a_predictor_latency_file(self, tmp_path, capsys, tracker_cfg):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        durations = tmp_path / "durations.txt"
        durations.write_text("0.005\n" * 4)
        pred = write_cfg(tmp_path / "pred.cfg",
                         f"kind = kf\nlatency.kind = replay\nlatency.file = {durations}\n")
        err = self.run(tmp_path, capsys, ["simulate", "--sequences", str(seqs), "--tracker",
                                          tracker_cfg, "--predictor", pred])
        assert (f"error: {durations}: predictor replay latency exhausted after 4 draws "
                f"{self.SEQUENCE}") in err

    def test_a_replayed_trace(self, tmp_path, capsys):
        """A real-time recording of 10 frames replays its 10 durations
        onto a 30-frame sequence of the same name."""
        realtime = write_cfg(tmp_path / "realtime.cfg",
                             "latency.kind = constant\nlatency.mean = 0.01\n")
        raw = tmp_path / "raw"
        assert main(["simulate", "--sequences", str(gen_corpus(tmp_path, "short", length=10)),
                     "--tracker", realtime, "--out", str(raw)]) == 0
        replay = write_cfg(tmp_path / "replay.cfg", f"behavior = replay_log\ntrace = {raw}\n")
        err = self.run(tmp_path, capsys, ["simulate", "--sequences", str(gen_corpus(tmp_path)),
                                          "--tracker", replay])
        assert (f"error: {raw / 'constant_velocity-000.trace.csv'}: tracker replay latency "
                f"exhausted after 10 draws {self.SEQUENCE}") in err


class TestKeysTheKindDoesNotRead:
    TRACKER = "latency.kind = constant\nlatency.mean = 0.05\n"

    @pytest.mark.parametrize("role, text, key, kind", [
        ("predictor", "kind = kf\nnoise = nothere.json\n", "noise", "kf"),
        ("predictor", "kind = zero\nweights = nothere.json\n", "weights", "zero"),
        ("predictor", "kind = kf_learned\nnoise = n.json\nweights = w.json\n", "weights",
         "kf_learned"),
        ("predictor", "kind = pm\nweights = w.json\nnoise = n.json\n", "noise", "pm"),
        ("predictor", "kind = none\nhorizon = 2\n", "horizon", "none"),
        ("predictor", "kind = none\nlatency.kind = constant\nlatency.mean = 0.01\n",
         "latency.kind", "none"),
        ("tracker", "sigma_pos = 1.0\ntrace = nowhere\n" + TRACKER, "trace", "oracle_noisy"),
        ("tracker", "behavior = replay_log\ntrace = nowhere\nsigma_pos = 1.0\n", "sigma_pos",
         "replay_log"),
        ("tracker", "behavior = replay_log\ntrace = nowhere\nsigma_scale = 0.1\n",
         "sigma_scale", "replay_log"),
        ("tracker", TRACKER + "latency.stddev = 0.01\n", "latency.stddev", "constant"),
        ("tracker", TRACKER + "latency.floor = 0.01\n", "latency.floor", "constant"),
        ("tracker", TRACKER + "latency.file = lat.txt\n", "latency.file", "constant"),
        ("tracker", "latency.kind = gaussian\nlatency.mean = 0.05\nlatency.stddev = 0.01\n"
                    "latency.file = lat.txt\n", "latency.file", "gaussian"),
        ("tracker", "latency.kind = replay\nlatency.file = lat.txt\nlatency.mean = 0.05\n",
         "latency.mean", "replay"),
        ("tracker", "latency.kind = replay\nlatency.file = lat.txt\nlatency.floor = 0.0\n",
         "latency.floor", "replay"),
        ("predictor", "kind = kf\nlatency.kind = constant\nlatency.mean = 0.01\n"
                      "latency.stddev = 0.002\n", "latency.stddev", "constant"),
    ])
    def test_exits_two_naming_key_kind_and_file(self, tmp_path, capsys, role, text, key, kind):
        seqs = gen_corpus(tmp_path, count=1, length=30)
        (tmp_path / "lat.txt").write_text("0.04\n" * 30)
        cfg = write_cfg(tmp_path / f"{role}.cfg", text)
        tracker = cfg if role == "tracker" else write_cfg(tmp_path / "trk.cfg", self.TRACKER)
        argv = ["simulate", "--sequences", str(seqs), "--tracker", tracker]
        if role == "predictor":
            argv += ["--predictor", cfg]
        out = tmp_path / "runs"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: unknown key {key!r}" in err and repr(kind) in err
        assert not out.exists()


class TestBadSpecValues:
    @pytest.mark.parametrize("kind, line, key", [
        ("constant_velocity", "center_range = 1, 2, 3", "center_range"),
        ("constant_velocity", "speed_range = 5", "speed_range"),
        ("constant_velocity", "size_range = 70, 40", "size_range"),
        ("constant_velocity", "size_range = 0, 40", "size_range"),
        ("constant_velocity", "accel_range = nan, 1", "accel_range"),
        ("constant_velocity", "amplitude_range = 1, inf", "amplitude_range"),
        ("sinusoidal", "period_range = 0, 0", "period_range"),
        ("random_walk", "walk_step = -1", "walk_step"),
        ("random_walk", "walk_step = nan", "walk_step"),
    ])
    def test_exits_two_naming_the_key_and_writes_nothing(self, tmp_path, capsys, kind, line,
                                                          key):
        spec = write_cfg(tmp_path / "spec.cfg", f"kind = {kind}\ncount = 2\nlength = 20\n"
                                                f"{line}\n")
        out = tmp_path / "seqs"
        assert main(["gen", spec, "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()


class TestDefaultsAreTheLibrarys:
    """A key or flag left out takes the default of the library object
    it configures, so the CLI and the library train, generate and time
    alike."""

    def test_train_without_config(self, tmp_path):
        seqs = gen_corpus(tmp_path, count=2, length=30)
        out = tmp_path / "model"
        assert main(["train", "--corpus", str(seqs), "--out", str(out)]) == 0
        opt = OptimizerConfig()
        widths = {name: p.default for name, p in inspect.signature(train_pm).parameters.items()
                  if name in ("c_enc", "c_dec")}
        payload = {"optimizer": {"lr": opt.lr, "weight_decay": opt.weight_decay,
                                 "epochs": opt.epochs, "milestones": list(opt.milestones),
                                 "batch_size": opt.batch_size},
                   "window": {"k": 3, "horizon": 2, "stride_set": [1, 2]},
                   "model": widths}
        inputs = {f"sequence:{f.name}": f for f in sorted(seqs.glob("*.txt"))}
        want = build_manifest("train", opt.seed, payload, inputs)
        assert manifest_of(out)["config_hash"] == want.config_hash
        weights = load_weights(out / "pm_checkpoint.json")
        assert {"c_enc": weights.c_enc, "c_dec": weights.c_dec} == widths
        _, rows = read_csv_rows(out / "loss.csv")
        assert len(rows) == opt.epochs

    def test_gen_minimal_spec(self, tmp_path, cv_spec):
        out = tmp_path / "out"
        assert main(["gen", cv_spec, "--out", str(out)]) == 0
        ref = manifest_of(out)["ref"]
        for seq in gen_synthetic(SyntheticSpec("constant_velocity", 3, 40)):
            want = tmp_path / "want.txt"
            save_sequence(seq, want, manifest_ref=ref)
            assert (out / f"{seq.name}.txt").read_bytes() == want.read_bytes()

    def test_gaussian_latency_without_floor(self):
        cfg = Config.from_text("latency.kind = gaussian\nlatency.mean = 0.04\n"
                               "latency.stddev = 0.01\n")
        assert latency_from_config(cfg) == LatencyProfile.gaussian(0.04, 0.01)

    def test_verb_flags(self):
        flags = build_parser().parse_args(
            ["horizon", "--sequences", "s", "--tracker", "t", "--out", "o"])
        assert flags.trials == inspect.signature(pick_horizon_n).parameters["trials"].default
        flags = build_parser().parse_args(
            ["compare", "--sequences", "s", "--tracker", "t", "--predictors", "kf", "--out", "o"])
        kf = predictor_from_config(Config.from_text("kind = kf\n"))
        assert kf.latency == LatencyProfile.constant(flags.pred_latency)
