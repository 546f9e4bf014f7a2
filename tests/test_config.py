import numpy as np
import pytest

from latetrack.boxes import BoundingBox
from latetrack.config import (Config, latency_from_config, predictor_from_config,
                              synthetic_spec_from_config, tracker_from_config)
from latetrack.errors import ValidationError
from latetrack.latency import CONSTANT, GAUSSIAN, REPLAY, LatencyProfile
from latetrack.network import init_weights, save_weights
from latetrack.predictors import (DEFAULT_Q_DIAG, DEFAULT_R_DIAG, KalmanBoxPredictor,
                                  MotionNetPredictor, save_kf_noise)
from latetrack.simulate import TrackerAdapter, load_trace, run_stream, save_trace
from latetrack.training import CONSTANT_VELOCITY
from latetrack.boxes import FrameClock, Sequence

from _oracles import linear_track


class TestParsing:
    def test_key_value_lines(self):
        cfg = Config.from_text("a = 1\n# comment\n\nb.c = hello\n")
        assert cfg.get_int("a") == 1
        assert cfg.get_str("b.c") == "hello"
        assert "a" in cfg and "missing" not in cfg
        assert cfg.has_group("b.")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError, match="key = value"):
            Config.from_text("just a line\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Config.from_text("a = 1\na = 2\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ValidationError):
            Config.from_text("= 3\n")

    def test_missing_required_key(self):
        cfg = Config.from_text("a = 1\n")
        with pytest.raises(ValidationError, match="missing required"):
            cfg.get_str("b")

    def test_typed_getters_with_defaults(self):
        cfg = Config.from_text("x = 2.5\nlist = 1, 2, 3\n")
        assert cfg.get_float("x") == 2.5
        assert cfg.get_float("absent", 7.0) == 7.0
        assert cfg.get_ints("list") == (1, 2, 3)
        assert cfg.get_ints("absent", (4,)) == (4,)

    def test_set_values_holds_only_the_keys_the_file_sets(self):
        cfg = Config.from_text("x = 2.5\nlist = 1, 2, 3\nn = 4\ng.y = 7\n")
        kinds = {"x": float, "list": (float,), "n": int, "absent": float, "also": (int,)}
        assert cfg.set_values(kinds) == {"x": 2.5, "list": (1.0, 2.0, 3.0), "n": 4}
        assert cfg.set_values({"list": (int,)}) == {"list": (1, 2, 3)}
        assert cfg.set_values({"y": int, "x": float}, "g.") == {"y": 7}
        assert cfg.set_values({}) == {}

    @pytest.mark.parametrize("text, kind", [("n = 2.5", int), ("n = 1, x", (float,)),
                                            ("n = ", float)])
    def test_set_values_names_a_bad_key(self, tmp_path, text, kind):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match=r"bad\.cfg: key 'n' needs a (int|float)"):
            Config.load(path).set_values({"n": kind})

    def test_wrong_type_rejected(self):
        cfg = Config.from_text("x = hello\n")
        with pytest.raises(ValidationError, match="needs a"):
            cfg.get_int("x")

    def test_load_names_the_file_in_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("x = nope\n")
        cfg = Config.load(path)
        with pytest.raises(ValidationError, match="run.cfg"):
            cfg.get_float("x")


class TestLatencyFromConfig:
    def test_constant(self):
        cfg = Config.from_text("latency.kind = constant\nlatency.mean = 0.05\n")
        profile = latency_from_config(cfg)
        assert profile.kind == CONSTANT
        assert profile.mean == 0.05

    def test_gaussian_aliases(self):
        text = "latency.mean = 0.04\nlatency.stddev = 0.01\nlatency.floor = 0.002\n"
        profile = latency_from_config(Config.from_text("latency.kind = gaussian\n" + text))
        assert profile.kind == GAUSSIAN
        assert (profile.mean, profile.stddev, profile.floor) == (0.04, 0.01, 0.002)
        # one spelling: the old alias is an unknown kind
        with pytest.raises(ValidationError, match="unknown latency kind 'gaussian_truncated'"):
            latency_from_config(Config.from_text("latency.kind = gaussian_truncated\n" + text))

    def test_replay_file(self, tmp_path):
        path = tmp_path / "lat.txt"
        path.write_text("0.01\n0.02\n0.03\n")
        cfg = Config.from_text(f"latency.kind = replay\nlatency.file = {path}\n")
        profile = latency_from_config(cfg)
        assert profile.kind == REPLAY
        assert profile.replay_values == (0.01, 0.02, 0.03)

    def test_bad_replay_file(self, tmp_path):
        path = tmp_path / "lat.txt"
        path.write_text("0.01\nnot-a-number\n")
        cfg = Config.from_text(f"latency.kind = replay\nlatency.file = {path}\n")
        with pytest.raises(ValidationError):
            latency_from_config(cfg)

    def test_unknown_kind(self):
        cfg = Config.from_text("latency.kind = uniform\n")
        with pytest.raises(ValidationError):
            latency_from_config(cfg)


class TestSyntheticFromConfig:
    def test_minimal(self):
        cfg = Config.from_text("kind = constant_velocity\ncount = 3\nlength = 40\n")
        spec = synthetic_spec_from_config(cfg)
        assert (spec.kind, spec.n_sequences, spec.length) == (CONSTANT_VELOCITY, 3, 40)
        assert spec.noise_sigma == 0.0

    def test_neither_rejected(self):
        cfg = Config.from_text("kind = constant_velocity\ncount = 1\n")
        with pytest.raises(ValidationError):
            synthetic_spec_from_config(cfg)

    def test_seed_override_wins(self):
        cfg = Config.from_text("kind = constant_velocity\ncount = 1\nlength = 10\nseed = 3\n")
        assert synthetic_spec_from_config(cfg).seed == 3
        assert synthetic_spec_from_config(cfg, seed_override=9).seed == 9

    def test_ranges_parse_as_pairs(self):
        cfg = Config.from_text(
            "kind = sinusoidal\ncount = 1\nlength = 10\namplitude_range = 5, 9\n")
        assert synthetic_spec_from_config(cfg).amplitude_range == (5.0, 9.0)


def cv_sequence(name="cv"):
    return Sequence(name, FrameClock(30),
                    tuple(linear_track(BoundingBox(10, 10, 12, 12), (2, 0), 10)))


class TestTrackerFromConfig:
    def test_oracle_noisy_default_behavior(self):
        cfg = Config.from_text(
            "latency.kind = constant\nlatency.mean = 0.05\nsigma_pos = 1.5\n")
        adapters = tracker_from_config(cfg, [cv_sequence("a"), cv_sequence("b")])
        assert len(adapters) == 2
        for adapter in adapters:
            assert isinstance(adapter, TrackerAdapter)
            assert adapter.trace is None
            assert adapter.sigma_pos == 1.5

    def test_unknown_behavior(self):
        cfg = Config.from_text("behavior = psychic\n")
        with pytest.raises(ValidationError):
            tracker_from_config(cfg, [cv_sequence()])

    def test_replay_binds_per_sequence_traces(self, tmp_path):
        seq = cv_sequence()
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.05)))
        save_trace(log, tmp_path / "cv.trace.csv")

        cfg = Config.from_text(f"behavior = replay_log\ntrace = {tmp_path}\n")
        [bound] = tracker_from_config(cfg, [seq])
        assert bound.trace == load_trace(tmp_path / "cv.trace.csv", "cv")
        assert cfg.files == {"trace:cv": tmp_path / "cv.trace.csv"}
        replayed = run_stream(seq, bound)
        assert replayed.frame.tolist() == log.frame.tolist()

    def test_replay_errors_name_the_sequence(self, tmp_path):
        # a 50 ms run skips frame 2, which a 20 ms replay asks for
        seq = cv_sequence()
        save_trace(run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.05))),
                   tmp_path / "cv.trace.csv")
        cfg = Config.from_text(f"behavior = replay_log\ntrace = {tmp_path}\n"
                               "latency.kind = constant\nlatency.mean = 0.02\n")
        [bound] = tracker_from_config(cfg, [seq])
        with pytest.raises(ValidationError, match="replay trace 'cv' has no box for frame 2"):
            run_stream(seq, bound)

    def test_replay_with_explicit_latency_overrides_durations(self, tmp_path):
        seq = cv_sequence()
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.05)))
        save_trace(log, tmp_path / "cv.trace.csv")
        cfg = Config.from_text(
            f"behavior = replay_log\ntrace = {tmp_path / 'cv.trace.csv'}\n"
            "latency.kind = constant\nlatency.mean = 0.02\n")
        [bound] = tracker_from_config(cfg, [seq])
        assert bound.latency.mean == 0.02


class TestPredictorFromConfig:
    def test_kf(self):
        cfg = Config.from_text("kind = kf\nhorizon = 3\n")
        adapter = predictor_from_config(cfg)
        assert type(adapter.model) is KalmanBoxPredictor
        assert (adapter.model.q_diag, adapter.model.r_diag) == (DEFAULT_Q_DIAG, DEFAULT_R_DIAG)
        assert adapter.horizon_n == 3
        assert adapter.latency.mean == 0.005

    def test_default_horizon_used_when_absent(self):
        cfg = Config.from_text("kind = zero\n")
        assert predictor_from_config(cfg).horizon_n == 2

    def test_pm_alias_loads_checkpoint(self, tmp_path):
        w = init_weights(k=3, n_heads=2, c_enc=8, c_dec=6, seed=1)
        path = tmp_path / "pm.json"
        save_weights(w, path)
        cfg = Config.from_text(f"kind = pm\nweights = {path}\n")
        adapter = predictor_from_config(cfg)
        predictor = adapter.model
        assert isinstance(predictor, MotionNetPredictor)
        assert np.array_equal(predictor.weights.flat, w.flat)
        # horizon defaults to the checkpoint's head count
        assert adapter.horizon_n == 2

    def test_kf_learned_loads_noise_file(self, tmp_path):
        path = tmp_path / "noise.json"
        save_kf_noise(np.full(8, 0.02), np.full(4, 1.5), path)
        cfg = Config.from_text(f"kind = kf_learned\nnoise = {path}\n")
        predictor = predictor_from_config(cfg).model
        assert isinstance(predictor, KalmanBoxPredictor)
        assert predictor.q_diag == (0.02,) * 8
        assert predictor.r_diag == (1.5,) * 4

    def test_explicit_predictor_latency(self):
        cfg = Config.from_text(
            "kind = kf\nlatency.kind = constant\nlatency.mean = 0.011\n")
        assert predictor_from_config(cfg).latency.mean == 0.011

    def test_unknown_kind_rejected(self):
        cfg = Config.from_text("kind = crystal_ball\n")
        with pytest.raises(ValidationError):
            predictor_from_config(cfg)
