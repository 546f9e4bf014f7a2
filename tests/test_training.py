import numpy as np
import pytest

from latetrack.boxes import BoundingBox
from latetrack.errors import DivergenceError, ValidationError
from latetrack.motion import encode_motion
from latetrack.network import forward_batch, history_input, init_weights
from latetrack.seeding import derive_seed, rng_for
from latetrack.training import (CONSTANT_ACCELERATION, CONSTANT_VELOCITY, RANDOM_WALK,
                                SINUSOIDAL, AdamW, OptimizerConfig, SyntheticSpec,
                                TrainSample, gen_synthetic, linear_track,
                                motion_l1_on_samples, pm_motion_batch, sample_windows,
                                train_pm, zero_motion_batch)

from _oracles import ReferenceAdamW


def cv_samples(vx=2.0, vy=-1.0, length=12, k=3, horizon=2, seed=0):
    traj = linear_track(BoundingBox(40, 40, 10, 10), (vx, vy), length)
    return sample_windows(traj, k, horizon, (1,), rng_for(seed, "w"))


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert (cfg.lr, cfg.epochs, cfg.milestones) == (0.03, 100, (30, 80))
        assert cfg.weight_decay == 0.01

    def test_lr_schedule_drops_tenfold_at_milestones(self):
        cfg = OptimizerConfig()
        assert cfg.lr_at(1) == 0.03
        assert cfg.lr_at(29) == 0.03
        assert cfg.lr_at(30) == pytest.approx(0.003)
        assert cfg.lr_at(79) == pytest.approx(0.003)
        assert cfg.lr_at(80) == pytest.approx(0.0003)
        assert cfg.lr_at(100) == pytest.approx(0.0003)

    def test_milestones_sorted_on_construction(self):
        assert OptimizerConfig(milestones=(80, 30)).milestones == (30, 80)

    def test_milestone_past_run_end_rejected(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(epochs=30, milestones=(30,))
        with pytest.raises(ValidationError):
            OptimizerConfig(epochs=10, milestones=(5, 12))

    def test_zero_epochs_allowed_without_milestones(self):
        assert OptimizerConfig(epochs=0, milestones=()).epochs == 0

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            OptimizerConfig(lr=0)
        with pytest.raises(ValidationError):
            OptimizerConfig(betas=(0.9, 1.0))
        with pytest.raises(ValidationError):
            OptimizerConfig(weight_decay=-0.1)
        with pytest.raises(ValidationError):
            OptimizerConfig(milestones=(0,))
        with pytest.raises(ValidationError):
            OptimizerConfig(batch_size=0)


class TestAdamW:
    def test_matches_reference_across_milestone(self):
        cfg = OptimizerConfig(lr=0.05, weight_decay=0.02, epochs=10, milestones=(3,))
        rng = np.random.default_rng(2)
        params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(5,))}
        ref_params = {k: v.copy() for k, v in params.items()}
        opt = AdamW(cfg)
        ref = ReferenceAdamW(0.05, (0.9, 0.999), 0.02, [3])
        for step in range(8):
            epoch = 1 + step // 2
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            opt.step(params, grads, epoch)
            ref.step(ref_params, {k: g.copy() for k, g in grads.items()}, epoch)
            for k in params:
                assert np.allclose(params[k], ref_params[k], atol=1e-12)

    def test_zero_grads_decay_weights(self):
        cfg = OptimizerConfig(lr=0.1, weight_decay=0.5, epochs=5, milestones=())
        params = {"a": np.ones(3)}
        AdamW(cfg).step(params, {"a": np.zeros(3)}, epoch=1)
        assert np.allclose(params["a"], 1.0 - 0.1 * 0.5)

    def test_zero_grads_no_decay_is_identity(self):
        cfg = OptimizerConfig(lr=0.1, weight_decay=0.0, epochs=5, milestones=())
        params = {"a": np.full(3, 0.7)}
        AdamW(cfg).step(params, {"a": np.zeros(3)}, epoch=1)
        assert np.allclose(params["a"], 0.7)

    def test_key_mismatch_rejected(self):
        opt = AdamW(OptimizerConfig(epochs=1, milestones=()))
        with pytest.raises(ValidationError):
            opt.step({"a": np.ones(2)}, {"b": np.ones(2)}, epoch=1)


class TestSampleWindows:
    def test_window_count_minimal_track(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 0), 5)
        samples = sample_windows(traj, 3, 1, (1,), rng_for(0, "w"))
        assert len(samples) == 1

    def test_too_short_rejected(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 0), 4)
        with pytest.raises(ValidationError):
            sample_windows(traj, 3, 1, (1,), rng_for(0, "w"))

    def test_linear_track_window_contents(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (2, 0), 8)
        samples = sample_windows(traj, 2, 2, (1,), rng_for(0, "w"))
        for s in samples:
            assert s.history.intervals == (1, 1)
            assert s.latest_box in traj
            anchor = traj.index(s.latest_box)
            for n, target in enumerate(s.targets, start=1):
                want = encode_motion(traj[anchor], traj[anchor + n])
                assert target.dx_over_w == pytest.approx(want.dx_over_w)

    def test_strides_drawn_from_the_set(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 1), 30)
        samples = sample_windows(traj, 3, 1, (1, 2), rng_for(3, "w"))
        seen = {d for s in samples for d in s.history.intervals}
        assert seen == {1, 2}

    def test_deterministic_under_same_rng_seed(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 1), 20)
        a = sample_windows(traj, 3, 2, (1, 2), rng_for(9, "w"))
        b = sample_windows(traj, 3, 2, (1, 2), rng_for(9, "w"))
        assert a == b

    def test_bad_stride_set_rejected(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 0), 20)
        with pytest.raises(ValidationError):
            sample_windows(traj, 3, 1, (0, 1), rng_for(0, "w"))
        with pytest.raises(ValidationError):
            sample_windows(traj, 3, 1, (), rng_for(0, "w"))

    def test_sample_needs_targets(self):
        with pytest.raises(ValidationError):
            TrainSample(cv_samples()[0].history, BoundingBox(0, 0, 1, 1), ())


class TestTrainPM:
    def test_smoke_run_improves_and_logs(self):
        groups = [cv_samples(vx, vy, length=20, seed=i)
                  for i, (vx, vy) in enumerate([(2, 0), (0, 2), (-1, 1)])]
        cfg = OptimizerConfig(epochs=3, milestones=(2,), seed=1)
        weights, history = train_pm(groups, 3, 2, cfg, c_enc=8, c_dec=6)
        assert weights.n_heads == 2
        assert [row[0] for row in history] == [1, 2, 3]
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in history)

    def test_deterministic(self):
        groups = [cv_samples(2, 1, length=16, seed=4)]
        cfg = OptimizerConfig(epochs=2, milestones=(), seed=6)
        w1, h1 = train_pm(groups, 3, 2, cfg, c_enc=8, c_dec=6)
        w2, h2 = train_pm(groups, 3, 2, cfg, c_enc=8, c_dec=6)
        assert h1 == h2
        for name, arr in w1.params().items():
            assert np.array_equal(arr, w2.params()[name])

    def test_zero_epochs_returns_initialization(self):
        groups = [cv_samples(1, 1, length=16, seed=2)]
        cfg = OptimizerConfig(epochs=0, milestones=(), seed=3)
        weights, history = train_pm(groups, 3, 2, cfg, c_enc=8, c_dec=6)
        assert history == []
        fresh = init_weights(3, 2, c_enc=8, c_dec=6, seed=derive_seed(3, "pm-init"))
        for name, arr in weights.params().items():
            assert np.array_equal(arr, fresh.params()[name])

    def test_absurd_lr_raises_divergence(self):
        groups = [cv_samples(2, 0, length=20, seed=8)]
        cfg = OptimizerConfig(lr=1e8, weight_decay=1.0, epochs=40, milestones=(), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train_pm(groups, 3, 2, cfg, c_enc=8, c_dec=6)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_pm([], 3, 2, OptimizerConfig(epochs=1, milestones=()))


class TestMotionL1Harness:
    def test_exact_predictions_score_zero(self):
        samples = cv_samples()

        def oracle(batch):
            return np.array([[t.as_tuple() for t in s.targets] for s in batch])

        assert motion_l1_on_samples(samples, oracle) == 0.0

    def test_unit_offset_scores_one(self):
        samples = cv_samples()

        def off_by_one(batch):
            return np.array([[t.as_tuple() for t in s.targets] for s in batch]) + 1.0

        assert motion_l1_on_samples(samples, off_by_one) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        samples = cv_samples(horizon=2)
        with pytest.raises(ValidationError):
            motion_l1_on_samples(samples, zero_motion_batch(3))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            motion_l1_on_samples([], zero_motion_batch(1))

    def test_pm_batch_matches_manual_forward(self):
        samples = cv_samples()
        w = init_weights(3, 2, c_enc=8, c_dec=6, seed=12)
        out = pm_motion_batch(w)(samples)
        xs = np.stack([history_input(s.history) for s in samples])
        factors, _ = forward_batch(w, xs)
        from latetrack.motion import average_speed

        speeds = np.array([average_speed(s.history).as_tuple() for s in samples])
        assert np.array_equal(out, factors * speeds[:, None, :])

    def test_pm_batch_rejects_windows_of_the_wrong_size(self):
        w = init_weights(3, 2, c_enc=8, c_dec=6, seed=12)
        for samples in (cv_samples(k=4), cv_samples(horizon=3)):
            with pytest.raises(ValidationError):
                pm_motion_batch(w)(samples)

    def test_zero_motion_batch_shape(self):
        samples = cv_samples()
        out = zero_motion_batch(2)(samples)
        assert out.shape == (len(samples), 2, 4)
        assert np.all(out == 0.0)


class TestSynthetic:
    def test_regeneration_is_identical(self):
        spec = SyntheticSpec(SINUSOIDAL, 4, 30, seed=5)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert [s.ground_truth for s in a] == [s.ground_truth for s in b]

    def test_per_index_stability(self):
        big = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 5, 25, seed=7))
        small = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 3, 25, seed=7))
        for x, y in zip(small, big):
            assert x.ground_truth == y.ground_truth

    def test_names_encode_kind_and_index(self):
        seqs = gen_synthetic(SyntheticSpec(RANDOM_WALK, 2, 10, seed=1))
        assert [s.name for s in seqs] == ["random_walk-000", "random_walk-001"]

    def test_constant_velocity_has_constant_steps(self):
        for seq in gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 3, 20, seed=9)):
            cxs = [b.cx for b in seq.ground_truth]
            diffs = np.diff(cxs)
            assert np.allclose(diffs, diffs[0], atol=1e-9)

    def test_constant_acceleration_has_constant_curvature(self):
        for seq in gen_synthetic(SyntheticSpec(CONSTANT_ACCELERATION, 3, 20, seed=9)):
            cys = [b.cy for b in seq.ground_truth]
            second = np.diff(cys, n=2)
            assert np.allclose(second, second[0], atol=1e-9)

    def test_sizes_fixed_along_each_track(self):
        for seq in gen_synthetic(SyntheticSpec(SINUSOIDAL, 2, 15, seed=3)):
            ws = {b.w for b in seq.ground_truth}
            assert len(ws) == 1

    def test_noise_perturbs_centers_not_sizes(self):
        clean = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 1, 15, seed=4))[0]
        noisy = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 1, 15, seed=4,
                                            noise_sigma=0.5))[0]
        assert clean.ground_truth != noisy.ground_truth
        assert clean.ground_truth[0].w == noisy.ground_truth[0].w

    def test_validation(self):
        with pytest.raises(ValidationError):
            SyntheticSpec("spiral", 1, 10)
        with pytest.raises(ValidationError):
            SyntheticSpec(CONSTANT_VELOCITY, 0, 10)
        with pytest.raises(ValidationError):
            SyntheticSpec(CONSTANT_VELOCITY, 1, 1)
        with pytest.raises(ValidationError):
            SyntheticSpec(CONSTANT_VELOCITY, 1, 10, noise_sigma=-1.0)


class TestLinearTrack:
    def test_translates_at_fixed_size(self):
        track = linear_track(BoundingBox(0, 0, 10, 20), (2, -1), 4)
        assert [b.x for b in track] == [0, 2, 4, 6]
        assert [b.y for b in track] == [0, -1, -2, -3]
        assert all(b.w == 10 and b.h == 20 for b in track)
