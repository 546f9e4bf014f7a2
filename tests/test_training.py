import hashlib

import numpy as np
import pytest

from latetrack.boxes import FrameClock, Sequence, load_sequence, save_sequence
from latetrack.errors import DivergenceError, ValidationError
from latetrack.motion import encode_motion
from latetrack.network import forward_batch, init_weights
from latetrack.predictors import DEFAULT_K, KalmanBoxPredictor, kf_fit_noise, kf_motion_batch
from latetrack.seeding import derive_seed, rng_for
from latetrack.training import (CONSTANT_ACCELERATION, CONSTANT_VELOCITY, DEFAULT_STRIDE_SET,
                                RANDOM_WALK, SINUSOIDAL, AdamW, OptimizerConfig, SyntheticSpec,
                                Windows, gen_synthetic, motion_l1_on_samples, pm_motion_batch,
                                sample_windows, split_tracks, train_pm)

from _oracles import (BoundingBox, ReferenceAdamW, box_from_center, linear_track,
                      sample_windows_loop, weight_views, zero_motion_batch)

FIELDS = ("boxes", "intervals", "motions", "targets")


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
            OptimizerConfig(weight_decay=-0.1)
        with pytest.raises(ValidationError):
            OptimizerConfig(milestones=(0,))
        with pytest.raises(ValidationError):
            OptimizerConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            OptimizerConfig(**{field: value})


class TestAdamW:
    def test_matches_reference_across_milestone(self):
        cfg = OptimizerConfig(lr=0.05, weight_decay=0.02, epochs=10, milestones=(3,))
        rng = np.random.default_rng(2)
        params = rng.normal(size=17)
        ref_params = {"p": params.copy()}
        opt = AdamW(cfg)
        ref = ReferenceAdamW(0.05, (0.9, 0.999), 0.02, [3])
        for step in range(8):
            epoch = 1 + step // 2
            grads = rng.normal(size=params.shape)
            opt.step(params, grads, epoch)
            ref.step(ref_params, {"p": grads.copy()}, epoch)
            assert np.allclose(params, ref_params["p"], atol=1e-12)

    def test_zero_grads_decay_weights(self):
        cfg = OptimizerConfig(lr=0.1, weight_decay=0.5, epochs=5, milestones=())
        params = np.ones(3)
        AdamW(cfg).step(params, np.zeros(3), epoch=1)
        assert np.allclose(params, 1.0 - 0.1 * 0.5)

    def test_zero_grads_no_decay_is_identity(self):
        cfg = OptimizerConfig(lr=0.1, weight_decay=0.0, epochs=5, milestones=())
        params = np.full(3, 0.7)
        AdamW(cfg).step(params, np.zeros(3), epoch=1)
        assert np.allclose(params, 0.7)

    def test_shape_mismatch_rejected(self):
        opt = AdamW(OptimizerConfig(epochs=1, milestones=()))
        with pytest.raises(ValidationError):
            opt.step(np.ones(2), np.ones(3), epoch=1)


def varied_track(seed, length=40):
    """A random walk whose box sizes change every frame."""
    rng = np.random.default_rng(seed)
    cx = 200 + np.cumsum(rng.normal(0, 2.0, length))
    cy = 150 + np.cumsum(rng.normal(0, 2.0, length))
    w = 40 * np.exp(np.cumsum(rng.normal(0, 0.03, length)))
    h = 30 * np.exp(np.cumsum(rng.normal(0, 0.03, length)))
    return [box_from_center(*row) for row in zip(cx, cy, w, h)]


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
        assert np.all(samples.intervals == 1)
        anchors = range(2, len(traj) - 2)
        assert len(samples) == len(anchors)
        for row, anchor in zip(samples, anchors):
            box = traj[anchor]
            assert row.boxes[0, -1].tolist() == [box.cx, box.cy, box.w, box.h]
            for n in range(1, 3):
                want = encode_motion(traj[anchor], traj[anchor + n])
                assert row.targets[0, n - 1, 0] == pytest.approx(want[0])

    def test_strides_drawn_from_the_set(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 1), 30)
        samples = sample_windows(traj, 3, 1, (1, 2), rng_for(3, "w"))
        assert set(np.unique(samples.intervals).tolist()) == {1, 2}

    def test_deterministic_under_same_rng_seed(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 1), 20)
        a = sample_windows(traj, 3, 2, (1, 2), rng_for(9, "w"))
        b = sample_windows(traj, 3, 2, (1, 2), rng_for(9, "w"))
        for field in FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_bad_stride_set_rejected(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 0), 20)
        with pytest.raises(ValidationError):
            sample_windows(traj, 3, 1, (0, 1), rng_for(0, "w"))
        with pytest.raises(ValidationError):
            sample_windows(traj, 3, 1, (), rng_for(0, "w"))

    def test_sample_needs_targets(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 0), 20)
        with pytest.raises(ValidationError):
            sample_windows(traj, 3, 0, (1,), rng_for(0, "w"))

    @pytest.mark.parametrize("strides", [(1,), (1, 2), (1, 2, 3)])
    def test_matches_per_anchor_oracle(self, strides):
        for seed, (k, horizon) in enumerate((k, n) for k in (1, 3, 5) for n in (1, 2)):
            traj = varied_track(seed)
            got_rng, want_rng = rng_for(seed, "w"), rng_for(seed, "w")
            got = sample_windows(traj, k, horizon, strides, got_rng)
            want = sample_windows_loop(traj, k, horizon, strides, want_rng)
            for field, expected in zip(FIELDS, want):
                assert np.array_equal(getattr(got, field), expected), (k, horizon, field)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_missing_box_rejected(self):
        traj = linear_track(BoundingBox(0, 0, 10, 10), (1, 0), 20)
        traj[7] = None
        with pytest.raises(ValidationError, match="frame 7"):
            sample_windows(traj, 3, 1, (1,), rng_for(0, "w"))


class TestWindows:
    def test_rows_iterate_and_join_back(self):
        windows = sample_windows(varied_track(1), 3, 2, (1, 2), rng_for(1, "w"))
        rows = list(windows)
        assert len(rows) == len(windows) and all(len(r) == 1 for r in rows)
        joined = Windows.concat(rows)
        for field in FIELDS:
            assert np.array_equal(getattr(joined, field), getattr(windows, field))
        assert Windows.concat(windows) is windows

    def test_row_index_selects_windows(self):
        windows = sample_windows(varied_track(2), 3, 1, (1, 2), rng_for(2, "w"))
        picked = windows[np.array([4, 0, 7])]
        assert np.array_equal(picked.boxes, windows.boxes[[4, 0, 7]])
        assert np.array_equal(picked.targets, windows.targets[[4, 0, 7]])

    def test_mixed_sizes_rejected(self):
        traj = varied_track(3)
        parts = [sample_windows(traj, 3, 1, (1,), rng_for(0, "w")),
                 sample_windows(traj, 2, 1, (1,), rng_for(0, "w"))]
        with pytest.raises(ValidationError):
            Windows.concat(parts)
        with pytest.raises(ValidationError):
            Windows.concat([])

    def test_inconsistent_arrays_rejected(self):
        w = sample_windows(varied_track(4), 3, 1, (1,), rng_for(0, "w"))
        with pytest.raises(ValidationError):
            Windows(w.boxes[:, 1:], w.intervals, w.motions, w.targets)
        with pytest.raises(ValidationError):
            Windows(w.boxes, w.intervals, w.motions, w.targets[:, :0])
        with pytest.raises(ValidationError):
            w[:0]


class TestTrainPM:
    def test_smoke_run_improves_and_logs(self):
        groups = [cv_samples(vx, vy, length=20, seed=i)
                  for i, (vx, vy) in enumerate([(2, 0), (0, 2), (-1, 1)])]
        cfg = OptimizerConfig(epochs=3, milestones=(2,), seed=1)
        weights, history = train_pm(groups, cfg, c_enc=8, c_dec=6)
        assert weights.n_heads == 2
        assert [row[0] for row in history] == [1, 2, 3]
        assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in history)

    def test_deterministic(self):
        groups = [cv_samples(2, 1, length=16, seed=4)]
        cfg = OptimizerConfig(epochs=2, milestones=(), seed=6)
        w1, h1 = train_pm(groups, cfg, c_enc=8, c_dec=6)
        w2, h2 = train_pm(groups, cfg, c_enc=8, c_dec=6)
        assert h1 == h2
        for name, arr in weight_views(w1).items():
            assert np.array_equal(arr, weight_views(w2)[name])

    def test_zero_epochs_returns_initialization(self):
        groups = [cv_samples(1, 1, length=16, seed=2)]
        cfg = OptimizerConfig(epochs=0, milestones=(), seed=3)
        weights, history = train_pm(groups, cfg, c_enc=8, c_dec=6)
        assert history == []
        fresh = init_weights(3, 2, c_enc=8, c_dec=6, seed=derive_seed(3, "pm-init"))
        for name, arr in weight_views(weights).items():
            assert np.array_equal(arr, weight_views(fresh)[name])

    def test_absurd_lr_raises_divergence(self):
        groups = [cv_samples(2, 0, length=20, seed=8)]
        cfg = OptimizerConfig(lr=1e8, weight_decay=1.0, epochs=40, milestones=(), seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            train_pm(groups, cfg, c_enc=8, c_dec=6)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_pm([], OptimizerConfig(epochs=1, milestones=()))

    def test_validation_group_of_another_horizon_rejected(self):
        """One track sampled at N = 1 among N = 2 tracks: wherever the
        split puts it, training refuses before its first step."""
        tracks = gen_synthetic(SyntheticSpec(SINUSOIDAL, 10, 60, seed=3))
        by_horizon = {n: [sample_windows(s, 3, n, (1, 2), rng_for(0, "w", i))
                          for i, s in enumerate(tracks)] for n in (1, 2)}
        cfg = OptimizerConfig(epochs=1, milestones=(), seed=0)
        for odd in range(len(tracks)):
            groups = [by_horizon[1 if i == odd else 2][i] for i in range(len(tracks))]
            with pytest.raises(ValidationError, match=r"\(k, N\)"):
                train_pm(groups, cfg, c_enc=8, c_dec=6)

    def test_validation_loss_is_the_harness_l1(self):
        """With one track validation reuses the training windows; more
        than 512 of them, so a validation sum taken in chunks would show."""
        track = gen_synthetic(SyntheticSpec(SINUSOIDAL, 1, 540, seed=4))[0]
        windows = sample_windows(track, 3, 2, (1, 2), rng_for(0, "w"))
        assert len(windows) > 512
        cfg = OptimizerConfig(epochs=3, milestones=(), seed=5)
        best, history = train_pm([windows], cfg, c_enc=8, c_dec=6)
        assert min(row[2] for row in history) == motion_l1_on_samples(
            windows, pm_motion_batch(best))


class TestFitLoop:
    """What train_pm and kf_fit_noise share: split_tracks and
    fit_best_on_validation."""

    def test_absurd_lr_noise_fit_raises_divergence(self):
        # the first step sends a log-diagonal past exp's range
        tracks = gen_synthetic(SyntheticSpec(SINUSOIDAL, 4, 60, seed=3, noise_sigma=1.0))
        cfg = OptimizerConfig(lr=1e3, epochs=30, milestones=(), seed=0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="at step 1"):
            kf_fit_noise(tracks, KalmanBoxPredictor(), cfg, max_windows=50)

    @pytest.mark.parametrize("n, n_val", [(1, 0), (2, 1), (5, 1), (14, 1), (15, 2), (25, 2),
                                          (35, 4)])
    def test_split_holds_out_a_rounded_tenth(self, n, n_val):
        train, val = split_tracks(n, 7, "pm-split")
        assert len(val) == n_val
        assert sorted([*train, *val]) == list(range(n))
        assert np.array_equal(np.concatenate([val, train]),
                              rng_for(7, "pm-split").permutation(n))

    @pytest.mark.parametrize("q, r", [(None, None),
                                      (np.linspace(0.002, 0.05, 8), (0.3, 0.7, 2.0, 5.0))])
    def test_zero_step_noise_fit_returns_the_init(self, q, r):
        init = KalmanBoxPredictor(q, r)
        tracks = gen_synthetic(SyntheticSpec(SINUSOIDAL, 3, 40, seed=2, noise_sigma=0.5))
        fit_q, fit_r = kf_fit_noise(tracks, init, OptimizerConfig(epochs=0, milestones=()))
        assert fit_q.tolist() == list(init.q_diag) and fit_r.tolist() == list(init.r_diag)

    # at lr 100, and for the noise fit at lr 3 on these tracks, every
    # epoch ends worse on validation than the start, so the start is kept
    @pytest.mark.parametrize("lr, keeps_start", [(0.03, False), (100.0, True)])
    def test_train_pm_never_leaves_validation_worse(self, lr, keeps_start):
        tracks = gen_synthetic(SyntheticSpec(SINUSOIDAL, 5, 60, seed=3, noise_sigma=1.0))
        groups = [sample_windows(t, 3, 2, (1, 2), rng_for(0, "w", i)) for i, t in enumerate(tracks)]
        cfg = OptimizerConfig(lr=lr, epochs=4, milestones=(), seed=1)
        val_w = Windows.concat(groups[i] for i in split_tracks(5, cfg.seed, "pm-split")[1])
        start = init_weights(3, 2, c_enc=8, c_dec=6, seed=derive_seed(cfg.seed, "pm-init"))
        best, history = train_pm(groups, cfg, c_enc=8, c_dec=6)
        start_l1 = motion_l1_on_samples(val_w, pm_motion_batch(start))
        assert motion_l1_on_samples(val_w, pm_motion_batch(best)) <= start_l1
        assert (min(row[2] for row in history) > start_l1) == keeps_start
        assert np.array_equal(best.flat, start.flat) == keeps_start

    @pytest.mark.parametrize("kind, lr, keeps_start",
                             [(SINUSOIDAL, 0.03, False), (CONSTANT_ACCELERATION, 3.0, True)])
    def test_noise_fit_never_leaves_validation_worse(self, kind, lr, keeps_start):
        tracks = gen_synthetic(SyntheticSpec(kind, 5, 60, seed=3, noise_sigma=0.45))
        cfg = OptimizerConfig(lr=lr, epochs=4, milestones=(), seed=1)
        val_w = Windows.concat(
            sample_windows(tracks[i], DEFAULT_K, 1, DEFAULT_STRIDE_SET,
                           rng_for(cfg.seed, "kf-fit-windows", "val", i))
            for i in np.sort(split_tracks(5, cfg.seed, "kf-fit-split")[1]))
        init = KalmanBoxPredictor()
        q, r = kf_fit_noise(tracks, init, cfg, max_windows=len(val_w))
        start_l1 = motion_l1_on_samples(val_w, kf_motion_batch(1, init.q_diag, init.r_diag))
        assert motion_l1_on_samples(val_w, kf_motion_batch(1, q, r)) <= start_l1
        assert (q.tolist() == list(init.q_diag) and r.tolist() == list(init.r_diag)) == keeps_start


class TestMotionL1Harness:
    def test_exact_predictions_score_zero(self):
        samples = cv_samples()

        def oracle(batch):
            return batch.targets

        assert motion_l1_on_samples(samples, oracle) == 0.0

    def test_unit_offset_scores_one(self):
        samples = cv_samples()

        def off_by_one(batch):
            return batch.targets + 1.0

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
        xs = np.empty((len(samples), 3, 8))
        speeds = np.zeros((len(samples), 4))
        for i in range(len(samples)):
            for t in range(3):
                rates = samples.motions[i, t] / samples.intervals[i, t]
                xs[i, t] = np.concatenate([samples.motions[i, t], rates])
                speeds[i] += rates
        speeds /= 3
        factors, _ = forward_batch(w, xs)
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


class TestBenchCallingConvention:
    """The benchmark's fit-quality check flattens per-track windows into
    one list of rows and scores the fitted filter on it; that must equal
    scoring the per-track windows joined with Windows.concat."""

    def test_flattened_rows_equal_per_track_concat(self):
        seqs = gen_synthetic(SyntheticSpec(SINUSOIDAL, 3, 40, seed=6, noise_sigma=0.45))
        q, r = np.linspace(0.004, 0.03, 8), np.array([0.6, 0.9, 1.3, 2.0])

        def per_track():
            return [sample_windows(list(s.ground_truth), 3, 1, (1, 2),
                                   rng_for(6, "holdout", s.name)) for s in seqs]

        flat = [w for g in per_track() for w in g]
        joined = Windows.concat(per_track())
        for field in FIELDS:
            assert np.array_equal(getattr(Windows.concat(flat), field), getattr(joined, field))
        assert (motion_l1_on_samples(flat, kf_motion_batch(1, q, r))
                == motion_l1_on_samples(joined, kf_motion_batch(1, q, r)))

    def test_ground_truth_view_samples_like_the_column(self, tmp_path):
        # the benchmark's holdout check samples list(load_sequence(...).ground_truth)
        rng = np.random.default_rng(12)
        xy = 200.0 + np.cumsum(rng.normal(0.0, 2.0, size=(80, 2)), axis=0)
        wh = 30.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=(80, 2)), axis=0))
        save_sequence(Sequence("walk", FrameClock(30), np.hstack([xy, wh])), tmp_path / "walk.txt")
        seq = load_sequence(tmp_path / "walk.txt")
        runs = [(traj, rng_for(6, "holdout")) for traj in (list(seq.ground_truth), seq.boxes, seq)]
        got = [sample_windows(traj, 3, 2, (1, 2, 3), gen) for traj, gen in runs]
        for field in FIELDS:
            assert all(np.array_equal(getattr(w, field), getattr(got[0], field)) for w in got)
        assert len({str(gen.bit_generator.state) for _, gen in runs}) == 1


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
            cxs = [BoundingBox(*b).cx for b in seq.ground_truth]
            diffs = np.diff(cxs)
            assert np.allclose(diffs, diffs[0], atol=1e-9)

    def test_constant_acceleration_has_constant_curvature(self):
        for seq in gen_synthetic(SyntheticSpec(CONSTANT_ACCELERATION, 3, 20, seed=9)):
            cys = [BoundingBox(*b).cy for b in seq.ground_truth]
            second = np.diff(cys, n=2)
            assert np.allclose(second, second[0], atol=1e-9)

    def test_sizes_fixed_along_each_track(self):
        for seq in gen_synthetic(SyntheticSpec(SINUSOIDAL, 2, 15, seed=3)):
            ws = {BoundingBox(*b).w for b in seq.ground_truth}
            assert len(ws) == 1

    def test_noise_perturbs_centers_not_sizes(self):
        clean = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 1, 15, seed=4))[0]
        noisy = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 1, 15, seed=4,
                                            noise_sigma=0.5))[0]
        assert clean.ground_truth != noisy.ground_truth
        assert BoundingBox(*clean.ground_truth[0]).w == BoundingBox(*noisy.ground_truth[0]).w

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


def test_the_trained_fixture_is_pinned(trained_pm):
    """The session's trained network, bit for bit: the sha256 of its
    parameter vector (checkpoint order) and its final validation L1. A
    change to training's arithmetic, summation order included, shows
    here even where every tolerance still holds. The bytes are those of
    the BLAS build the suite runs on."""
    digest = hashlib.sha256(trained_pm["weights"].flat.tobytes()).hexdigest()
    assert digest.startswith("26ff51707b47251d"), digest
    assert trained_pm["history"][-1][2] == 0.013906280153786399
