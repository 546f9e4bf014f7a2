"""Release gate: the toolkit's headline behaviors, each with a pinned
tolerance and a wall-clock budget. A budget miss is a regression even
when the numbers still agree, so every check times itself."""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import (CORPUS_ACCEL, PM_HORIZON, PM_K, PM_STRIDES, TRAIN_NOISE,
                      collect_windows)
from latetrack.boxes import FrameClock, Sequence, center_error, save_sequence
from latetrack.cli import main
from latetrack.evaluate import EstimateMatcher, sigma_grid
from latetrack.latency import LatencyProfile
from latetrack.motion import encode_motion
from latetrack.network import backward_batch, forward_batch, init_weights, l1_loss, save_weights
from latetrack.predictors import KalmanBoxPredictor, kf_fit_noise, kf_motion_batch
from latetrack.seeding import rng_for
from latetrack.simulate import TrackerAdapter, run_stream
from latetrack.training import (CONSTANT_ACCELERATION, CONSTANT_VELOCITY, SINUSOIDAL,
                                SyntheticSpec, gen_synthetic, motion_l1_on_samples,
                                pm_motion_batch, sample_windows)

from _oracles import (BoundingBox, apply_motion_row, central_differences,
                      constant_factor_weights, elae_scan, linear_track, output_rows, run_log,
                      weight_views, zero_motion_batch)


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def ten_frames():
    return Sequence("ten", FrameClock(30.0),
                    tuple(linear_track(BoundingBox(50, 50, 12, 12), (3.0, 1.5), 10)))


def test_deadline_matcher_agrees_with_exhaustive_scan_at_scale():
    with budget(10.0):
        rng = np.random.default_rng(42)
        grid = sigma_grid()
        for trial in range(100):
            n = int(rng.integers(4, 11))
            boxes = linear_track(BoundingBox(10, 5, 8, 8), (2.0, 1.0), n + 3)
            seq = Sequence(f"r{trial}", FrameClock(30.0), tuple(boxes[:n]))
            outputs = []
            for _ in range(int(rng.integers(1, 201))):
                kind = "raw" if rng.random() < 0.6 else "predicted"
                # predictions may target past the final frame; raw rows may not
                target = int(rng.integers(0, n + 2 if kind == "predicted" else n))
                avail = round(float(rng.uniform(0, n / 30 * 1.2)), 4)
                outputs.append((target, avail, kind, tuple(boxes[target])))
            log = run_log(seq.name, outputs=outputs)
            index = EstimateMatcher(seq, log).serve(np.arange(n)[:, None], grid)
            rows = output_rows(log)
            for f in range(n):
                for j, sigma in enumerate(grid):
                    i = index[f, j]
                    got = ((seq.b0, "initial_b0") if i < 0
                           else (BoundingBox(*log.boxes[i].tolist()), log.kind[i]))
                    assert got == elae_scan(seq, rows, f, sigma)


def test_real_time_slack_flips_to_the_current_frame_on_the_grid():
    # a tracker faster than one frame period serves f-1 at sigma=0 and
    # flips to f at the first grid point whose slack covers its latency
    with budget(5.0):
        grid = sigma_grid()
        for latency in (0.005, 0.010, 0.020, 0.025):
            seq = ten_frames()
            log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(latency)))
            assert log.frame.tolist() == list(range(10))
            index = EstimateMatcher(seq, log).serve(np.arange(1, 10)[:, None], grid)
            flip = next(i for i, s in enumerate(grid) if s >= latency * 30)
            for f in range(1, 10):
                for i in range(len(grid)):
                    want = f if i >= flip else f - 1
                    assert np.array_equal(log.boxes[index[f - 1, i]], seq.boxes[want])


def test_half_rate_tracker_schedule():
    with budget(1.0):
        log = run_stream(ten_frames(), TrackerAdapter(LatencyProfile.constant(0.05)))
        assert log.frame.tolist() == [0, 1, 3, 4, 6, 7, 9]


def test_motion_codec_round_trip_and_scale_invariance():
    with budget(5.0):
        rng = np.random.default_rng(7)
        n = 100_000
        cols = np.column_stack([
            rng.uniform(-100, 100, size=(n, 2)), rng.uniform(0.5, 50, size=(n, 2)),
            rng.uniform(-100, 100, size=(n, 2)), rng.uniform(0.5, 50, size=(n, 2)),
        ])
        for row in cols:
            a = BoundingBox(row[0], row[1], row[2], row[3])
            b = BoundingBox(row[4], row[5], row[6], row[7])
            x, y, w, h = apply_motion_row(a, encode_motion(a, b))
            assert abs(x - b.x) < 1e-12 and abs(y - b.y) < 1e-12
            assert abs(w - b.w) < 1e-12 and abs(h - b.h) < 1e-12
        for row in cols[:20_000]:
            a = BoundingBox(row[0], row[1], row[2], row[3])
            b = BoundingBox(row[4], row[5], row[6], row[7])
            m = encode_motion(a, b)
            for s in (0.1, 10.0):
                sa = BoundingBox(a.x * s, a.y * s, a.w * s, a.h * s)
                sb = BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s)
                ms = encode_motion(sa, sb)
                diff = np.abs(np.subtract(ms, m))
                assert diff.max() < 1e-12


def test_constant_velocity_is_exact_for_fixture_and_filter():
    with budget(5.0):
        # bias-only network: head n emits factor n, which continues any
        # constant-velocity window without error
        seqs = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 6, 60, seed=17,
                                           noise_sigma=0.0))
        windows = []
        for s in seqs:
            windows.extend(sample_windows(list(s.ground_truth), PM_K, PM_HORIZON,
                                          PM_STRIDES, rng_for(5, "w", s.name)))
        fixture = constant_factor_weights(PM_K, PM_HORIZON)
        assert motion_l1_on_samples(windows, pm_motion_batch(fixture)) < 1e-12

        track = linear_track(BoundingBox(40, 60, 16, 12), (1.0, -0.7), 26)
        # made before frame 21 is observed, after frames 1 .. 20
        [run] = KalmanBoxPredictor().predictions([track[0]], [range(1, 22)], [track[1:22]], 3)
        ahead = run[-1]
        for step, predicted in enumerate(ahead, start=1):
            assert center_error(predicted, track[20 + step]) < 1e-3


def test_analytic_gradients_match_finite_differences():
    with budget(30.0):
        for seed in range(5):
            w = init_weights(PM_K, PM_HORIZON, c_enc=8, c_dec=6, seed=seed)
            rng = np.random.default_rng(seed + 100)
            x = rng.normal(0, 0.3, size=(1, PM_K, 8))
            speeds = rng.normal(0, 0.2, size=(1, 1, 4))
            targets = rng.normal(0, 0.3, size=(1, PM_HORIZON, 4))

            def scalar():
                loss, _ = l1_loss(forward_batch(w, x)[0] * speeds, targets)
                return loss

            factors, cache = forward_batch(w, x, keep_cache=True)
            _, sign = l1_loss(factors * speeds, targets)
            grads = weight_views(backward_batch(w, cache, sign * speeds / sign.size))
            fd = central_differences(scalar, weight_views(w), h=1e-6)
            for name in fd:
                denom = max(np.max(np.abs(fd[name])), 1e-8)
                assert np.max(np.abs(grads[name] - fd[name])) / denom < 1e-4, \
                    f"seed {seed} {name}"


def test_trained_network_beats_the_baselines_where_it_should(trained_pm):
    t0 = time.monotonic()
    held_mix = (gen_synthetic(SyntheticSpec(CONSTANT_ACCELERATION, 8, 90, seed=909,
                                            noise_sigma=TRAIN_NOISE,
                                            accel_range=CORPUS_ACCEL))
                + gen_synthetic(SyntheticSpec(SINUSOIDAL, 8, 90, seed=808,
                                              noise_sigma=TRAIN_NOISE)))
    held_cv = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 8, 90, seed=303,
                                          noise_sigma=TRAIN_NOISE))
    held_sin = gen_synthetic(SyntheticSpec(SINUSOIDAL, 8, 90, seed=404,
                                           noise_sigma=TRAIN_NOISE))
    mix = collect_windows(held_mix, 31)
    cv = collect_windows(held_cv, 31)
    sin = collect_windows(held_sin, 31)

    predict_pm = pm_motion_batch(trained_pm["weights"])
    predict_zero = zero_motion_batch(PM_HORIZON)
    predict_kf = kf_motion_batch(PM_HORIZON)

    # halves the stay-put error on the mixed held-out set
    assert motion_l1_on_samples(mix, predict_pm) <= \
        0.5 * motion_l1_on_samples(mix, predict_zero)
    # stays within 10% of the filter on the filter's home turf
    assert motion_l1_on_samples(cv, predict_pm) <= \
        1.10 * motion_l1_on_samples(cv, predict_kf)
    # clearly ahead of the filter on oscillating motion
    assert motion_l1_on_samples(sin, predict_pm) <= \
        0.90 * motion_l1_on_samples(sin, predict_kf)

    elapsed = trained_pm["seconds"] + (time.monotonic() - t0)
    assert elapsed < 300.0, f"training plus scoring took {elapsed:.0f}s"


def test_prediction_recovers_latency_cost_end_to_end(trained_pm, tmp_path):
    with budget(120.0):
        full_dir = tmp_path / "seqs"
        sin_dir = tmp_path / "sin"
        full_dir.mkdir()
        sin_dir.mkdir()
        linear_ish = gen_synthetic(SyntheticSpec(CONSTANT_ACCELERATION, 35, 90,
                                                 seed=501, noise_sigma=0.0,
                                                 accel_range=CORPUS_ACCEL))
        oscillating = gen_synthetic(SyntheticSpec(SINUSOIDAL, 15, 90, seed=502,
                                                  noise_sigma=0.0))
        for s in linear_ish + oscillating:
            save_sequence(s, full_dir / f"{s.name}.txt")
        for s in oscillating:
            save_sequence(s, sin_dir / f"{s.name}.txt")

        ckpt = tmp_path / "pm.json"
        save_weights(trained_pm["weights"], ckpt)
        tracker = tmp_path / "tracker.cfg"
        tracker.write_text("behavior = oracle_noisy\nsigma_pos = 0.45\n"
                           "latency.kind = constant\nlatency.mean = 0.05\n")

        def compare(seq_dir, predictors, out):
            assert main(["compare", "--sequences", str(seq_dir),
                         "--tracker", str(tracker), "--predictors", predictors,
                         "--horizon", "2", "--seed", "13", "--out", str(out)]) == 0
            rows = {}
            for line in (Path(out) / "comparison.csv").read_text().splitlines():
                if line.startswith("#") or line.startswith("predictor"):
                    continue
                cells = line.split(",")
                rows[cells[0].split(":")[0]] = {"mauc": float(cells[3]),
                                                "extra": float(cells[5])}
            return rows

        overall = compare(full_dir, f"none,kf,pm:{ckpt}", tmp_path / "full")
        assert overall["kf"]["mauc"] > overall["none"]["mauc"]
        assert overall["none"]["extra"] == 0.0
        assert overall["kf"]["extra"] == pytest.approx(0.005)
        assert overall["pm"]["extra"] == pytest.approx(0.005)

        nonlinear = compare(sin_dir, f"kf,pm:{ckpt}", tmp_path / "sin_only")
        assert nonlinear["pm"]["mauc"] >= nonlinear["kf"]["mauc"]


def test_metric_fixtures_are_reproduced_exactly(toy_pair):
    with budget(1.0):
        seq, log = toy_pair
        dp, auc = EstimateMatcher(seq, log).scores([0.0, 0.5])
        assert dp[0] == pytest.approx(0.6, abs=1e-12)
        assert auc[0] == pytest.approx(26 / 105, abs=1e-12)
        assert dp[1] == pytest.approx(1.0, abs=1e-12)
        assert auc[1] == pytest.approx(1 / 3, abs=1e-12)

        ideal = run_log(seq.name, outputs=[
            (f, f / seq.clock.framerate_kappa, "raw", tuple(box))
            for f, box in enumerate(seq.ground_truth)])
        dp, auc = EstimateMatcher(seq, ideal).scores([0.0, 0.5, 0.98])
        assert dp.tolist() == [1.0] * 3
        assert auc == pytest.approx([20 / 21] * 3, abs=1e-12)


def test_noise_fit_shifts_toward_measurement_dominated():
    with budget(60.0):
        tracks = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 12, 90, seed=55,
                                             noise_sigma=2.0))
        init = KalmanBoxPredictor()
        q_fit, r_fit = kf_fit_noise([list(s.ground_truth) for s in tracks], init)

        before = np.mean(init.r_diag) / np.mean(init.q_diag)
        after = np.mean(r_fit) / np.mean(q_fit)
        assert after > before

        held = gen_synthetic(SyntheticSpec(CONSTANT_VELOCITY, 6, 90, seed=66,
                                           noise_sigma=2.0))
        windows = []
        for s in held:
            windows.extend(sample_windows(list(s.ground_truth), 3, 1, (1, 2),
                                          rng_for(9, "w", s.name)))
        err_init = motion_l1_on_samples(windows, kf_motion_batch(1, init.q_diag,
                                                                 init.r_diag))
        err_fit = motion_l1_on_samples(windows, kf_motion_batch(1, q_fit, r_fit))
        assert err_fit <= err_init
