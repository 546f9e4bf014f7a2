import json

import numpy as np
import pytest

from latetrack.boxes import BoundingBox
from latetrack.errors import ValidationError
from latetrack.motion import apply_motion_row, encode_motion, encode_motion_rows
from latetrack.network import PMWeights, init_weights
from latetrack.predictors import (DEFAULT_INIT_COV, DEFAULT_Q_DIAG, DEFAULT_R_DIAG,
                                  KalmanBoxPredictor, MotionNetPredictor,
                                  ZeroMotionPredictor, kf_fit_noise, kf_motion_batch,
                                  load_kf_noise, make_kf_state, save_kf_noise)
from latetrack.training import OptimizerConfig, Windows, pm_motion_batch, sample_windows
from latetrack.seeding import rng_for

from _oracles import TextbookKalman


def cv_track(vx, vy, n, size=10.0, start=(50.0, 50.0)):
    return [BoundingBox.from_center(start[0] + vx * i, start[1] + vy * i, size, size)
            for i in range(n)]


def centers(rows):
    return [(x + w / 2.0, y + h / 2.0) for x, y, w, h in rows]


def assert_matches_oracle(predictor, oracle, atol):
    """The four 2-state filters against the 8-state textbook filter: each
    coordinate i's (pos, vel) is entries i and i + 4 of oracle.x, and its
    (a, b, c) is the (i, i), (i, i + 4), (i + 4, i + 4) entries of
    oracle.P, which is exactly zero everywhere else."""
    pos, vel, a, b, c = np.array(predictor.filters).T
    i = np.arange(4)
    assert np.allclose(pos, oracle.x[:4], atol=atol)
    assert np.allclose(vel, oracle.x[4:], atol=atol)
    assert np.allclose(a, oracle.P[i, i], atol=atol)
    assert np.allclose(b, oracle.P[i, i + 4], atol=atol)
    assert np.allclose(b, oracle.P[i + 4, i], atol=atol)
    assert np.allclose(c, oracle.P[i + 4, i + 4], atol=atol)
    blocks = np.zeros((8, 8), dtype=bool)
    blocks[i, i] = blocks[i, i + 4] = blocks[i + 4, i] = blocks[i + 4, i + 4] = True
    assert np.all(oracle.P[~blocks] == 0.0)


def kalman(b0, *noise, **kw):
    """A KalmanBoxPredictor reset at b0."""
    p = KalmanBoxPredictor(*noise, **kw)
    p.reset(b0)
    return p


def observe_track(p, track, frames):
    for f in frames:
        p.observe(f, track[f])
    return p


NOISES = [(DEFAULT_Q_DIAG, DEFAULT_R_DIAG, DEFAULT_INIT_COV),
          (np.linspace(0.002, 0.05, 8), np.array([0.3, 0.7, 2.0, 5.0]), 3.0),
          (np.array([0.5, 0.1, 0.02, 0.3, 0.04, 0.2, 0.001, 0.05]),
           np.array([0.01, 4.0, 0.2, 30.0]), 250.0)]


class TestAgainstTextbookFilter:
    def test_random_walk_agreement(self):
        for q_diag, r_diag, init_cov in NOISES:
            rng = np.random.default_rng(77)
            b0 = BoundingBox(10, 10, 20, 15)
            p = kalman(b0, q_diag, r_diag, init_cov)
            oracle = TextbookKalman(b0, q_diag, r_diag, init_cov)
            f = 0
            for _ in range(40):
                gap = int(rng.integers(1, 4))
                f += gap
                box = BoundingBox(10 + f + rng.normal(0, 2), 10 + rng.normal(0, 2),
                                  20 + abs(rng.normal(0, 1)), 15 + abs(rng.normal(0, 1)))
                p.observe(f, box)
                oracle.update(box, gap)
                assert_matches_oracle(p, oracle, atol=1e-8)
            got = [BoundingBox(*row) for row in p.predict(3)]
            want = oracle.predict(3)
            for g, w in zip(got, want):
                assert g.cx == pytest.approx(w.cx, abs=1e-8)
                assert g.w == pytest.approx(w.w, abs=1e-8)

    def test_gap_two_equals_textbook_gap_two(self):
        b0 = BoundingBox(0, 0, 10, 10)
        p = kalman(b0)
        oracle = TextbookKalman(b0, DEFAULT_Q_DIAG, DEFAULT_R_DIAG)
        meas = BoundingBox(4, 1, 10, 10)
        p.observe(2, meas)
        oracle.update(meas, gap=2)
        assert_matches_oracle(p, oracle, atol=1e-10)


class TestKalmanBehavior:
    def test_near_zero_q_converges_on_static_box(self):
        b = BoundingBox(30, 40, 12, 8)
        p = observe_track(kalman(b, np.full(8, 1e-15)), [b] * 51, range(1, 51))
        pred = BoundingBox(*p.predict(1)[0])
        assert pred.cx == pytest.approx(b.cx, abs=1e-6)
        assert pred.cy == pytest.approx(b.cy, abs=1e-6)
        (_, vx, *_), (_, vy, *_) = p.filters[:2]
        assert abs(vx) < 1e-6 and abs(vy) < 1e-6

    def test_burn_in_tracks_constant_velocity(self):
        track = cv_track(1.0, -0.7, 22)
        p = observe_track(kalman(track[0]), track, range(1, 21))
        pred = BoundingBox(*p.predict(1)[0])
        assert pred.cx == pytest.approx(track[21].cx, abs=1e-3)
        assert pred.cy == pytest.approx(track[21].cy, abs=1e-3)

    def test_covariance_blocks_stay_psd(self):
        rng = np.random.default_rng(5)
        p = kalman(BoundingBox(0, 0, 10, 10))
        f = 0
        for i in range(200):
            box = BoundingBox(rng.normal(0, 5), rng.normal(0, 5), 10, 10)
            f += 1 + i % 3
            p.observe(f, box)
            for _, _, a, b, c in p.filters:
                assert a >= 0 and c >= 0
                assert a * c - b ** 2 >= -1e-9

    def test_huge_r_ignores_measurements(self):
        b0 = BoundingBox(0, 0, 10, 10)
        sluggish = kalman(b0, r_diag=np.full(4, 1e9))
        eager = kalman(b0, r_diag=np.full(4, 1e-9))
        far = BoundingBox(100, 0, 10, 10)
        sluggish.observe(1, far)
        eager.observe(1, far)
        assert abs(sluggish.filters[0][0] - b0.cx) < 1.0
        assert eager.filters[0][0] == pytest.approx(far.cx, abs=1e-6)

    def test_noiseless_cv_prediction_is_near_optimal(self):
        track = cv_track(2.0, 1.0, 40)
        p = observe_track(kalman(track[0]), track, range(1, 31))
        for n, row in enumerate(p.predict(3), start=31):
            pred = BoundingBox(*row)
            assert pred.cx == pytest.approx(track[n].cx, abs=1e-3)
            assert pred.cy == pytest.approx(track[n].cy, abs=1e-3)


def moving_filter(pos, vel):
    """A fresh filter at box center/size pos, given per-frame velocities."""
    p = kalman(BoundingBox.from_center(*pos))
    p.filters = tuple((z, float(v), a, b, c) for (z, _, a, b, c), v in zip(p.filters, vel))
    return p


class TestKfPredict:
    def test_fresh_state_has_zero_velocity(self):
        b = BoundingBox(5, 5, 10, 10)
        assert centers(kalman(b).predict(3)) == [(b.cx, b.cy)] * 3

    def test_unit_velocity_marches_right(self):
        p = moving_filter((6.0, 5.0, 10.0, 10.0), (1.0, 0.0, 0.0, 0.0))
        assert centers(p.predict(3)) == [(7.0, 5.0), (8.0, 5.0), (9.0, 5.0)]

    def test_horizon_composition(self):
        p = moving_filter((0.0, 0.0, 10.0, 10.0), (1.5, -0.5, 0.2, 0.1))
        long = p.predict(4)
        for i in range(4):
            assert centers(p.predict(i + 1))[-1] == centers(long)[: i + 1][-1]

    def test_sizes_clamped_at_one_pixel(self):
        p = moving_filter((0.0, 0.0, 3.0, 3.0), (0.0, 0.0, -2.0, -2.0))
        rows = p.predict(4)
        assert [w for _, _, w, _ in rows] == [1.0, 1.0, 1.0, 1.0]
        # the rollout itself keeps shrinking past the clamp
        assert centers(rows) == [(0.0, 0.0)] * 4

    def test_bad_horizon(self):
        p = kalman(BoundingBox(0, 0, 10, 10))
        with pytest.raises(ValidationError):
            p.predict(0)


BAD_NOISE = (0.0, -1.0, float("nan"), float("inf"))


class TestStateValidation:
    def test_nonpositive_noise_rejected(self):
        for bad in BAD_NOISE:
            for noise in ({"q_diag": np.full(8, bad)}, {"r_diag": np.full(4, bad)}):
                with pytest.raises(ValidationError):
                    KalmanBoxPredictor(**noise)

    def test_wrong_shapes_rejected(self):
        with pytest.raises(ValidationError):
            KalmanBoxPredictor(q_diag=np.ones(4))
        with pytest.raises(ValidationError):
            KalmanBoxPredictor(r_diag=np.ones(8))

    @pytest.mark.parametrize("init_cov", [0.0, -3.0, float("nan"), float("inf")])
    def test_bad_init_cov_rejected_by_make_kf_state(self, init_cov):
        with pytest.raises(ValidationError, match="initial covariance"):
            make_kf_state(BoundingBox(0, 0, 10, 10), init_cov=init_cov)

    @pytest.mark.parametrize("init_cov", [0.0, -3.0, float("nan"), float("inf")])
    def test_bad_init_cov_rejected_by_kalman_predictor(self, init_cov):
        with pytest.raises(ValidationError, match="initial covariance"):
            KalmanBoxPredictor(init_cov=init_cov)

    @pytest.mark.parametrize("init_cov", [0.0, -3.0, float("nan"), float("inf")])
    def test_bad_init_cov_rejected_by_kf_motion_batch(self, init_cov):
        # rejected when the predictor is built, before any window runs
        with pytest.raises(ValidationError, match="initial covariance"):
            kf_motion_batch(1, init_cov=init_cov)

    def test_bad_gap_rejected(self):
        p = kalman(BoundingBox(0, 0, 10, 10))
        with pytest.raises(ValidationError):
            p.observe(0, BoundingBox(0, 0, 10, 10))


class TestZeroMotion:
    def test_repeats_last_box(self):
        b = BoundingBox(1, 2, 3, 4)
        p = ZeroMotionPredictor()
        p.reset(b)
        assert p.predict(3) == [tuple(b)] * 3

    def test_bad_horizon(self):
        p = ZeroMotionPredictor()
        p.reset(BoundingBox(0, 0, 1, 1))
        with pytest.raises(ValidationError):
            p.predict(0)


class TestOnlinePredictors:
    def test_zero_motion_predictor_follows_latest(self):
        p = ZeroMotionPredictor()
        p.reset(BoundingBox(0, 0, 10, 10))
        latest = BoundingBox(7, 7, 10, 10)
        p.observe(1, BoundingBox(3, 3, 10, 10))
        p.observe(2, latest)
        assert p.predict(2) == [tuple(latest), tuple(latest)]

    def test_observations_must_advance(self):
        p = KalmanBoxPredictor()
        p.reset(BoundingBox(0, 0, 10, 10))
        p.observe(2, BoundingBox(1, 0, 10, 10))
        with pytest.raises(ValidationError):
            p.observe(2, BoundingBox(2, 0, 10, 10))

    def test_motion_net_cold_start_is_zero_motion(self):
        w = init_weights(seed=3, k=3, n_heads=2, c_enc=8, c_dec=6)
        p = MotionNetPredictor(w)
        b0 = BoundingBox(5, 5, 10, 10)
        p.reset(b0)
        assert p.predict(2) == [tuple(b0), tuple(b0)]

    def test_motion_net_horizon_is_fixed(self):
        w = PMWeights(k=3, n_heads=2, c_enc=8, c_dec=6)
        p = MotionNetPredictor(w)
        p.reset(BoundingBox(0, 0, 10, 10))
        with pytest.raises(ValidationError):
            p.predict(3)

    def test_motion_net_window_slides(self):
        # constant velocity, bias-1 head: after k observations the window is
        # saturated and the prediction continues the track
        from latetrack.network import constant_factor_weights

        w = constant_factor_weights(k=2, n_heads=1, c_enc=8, c_dec=6)
        track = cv_track(2.0, 0.0, 6)
        p = MotionNetPredictor(w)
        p.reset(track[0])
        for f in range(1, 4):
            p.observe(f, track[f])
        pred = BoundingBox(*p.predict(1)[0])
        assert pred.cx == pytest.approx(track[4].cx, abs=1e-9)

    def test_motion_net_equals_the_window_path(self):
        # Each online prediction must equal pm_motion_batch on the one-row
        # Windows of the last k+1 observed boxes, bit for bit. A cold
        # start pads the front with b0 at gap 1, i.e. zero motion.
        rng = np.random.default_rng(23)
        k, n = 3, 2
        w = init_weights(seed=5, k=k, n_heads=n, c_enc=16, c_dec=8)
        frames = np.concatenate([[0], np.cumsum(rng.integers(1, 4, size=9))]).tolist()
        assert len(set(np.diff(frames).tolist())) > 1
        walk = rng.normal(0.0, 2.0, size=(frames[-1] + 1, 4)).cumsum(axis=0)
        track = [BoundingBox(100 + x, 80 + y, 20 * np.exp(0.02 * sw), 15 * np.exp(0.02 * sh))
                 for x, y, sw, sh in walk.tolist()]
        p = MotionNetPredictor(w)
        p.reset(track[0])
        seen = [0]
        for f in frames:
            if f > 0:
                p.observe(f, track[f])
                seen.append(f)
            recent = seen[-(k + 1):]
            pad = k + 1 - len(recent)
            rows = np.array([[(b.cx, b.cy, b.w, b.h)
                              for b in [track[0]] * pad + [track[g] for g in recent]]])
            row = Windows(rows, np.array([[1] * pad + np.diff(recent).tolist()]),
                          encode_motion_rows(rows[:, :-1], rows[:, 1:]), np.zeros((1, n, 4)))
            want = [tuple(BoundingBox(*apply_motion_row(track[f], m)))
                    for m in pm_motion_batch(w)(row)[0]]
            assert p.predict(n) == want, f"frame {f}, {len(seen) - 1} observations"


def manual_window_motions(windows, i, horizon, q_diag=None, r_diag=None,
                          init_cov=DEFAULT_INIT_COV):
    """Window i through a fresh online KalmanBoxPredictor, re-encoded as
    motions from the window's anchor."""
    boxes = [BoundingBox.from_center(*row) for row in windows.boxes[i].tolist()]
    p = KalmanBoxPredictor(q_diag, r_diag, init_cov)
    p.reset(boxes[0])
    f = 0
    for gap, box in zip(windows.intervals[i].tolist(), boxes[1:]):
        f += gap
        p.observe(f, box)
    anchor = BoundingBox.from_center(*windows.boxes[i, -1].tolist())
    return [encode_motion(anchor, b) for b in p.predict(horizon)]


def window(boxes):
    """A hand-built unit-gap window over boxes (oldest first, anchor last)."""
    rows = np.array([[(b.cx, b.cy, b.w, b.h) for b in boxes]])
    k = len(boxes) - 1
    return Windows(rows, np.ones((1, k), dtype=int),
                   encode_motion_rows(rows[:, :-1], rows[:, 1:]), np.zeros((1, 1, 4)))


class TestKfMotionBatch:
    def test_matches_manual_predictor_run(self):
        rng = np.random.default_rng(11)
        traj = [BoundingBox.from_center(50 + 2 * i + rng.normal(0, 0.3),
                                        40 - i, 12 + 0.1 * i, 9) for i in range(60)]
        noises = [(None, None, DEFAULT_INIT_COV),
                  (np.linspace(0.002, 0.05, 8), np.array([0.3, 0.7, 2.0, 5.0]), 3.0)]
        for horizon in (1, 2):
            samples = sample_windows(traj, 3, horizon, (1, 2), rng_for(5, "w"))
            # every gap pattern, interleaved, so the per-pattern batches
            # must scatter back to the original window order
            assert len({tuple(gaps) for gaps in samples.intervals.tolist()}) == 8
            for q_diag, r_diag, init_cov in noises:
                out = kf_motion_batch(horizon, q_diag, r_diag, init_cov)(samples)
                assert out.shape == (len(samples), horizon, 4)
                for i in range(len(samples)):
                    want = manual_window_motions(samples, i, horizon, q_diag, r_diag, init_cov)
                    assert out[i] == pytest.approx(np.array(want), abs=1e-9)

    def test_nonpositive_noise_rejected(self):
        samples = window(cv_track(1.0, 0.5, 4))
        for bad in BAD_NOISE:
            with pytest.raises(ValidationError):
                kf_motion_batch(1, q_diag=np.full(8, bad))(samples)
            with pytest.raises(ValidationError):
                kf_motion_batch(1, r_diag=np.full(4, bad))(samples)

    def test_non_finite_prediction_rejected(self):
        # centers 1e308 apart are representable, but one more step of
        # the same velocity overflows
        boxes = [BoundingBox.from_center(c * 1e308, 0.0, 10, 10) for c in (-1.5, -0.5, 0.5, 1.5)]
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
            kf_motion_batch(1)(window(boxes))


class TestNoiseFiles:
    def test_round_trip(self, tmp_path):
        q = np.linspace(0.001, 0.08, 8)
        r = np.array([0.5, 1.0, 2.0, 4.0])
        path = tmp_path / "noise.json"
        save_kf_noise(q, r, path)
        q2, r2 = load_kf_noise(path)
        assert np.array_equal(q, q2)
        assert np.array_equal(r, r2)

    def test_wrong_lengths_rejected(self, tmp_path):
        path = tmp_path / "noise.json"
        with pytest.raises(ValidationError):
            save_kf_noise(np.ones(7), np.ones(4), path)
        path.write_text(json.dumps({"q": [1.0] * 8, "r": [1.0] * 3}))
        with pytest.raises(ValidationError):
            load_kf_noise(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_kf_noise(path)


def noisy_tracks():
    rng = np.random.default_rng(9)
    return [[BoundingBox.from_center(60 + 1.5 * i + rng.normal(0, 1.0),
                                     60 + rng.normal(0, 1.0), 14, 14)
             for i in range(25)] for _ in range(3)]


class TestFitNoise:
    def test_smoke_fit_returns_valid_diagonals(self):
        init = KalmanBoxPredictor()
        cfg = OptimizerConfig(epochs=2, milestones=(1,), seed=4)
        q, r = kf_fit_noise(noisy_tracks(), init, cfg, max_windows=30)
        assert q.shape == (8,) and r.shape == (4,)
        assert np.all(q > 0) and np.all(r > 0)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(r))

    def test_fit_reads_only_the_init_noise_and_init_cov(self):
        # an init that has observed frames has moved covariance blocks;
        # the fit must start from its init_cov, not from its progress
        tracks = noisy_tracks()
        cfg = OptimizerConfig(epochs=2, milestones=(1,), seed=4)
        fresh = kf_fit_noise(tracks, KalmanBoxPredictor(), cfg, max_windows=30)
        moved = observe_track(kalman(tracks[0][0]), tracks[0], (1, 2))
        assert moved.filters[0][2] != DEFAULT_INIT_COV
        after = kf_fit_noise(tracks, moved, cfg, max_windows=30)
        assert np.array_equal(fresh[0], after[0]) and np.array_equal(fresh[1], after[1])
        wide = kf_fit_noise(tracks, KalmanBoxPredictor(init_cov=250.0), cfg, max_windows=30)
        assert not (np.array_equal(fresh[0], wide[0]) and np.array_equal(fresh[1], wide[1]))

    def test_empty_tracks_rejected(self):
        init = KalmanBoxPredictor()
        with pytest.raises(ValidationError):
            kf_fit_noise([], init)

    def test_track_with_missing_box_rejected(self):
        tracks = [cv_track(1.0, 0.5, 20), cv_track(-1.0, 0.2, 20)]
        tracks[1][9] = None
        init = KalmanBoxPredictor()
        cfg = OptimizerConfig(epochs=1, milestones=(), seed=0)
        with pytest.raises(ValidationError, match="frame 9"):
            kf_fit_noise(tracks, init, cfg)
