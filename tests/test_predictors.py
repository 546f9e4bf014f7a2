import itertools
import json
import re

import numpy as np
import pytest

from latetrack.errors import ValidationError
from latetrack.motion import encode_motion, encode_motion_rows
from latetrack.network import PMWeights, init_weights
from latetrack import predictors
from latetrack.predictors import (DEFAULT_INIT_COV, DEFAULT_Q_DIAG, DEFAULT_R_DIAG,
                                  KalmanBoxPredictor, MotionNetPredictor,
                                  ZeroMotionPredictor, kf_fit_noise, kf_motion_batch,
                                  load_kf_noise, make_kf_state, save_kf_noise)
from latetrack.training import (OptimizerConfig, Windows, motion_l1_on_samples, pm_motion_batch,
                                sample_windows)
from latetrack.seeding import rng_for

from _oracles import (BoundingBox, TextbookKalman, apply_motion_row, box_from_center,
                      constant_factor_weights, kf_noise_gradient_fd, online_kalman)


def cv_track(vx, vy, n, size=10.0, start=(50.0, 50.0)):
    return [box_from_center(start[0] + vx * i, start[1] + vy * i, size, size)
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


def observe_track(p, track, frames):
    for f in frames:
        p.observe(f, track[f])
    return p


NOISES = [(DEFAULT_Q_DIAG, DEFAULT_R_DIAG),
          (np.linspace(0.002, 0.05, 8), np.array([0.3, 0.7, 2.0, 5.0])),
          (np.array([0.5, 0.1, 0.02, 0.3, 0.04, 0.2, 0.001, 0.05]),
           np.array([0.01, 4.0, 0.2, 30.0]))]


class TestAgainstTextbookFilter:
    def test_random_walk_agreement(self):
        # the online float filter, one observation at a time, against
        # the textbook filter; KalmanBoxPredictor.predictions over the
        # same run must give the online predictions bit for bit
        for q_diag, r_diag in NOISES:
            rng = np.random.default_rng(77)
            b0 = BoundingBox(10, 10, 20, 15)
            p = online_kalman(b0, q_diag, r_diag)
            oracle = TextbookKalman(b0, q_diag, r_diag, DEFAULT_INIT_COV)
            f = 0
            frames, boxes, online = [], [], []
            for _ in range(40):
                gap = int(rng.integers(1, 4))
                f += gap
                box = BoundingBox(10 + f + rng.normal(0, 2), 10 + rng.normal(0, 2),
                                  20 + abs(rng.normal(0, 1)), 15 + abs(rng.normal(0, 1)))
                online.append(p.predict(3))
                p.observe(f, box)
                oracle.update(box, gap)
                assert_matches_oracle(p, oracle, atol=1e-8)
                frames.append(f)
                boxes.append(box)
            got = [BoundingBox(*row) for row in p.predict(3)]
            want = oracle.predict(3)
            for g, w in zip(got, want):
                assert g.cx == pytest.approx(w.cx, abs=1e-8)
                assert g.w == pytest.approx(w.w, abs=1e-8)
            [got] = KalmanBoxPredictor(q_diag, r_diag).predictions([b0], [frames], [boxes], 3)
            assert got.tobytes() == np.array(online).tobytes()

    def test_gap_two_equals_textbook_gap_two(self):
        b0 = BoundingBox(0, 0, 10, 10)
        p = online_kalman(b0)
        oracle = TextbookKalman(b0, DEFAULT_Q_DIAG, DEFAULT_R_DIAG)
        meas = BoundingBox(4, 1, 10, 10)
        p.observe(2, meas)
        oracle.update(meas, gap=2)
        assert_matches_oracle(p, oracle, atol=1e-10)


class TestStackedRuns:
    """KalmanBoxPredictor filters a batch of runs as (R, 4) stacks; each
    run's predictions must be OnlineKalman's for that run alone, bit for
    bit, whatever the batch's size, lengths and gaps."""

    @staticmethod
    def runs(count, seed):
        """`count` random-walk runs of 0-30 observations at gaps 1-4."""
        rng = np.random.default_rng(seed)
        out = []
        for length in rng.integers(0, 31, size=count).tolist():
            b0 = BoundingBox(*rng.uniform(0, 100, 2), *rng.uniform(5, 40, 2))
            frames = np.cumsum(rng.integers(1, 5, size=length)).tolist()
            rows = [(b0.x + rng.normal(0, 3) + f, b0.y + rng.normal(0, 3),
                     b0.w * np.exp(rng.normal(0, 0.05)), b0.h * np.exp(rng.normal(0, 0.05)))
                    for f in frames]
            out.append((b0, frames, rows))
        return out

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("noise", range(len(NOISES)))
    def test_each_run_equals_the_online_filter(self, count, noise):
        q_diag, r_diag = NOISES[noise]
        for seed in range(4):
            runs = self.runs(count, seed=100 * count + seed)
            lengths = [len(frames) for _, frames, _ in runs]
            gaps = {g for _, frames, _ in runs for g in np.diff([0, *frames]).tolist()}
            got = KalmanBoxPredictor(q_diag, r_diag).predictions(*zip(*runs), horizon=3)
            assert [len(g) for g in got] == lengths
            for (b0, frames, rows), run in zip(runs, got):
                p = online_kalman(b0, q_diag, r_diag)
                want = []
                for f, row in zip(frames, rows):
                    want.append(p.predict(3))
                    p.observe(f, row)
                assert run.shape == (len(frames), 3, 4)
                assert run.tobytes() == np.array(want).tobytes()
        if count == 7:
            # the last batch mixes lengths and holds every gap 1-4
            assert len(set(lengths)) > 1 and gaps == {1, 2, 3, 4}


class TestKalmanBehavior:
    def test_near_zero_q_converges_on_static_box(self):
        b = BoundingBox(30, 40, 12, 8)
        p = observe_track(online_kalman(b, np.full(8, 1e-15)), [b] * 51, range(1, 51))
        pred = BoundingBox(*p.predict(1)[0])
        assert pred.cx == pytest.approx(b.cx, abs=1e-6)
        assert pred.cy == pytest.approx(b.cy, abs=1e-6)
        (_, vx, *_), (_, vy, *_) = p.filters[:2]
        assert abs(vx) < 1e-6 and abs(vy) < 1e-6

    def test_burn_in_tracks_constant_velocity(self):
        track = cv_track(1.0, -0.7, 22)
        p = observe_track(online_kalman(track[0]), track, range(1, 21))
        pred = BoundingBox(*p.predict(1)[0])
        assert pred.cx == pytest.approx(track[21].cx, abs=1e-3)
        assert pred.cy == pytest.approx(track[21].cy, abs=1e-3)

    def test_covariance_blocks_stay_psd(self):
        rng = np.random.default_rng(5)
        p = online_kalman(BoundingBox(0, 0, 10, 10))
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
        sluggish = online_kalman(b0, r_diag=np.full(4, 1e9))
        eager = online_kalman(b0, r_diag=np.full(4, 1e-9))
        far = BoundingBox(100, 0, 10, 10)
        sluggish.observe(1, far)
        eager.observe(1, far)
        assert abs(sluggish.filters[0][0] - b0.cx) < 1.0
        assert eager.filters[0][0] == pytest.approx(far.cx, abs=1e-6)

    def test_noiseless_cv_prediction_is_near_optimal(self):
        track = cv_track(2.0, 1.0, 40)
        p = observe_track(online_kalman(track[0]), track, range(1, 31))
        for n, row in enumerate(p.predict(3), start=31):
            pred = BoundingBox(*row)
            assert pred.cx == pytest.approx(track[n].cx, abs=1e-3)
            assert pred.cy == pytest.approx(track[n].cy, abs=1e-3)


def moving_filter(pos, vel):
    """A fresh filter at box center/size pos, given per-frame velocities."""
    p = online_kalman(box_from_center(*pos))
    p.filters = tuple((z, float(v), a, b, c) for (z, _, a, b, c), v in zip(p.filters, vel))
    return p


class TestKfPredict:
    def test_fresh_state_has_zero_velocity(self):
        b = BoundingBox(5, 5, 10, 10)
        assert centers(online_kalman(b).predict(3)) == [(b.cx, b.cy)] * 3

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
        # checked once per run, so a run with no observations fails too
        b0 = BoundingBox(0, 0, 10, 10)
        for frames in ([], [1]):
            with pytest.raises(ValidationError, match="horizon must be >= 1, got 0"):
                KalmanBoxPredictor().predictions([b0], [frames], [[b0] * len(frames)], 0)


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

    def test_bad_gap_rejected(self):
        b0 = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValidationError, match="got 0 -> 0"):
            KalmanBoxPredictor().predictions([b0], [[0]], [[b0]], 2)


class TestZeroMotion:
    def test_repeats_last_box(self):
        b = BoundingBox(1, 2, 3, 4)
        [got] = ZeroMotionPredictor().predictions([b], [[1]], [[BoundingBox(5, 6, 7, 8)]], 3)
        assert got.tolist() == [[list(b)] * 3]

    def test_bad_horizon(self):
        # checked once per run, so a run with no observations fails too
        b0 = BoundingBox(0, 0, 1, 1)
        for frames in ([], [1]):
            with pytest.raises(ValidationError, match="horizon must be >= 1, got 0"):
                ZeroMotionPredictor().predictions([b0], [frames], [[b0] * len(frames)], 0)


class TestOnlinePredictors:
    def test_zero_motion_predictor_follows_latest(self):
        b0, latest = BoundingBox(0, 0, 10, 10), BoundingBox(7, 7, 10, 10)
        rows = [BoundingBox(3, 3, 10, 10), latest, BoundingBox(9, 9, 10, 10)]
        [got] = ZeroMotionPredictor().predictions([b0], [[1, 2, 3]], [rows], 2)
        assert got[-1].tolist() == [list(latest), list(latest)]

    def test_observations_must_advance(self):
        b0 = BoundingBox(0, 0, 10, 10)
        rows = [BoundingBox(1, 0, 10, 10), BoundingBox(2, 0, 10, 10)]
        with pytest.raises(ValidationError, match="got 2 -> 2"):
            KalmanBoxPredictor().predictions([b0], [[2, 2]], [rows], 2)

    def test_motion_net_cold_start_is_zero_motion(self):
        w = init_weights(seed=3, k=3, n_heads=2, c_enc=8, c_dec=6)
        b0 = BoundingBox(5, 5, 10, 10)
        [(first, _)] = MotionNetPredictor(w).predictions(
            [b0], [[1, 2]], [[BoundingBox(9, 5, 10, 10)] * 2], 2)
        assert first.tolist() == [list(b0), list(b0)]

    def test_motion_net_horizon_is_fixed(self):
        w = PMWeights(k=3, n_heads=2, c_enc=8, c_dec=6)
        b0 = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValidationError, match="network predicts exactly 2 frames"):
            MotionNetPredictor(w).predictions([b0], [[1]], [[b0]], 3)

    def test_motion_net_window_slides(self):
        # constant velocity, bias-1 head: after k observations the window is
        # saturated and the prediction continues the track
        w = constant_factor_weights(k=2, n_heads=1, c_enc=8, c_dec=6)
        track = cv_track(2.0, 0.0, 6)
        # the prediction made before frame 4 is observed follows frames 1..3
        [run] = MotionNetPredictor(w).predictions([track[0]], [[1, 2, 3, 4]], [track[1:5]], 1)
        [row] = run[-1]
        assert BoundingBox(*row).cx == pytest.approx(track[4].cx, abs=1e-9)

    def test_motion_net_equals_the_window_path(self):
        # Each prediction must equal pm_motion_batch on the one-row
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
        [predicted] = MotionNetPredictor(w).predictions([track[0]], [frames[1:]],
                                                        [[track[f] for f in frames[1:]]], n)
        assert len(predicted) == len(frames) - 1
        for i, got in enumerate(predicted):
            # made before frames[i + 1] is observed, after frames[:i + 1]
            recent = frames[max(0, i - k):i + 1]
            pad = k + 1 - len(recent)
            rows = np.array([[(b.cx, b.cy, b.w, b.h)
                              for b in [track[0]] * pad + [track[g] for g in recent]]])
            row = Windows(rows, np.array([[1] * pad + np.diff(recent).tolist()]),
                          encode_motion_rows(rows[:, :-1], rows[:, 1:]), np.zeros((1, n, 4)))
            want = [tuple(BoundingBox(*apply_motion_row(track[frames[i]], m)))
                    for m in pm_motion_batch(w)(row)[0]]
            assert got.tolist() == [list(r) for r in want], \
                f"before frame {frames[i + 1]}, {i} observations"


MODELS = {"zero": ZeroMotionPredictor(), "kf": KalmanBoxPredictor(),
          "pm": MotionNetPredictor(constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6))}


class TestRunChecks:
    """Every predictor checks a run once: frames >= 1 that strictly
    increase and one row per frame, with one message for all three
    kinds."""

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("frames, message", [
        ([3, 1], "got 3 -> 1"), ([2, 2], "got 2 -> 2"), ([0, 1], "got 0 -> 0"),
        ([1, 2, 4, 4, 5], "got 4 -> 4")])
    def test_frames_must_advance(self, kind, frames, message):
        b0 = BoundingBox(10, 10, 20, 15)
        rows = [BoundingBox(10 + f, 10, 20, 15) for f in frames]
        with pytest.raises(ValidationError,
                           match=f"^observations must advance frames, {message}$"):
            MODELS[kind].predictions([b0], [frames], [rows], 2)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("count", [3, 7])
    def test_one_row_per_frame(self, kind, count):
        b0 = BoundingBox(10, 10, 20, 15)
        rows = [BoundingBox(10 + i, 10, 20, 15) for i in range(count)]
        with pytest.raises(ValidationError,
                           match=f"^a run needs one row per frame, got {count} rows for 5 frames$"):
            MODELS[kind].predictions([b0], [[1, 2, 3, 4, 5]], [rows], 2)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_a_run_without_observations_predicts_nothing(self, kind):
        b0 = BoundingBox(10, 10, 20, 15)
        out = MODELS[kind].predictions([b0, b0], [[], [1]], [[], [(11, 10, 20, 15)]], 2)
        assert [run.shape for run in out] == [(0, 2, 4), (1, 2, 4)]

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("runs, counts", [
        ((2, 1, 1), "2, 1 and 1"), ((1, 2, 1), "1, 2 and 1"), ((1, 1, 0), "1, 1 and 0")])
    def test_one_b0_frames_and_rows_per_run(self, kind, runs, counts):
        # a batch is never cut to its shortest list
        b0 = BoundingBox(10, 10, 20, 15)
        n_b0s, n_frames, n_rows = runs
        with pytest.raises(ValidationError, match=f"per run, got {counts}$"):
            MODELS[kind].predictions([b0] * n_b0s, [[1]] * n_frames,
                                     [[BoundingBox(11, 10, 20, 15)]] * n_rows, 2)


def manual_window_motions(windows, i, horizon, q_diag=None, r_diag=None):
    """Window i through a fresh online Kalman filter, re-encoded as
    motions from the window's anchor."""
    boxes = [box_from_center(*row) for row in windows.boxes[i].tolist()]
    p = online_kalman(boxes[0], q_diag, r_diag)
    f = 0
    for gap, box in zip(windows.intervals[i].tolist(), boxes[1:]):
        f += gap
        p.observe(f, box)
    anchor = box_from_center(*windows.boxes[i, -1].tolist())
    return [encode_motion(anchor, b) for b in p.predict(horizon)]


def window(boxes):
    """A hand-built unit-gap window over boxes (oldest first, anchor last)."""
    rows = np.array([[(b.cx, b.cy, b.w, b.h) for b in boxes]])
    k = len(boxes) - 1
    return Windows(rows, np.ones((1, k), dtype=int),
                   encode_motion_rows(rows[:, :-1], rows[:, 1:]), np.zeros((1, 1, 4)))


def gap_patterns(strides, k=3):
    """Every k-step gap pattern over strides."""
    return set(itertools.product(strides, repeat=k))


class TestKfMotionBatch:
    # long enough a track that its windows hold every gap pattern
    @pytest.mark.parametrize("strides, length", [((1, 2), 60), ((1, 2, 3), 100)])
    def test_matches_manual_predictor_run(self, strides, length):
        rng = np.random.default_rng(11)
        traj = [box_from_center(50 + 2 * i + rng.normal(0, 0.3),
                                        40 - i, 12 + 0.1 * i, 9) for i in range(length)]
        noises = [(None, None),
                  (np.linspace(0.002, 0.05, 8), np.array([0.3, 0.7, 2.0, 5.0]))]
        for horizon in (1, 2):
            samples = sample_windows(traj, 3, horizon, strides, rng_for(5, "w"))
            # every gap pattern, interleaved in one stack, so each
            # masked time update runs on some windows and not on others
            assert {tuple(gaps) for gaps in samples.intervals.tolist()} == gap_patterns(strides)
            for q_diag, r_diag in noises:
                out = kf_motion_batch(horizon, q_diag, r_diag)(samples)
                assert out.shape == (len(samples), horizon, 4)
                for i in range(len(samples)):
                    want = manual_window_motions(samples, i, horizon, q_diag, r_diag)
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
        boxes = [box_from_center(c * 1e308, 0.0, 10, 10) for c in (-1.5, -0.5, 0.5, 1.5)]
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="finite"):
            kf_motion_batch(1)(window(boxes))


# noise files that are not lists of finite numbers, as JSON text
MALFORMED_NOISE = {
    "digit_strings": '{"q": "12345678", "r": "1234"}',
    "numeric_strings": json.dumps({"q": ["0.02"] * 8, "r": [1.0] * 4}),
    "booleans": json.dumps({"q": [True] * 8, "r": [1.0] * 4}),
    "object": json.dumps({"q": {str(i): 0.02 for i in range(8)}, "r": [1.0] * 4}),
    "nested": json.dumps({"q": [[0.02]] * 8, "r": [1.0] * 4}),
    "null": json.dumps({"q": [0.02] * 7 + [None], "r": [1.0] * 4}),
    "nan": json.dumps({"q": [float("nan")] + [0.02] * 7, "r": [1.0] * 4}),
    "infinite": '{"q": [1e400, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02], "r": [1, 1, 1, 1]}',
    "int_past_float": json.dumps({"q": [10 ** 400] + [0.02] * 7, "r": [1.0] * 4}),
}


class TestNoiseFiles:
    def test_round_trip(self, tmp_path):
        q = np.linspace(0.001, 0.08, 8)
        r = np.array([0.5, 1.0, 2.0, 4.0])
        path = tmp_path / "noise.json"
        save_kf_noise(q, r, path)
        q2, r2 = load_kf_noise(path)
        assert np.array_equal(q, q2)
        assert np.array_equal(r, r2)

    @pytest.mark.parametrize("ref", [None, "0123456789ab"])
    def test_file_bytes_are_pinned(self, tmp_path, ref):
        """Sorted keys, two-space indent, floats as repr, the manifest ref
        as a key and one trailing newline."""
        path = tmp_path / "noise.json"
        save_kf_noise((0.02, 1e-2, 3, 4, 5, 6, 7, 8.5), (1, 2, 3, 4e-5), path, manifest_ref=ref)
        q = "".join(f"\n    {v}," for v in ("0.02", "0.01", "3.0", "4.0", "5.0", "6.0", "7.0"))
        head = f'\n  "manifest": "{ref}",' if ref else ""
        assert path.read_text() == (
            f'{{{head}\n  "q": [{q}\n    8.5\n  ],\n'
            '  "r": [\n    1.0,\n    2.0,\n    3.0,\n    4e-05\n  ]\n}\n')

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

    @pytest.mark.parametrize("text", MALFORMED_NOISE.values(), ids=MALFORMED_NOISE.keys())
    def test_only_lists_of_finite_numbers_load(self, tmp_path, text):
        path = tmp_path / "noise.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: not a fitted-noise file (JSON with q and r lists)")):
            load_kf_noise(path)

    def test_integers_load_as_floats(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"q": [1, 2, 3, 4, 5, 6, 7, 8], "r": [1, 0.5, 2, 3]}))
        q, r = load_kf_noise(path)
        assert q == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0) and r == (1.0, 0.5, 2.0, 3.0)
        assert {type(v) for v in q + r} == {float}


def noisy_tracks():
    rng = np.random.default_rng(9)
    return [[box_from_center(60 + 1.5 * i + rng.normal(0, 1.0),
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
        # the benchmark's make_kf_state(b0) starts the fit where a bare
        # KalmanBoxPredictor with the same noise does: from its Q and R
        # and DEFAULT_INIT_COV, with b0 unread
        tracks = noisy_tracks()
        cfg = OptimizerConfig(epochs=2, milestones=(1,), seed=4)
        fresh = kf_fit_noise(tracks, KalmanBoxPredictor(), cfg, max_windows=30)
        shim = kf_fit_noise(tracks, make_kf_state(tracks[0][5]), cfg, max_windows=30)
        assert np.array_equal(fresh[0], shim[0]) and np.array_equal(fresh[1], shim[1])

    def test_default_fit_leaves_constant_sizes_at_their_start(self):
        # constant-size tracks give no gradient on the w/h diagonals; with
        # weight decay the default fit would still pull each toward 1
        tracks = [[box_from_center(60 + 1.5 * i + rng.normal(0, 1.0), 60 + rng.normal(0, 1.0),
                                   14, 9) for i in range(40)]
                  for rng in map(np.random.default_rng, range(6))]
        init = KalmanBoxPredictor(np.linspace(0.002, 0.05, 8), (0.3, 0.7, 2.0, 5.0))
        q, r = kf_fit_noise(tracks, init, max_windows=100)
        sizes = [2, 3, 6, 7]
        assert q[sizes].tolist() == [init.q_diag[i] for i in sizes]
        assert r[2:].tolist() == list(init.r_diag[2:])
        assert q[:2].tolist() != list(init.q_diag[:2])

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

    @pytest.mark.parametrize("max_windows", [0, -5])
    def test_max_windows_below_one_rejected(self, max_windows):
        with pytest.raises(ValidationError, match=f"max_windows must be >= 1, got {max_windows}"):
            kf_fit_noise(noisy_tracks(), KalmanBoxPredictor(), max_windows=max_windows)


def sized_tracks():
    """Tracks whose boxes change size: one grows, one shrinks in a
    sawtooth toward 1 px, so some one-step rollouts fall below the 1 px
    clamp, and three drift slowly in size."""
    rng = np.random.default_rng(25)

    def track(center, size, n=40):
        return [box_from_center(*(np.array(center(i)) + rng.normal(0, 0.5, 2)),
                                        *(np.array(size(i)) + rng.normal(0, 0.05, 2)))
                for i in range(n)]
    return [track(lambda i: (50 + 2 * i, 40 - i), lambda i: (20 * 1.03 ** i, 12 + 0.5 * i)),
            track(lambda i: (80 - 1.5 * i, 60), lambda i: (6.1 - i % 6, 5.3 - 0.9 * (i % 5))),
            *(track(lambda i: (30 + 1.2 * i, 30 + 0.3 * i), lambda i: (15 - 0.2 * i, 10 + 0.15 * i))
              for _ in range(3))]


class TestNoiseGradient:
    """The fit's exact gradient against the central differences it
    replaced. FD's error is its truncation, far below rtol at h = 1e-4,
    and its roundoff, about eps * loss / h, which ATOL bounds."""

    ATOL = 1e-12
    THETA0 = np.log(np.concatenate([DEFAULT_Q_DIAG, DEFAULT_R_DIAG]))

    @pytest.mark.parametrize("strides", [(1, 2), (1, 2, 3)])
    @pytest.mark.parametrize("theta",
                             [THETA0, THETA0 + np.random.default_rng(3).normal(0, 0.5, 12)])
    def test_matches_central_differences_away_from_kinks(self, theta, strides):
        w = Windows.concat(sample_windows(t, 3, 1, strides, rng_for(7, "grad", i))
                           for i, t in enumerate(sized_tracks()))
        noise = np.exp(theta)
        pred = kf_motion_batch(1, noise[:8], noise[8:])(w)
        # FD's steps move a prediction by far less than 1e-4: no target
        # lies within FD's reach of a kept window's prediction
        w = w[np.abs(pred - w.targets).min(axis=(1, 2)) > 1e-4]
        pred = kf_motion_batch(1, noise[:8], noise[8:])(w)
        assert {tuple(gaps) for gaps in w.intervals.tolist()} == gap_patterns(strides)
        clamped = np.isclose(w.boxes[:, -1:, 2:] * np.exp(pred[..., 2:]), 1.0, rtol=1e-12, atol=0)
        assert clamped.sum() >= 3

        loss, exact = predictors._kf_noise_gradient(theta, w)
        assert loss == motion_l1_on_samples(w, kf_motion_batch(1, noise[:8], noise[8:]))
        assert np.all(exact != 0.0)
        np.testing.assert_allclose(exact, kf_noise_gradient_fd(theta, w), rtol=1e-6, atol=self.ATOL)

    def test_tangent_pass_predicts_kf_motion_batch_bits(self):
        w = Windows.concat(sample_windows(t, 3, 2, (1, 2), rng_for(8, "grad", i))
                           for i, t in enumerate(sized_tracks()))
        q, r = np.linspace(0.002, 0.05, 8), np.array([0.3, 0.7, 2.0, 5.0])
        pred, d_pred = predictors._kf_windows(w, 2, q, r, tangents=True)
        assert np.array_equal(pred, kf_motion_batch(2, q, r)(w))
        assert d_pred.shape == (3, *pred.shape)

    def test_fit_matches_a_central_difference_fit(self, monkeypatch):
        # only the gradient differs between the two fits; in log space
        # FD's error moves AdamW's steps by orders less than 1e-6
        cfg = OptimizerConfig(epochs=8, milestones=(), seed=2)
        exact = np.log(np.concatenate(kf_fit_noise(sized_tracks(), KalmanBoxPredictor(), cfg)))
        monkeypatch.setattr(predictors, "_kf_noise_gradient",
                            lambda t, w: (None, kf_noise_gradient_fd(t, w)))
        fd = np.log(np.concatenate(kf_fit_noise(sized_tracks(), KalmanBoxPredictor(), cfg)))
        assert np.abs(exact - self.THETA0).min() > 1e-2
        np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-6)
