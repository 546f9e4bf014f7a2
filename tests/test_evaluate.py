from fractions import Fraction

import numpy as np
import pytest

from latetrack.boxes import FrameClock, Sequence, center_error
from latetrack.errors import ValidationError
from latetrack.evaluate import EstimateMatcher, EvalCurve, sigma_grid, sweep
from latetrack.latency import LatencyProfile
from latetrack.predictors import KalmanBoxPredictor, MotionNetPredictor
from latetrack.simulate import PredictorAdapter, TrackerAdapter, run_stream, run_streams
from latetrack.training import RANDOM_WALK, SINUSOIDAL, SyntheticSpec, gen_synthetic

from _oracles import (BoundingBox, box_from_center, constant_factor_weights, dense_scores,
                      elae_scan, linear_track, output_rows, run_log, score_scan)


def cv_sequence(n=10, vx=2.0, kappa=30.0, name="cv"):
    return Sequence(name, FrameClock(kappa),
                    tuple(linear_track(BoundingBox(50, 50, 12, 12), (vx, 0.0), n)))


def output(target, box, avail, kind):
    return (target, avail, kind, tuple(box))


def raw(target, box, avail):
    return output(target, box, avail, "raw")


def log_of(name, *outputs):
    return run_log(name, outputs=outputs)


def perfect_log(seq):
    return log_of(seq.name, *[raw(f, b, f / seq.clock.framerate_kappa)
                              for f, b in enumerate(seq.ground_truth)])


def as_scanned(seq, log, i):
    """(box, kind) of log index i as elae_scan words it; -1 is b0."""
    if i < 0:
        return seq.b0, "initial_b0"
    return BoundingBox(*log.boxes[i].tolist()), str(log.kind[i])


def served(seq, log, f, sigma):
    return as_scanned(seq, log, EstimateMatcher(seq, log).serve(f, sigma))


def score(seq, log, sigma):
    """(DP, AUC) of the log at one permitted latency."""
    dp, auc = EstimateMatcher(seq, log).scores([sigma])
    return float(dp[0]), float(auc[0])


class TestQueryRange:
    def test_range(self):
        seq = cv_sequence(5)
        matcher = EstimateMatcher(seq, perfect_log(seq))
        assert matcher.serve(4, [0.0, 0.98]).tolist() == [4, 4]
        for sigmas, first_bad in ((1.0, "1.0"), ([0.5, -0.01, 1.0], "-0.01")):
            with pytest.raises(ValidationError, match=rf"sigma must be in \[0, 1\), got {first_bad}"):
                matcher.serve(0, sigmas)

    def test_frames_outside_the_sequence_rejected(self):
        seq = cv_sequence(5)
        matcher = EstimateMatcher(seq, perfect_log(seq))
        for frames, first_bad in ((-1, -1), ([0, 5, -1], 5)):
            with pytest.raises(ValidationError, match=f"frame {first_bad} outside sequence 0..4"):
                matcher.serve(frames, [[0.0], [0.5]])

    def test_scores_rejects_sigma_outside_the_range(self):
        seq = cv_sequence(5)
        matcher = EstimateMatcher(seq, perfect_log(seq))
        assert matcher.scores([0.0, 0.98])[0].tolist() == [1.0, 1.0]
        for sigmas, first_bad in (([1.0], "1.0"), ([0.5, -0.01, 1.0], "-0.01")):
            with pytest.raises(ValidationError, match=f"got {first_bad}"):
                matcher.scores(sigmas)


class TestSigmaGrid:
    def test_fifty_points_from_zero(self):
        grid = sigma_grid()
        assert len(grid) == 50
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(0.98)
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestMatchLAE:
    def test_slow_tracker_serves_stale_output(self):
        # 50 ms per frame at 30 fps: by frame 2's capture only frame 0 is out
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.05)))
        assert served(seq, log, 2, 0.0) == (seq.ground_truth[0], "raw")

    def test_frame_zero_has_only_the_initial_box(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.05)))
        assert EstimateMatcher(seq, log).serve(0, 0.0) == -1
        assert served(seq, log, 0, 0.0) == (seq.b0, "initial_b0")

    def test_realtime_tracker_is_one_frame_behind(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.02)))
        for f in range(1, 10):
            assert served(seq, log, f, 0.0)[0] == seq.ground_truth[f - 1]


class TestMatchELAE:
    def test_sigma_zero_is_the_online_match(self):
        # strictly online: the newest instant no later than the capture
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.037)))
        frames = np.arange(10)
        got = EstimateMatcher(seq, log).serve(frames, 0.0)
        for f, i in zip(frames.tolist(), got.tolist()):
            ready = log.available_at[log.available_at <= f / seq.clock.framerate_kappa]
            assert (i < 0) == (not len(ready))
            if i >= 0:
                assert log.available_at[i] == ready.max()

    def test_slack_flips_realtime_match_to_the_current_frame(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.02)))
        # 20 ms is 0.6 frame periods; just below the slack is too small
        assert served(seq, log, 5, 0.58)[0] == seq.ground_truth[4]
        assert served(seq, log, 5, 0.62)[0] == seq.ground_truth[5]

    def test_prediction_targeting_the_frame_wins_the_tie(self):
        seq = cv_sequence(6)
        stale = raw(1, seq.ground_truth[1], 0.05)
        hit = output(3, seq.ground_truth[3], 0.05, "predicted")
        over = output(5, seq.ground_truth[5], 0.05, "predicted")
        log = log_of("cv", stale, hit, over)
        assert EstimateMatcher(seq, log).serve(3, 0.9) == 1
        assert served(seq, log, 3, 0.9) == (seq.ground_truth[3], "predicted")

    def test_future_targets_only_fall_back_to_the_smallest_overshoot(self):
        # nothing at or before f: the matcher wants the largest target,
        # which at least is the output computed latest
        seq = cv_sequence(8)
        a = raw(4, seq.ground_truth[4], 0.05)
        b = raw(6, seq.ground_truth[6], 0.05)
        assert served(seq, log_of("cv", a, b), 1, 0.9)[0] == seq.ground_truth[6]

    def test_equal_instant_equal_target_prefers_later_log_entry(self):
        seq = cv_sequence(6)
        first = raw(2, seq.ground_truth[2], 0.05)
        second = raw(2, BoundingBox(90, 90, 12, 12), 0.05)
        assert EstimateMatcher(seq, log_of("cv", first, second)).serve(2, 0.9) == 1

    def test_newer_instant_beats_better_target(self):
        seq = cv_sequence(8)
        exact = raw(5, seq.ground_truth[5], 0.05)
        newer = raw(2, seq.ground_truth[2], 0.06)
        assert served(seq, log_of("cv", exact, newer), 5, 0.9)[0] == seq.ground_truth[2]

    def test_matched_availability_is_monotone_in_sigma(self):
        seq = cv_sequence(12)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.041)))
        index = EstimateMatcher(seq, log).serve(np.arange(12)[:, None], sigma_grid())
        avail = np.where(index < 0, -1.0, log.available_at[index])
        assert np.all(np.diff(avail, axis=1) >= 0)

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(123)
        seq = cv_sequence(8)
        for trial in range(5):
            outputs = []
            for _ in range(12):
                target = int(rng.integers(0, 8))
                avail = round(float(rng.uniform(0, 0.3)), 3)
                kind = "raw" if rng.random() < 0.5 else "predicted"
                outputs.append(output(target, seq.ground_truth[target], avail, kind))
            log = log_of("cv", *outputs)
            rows = output_rows(log)
            for f in range(8):
                for sigma in (0.0, 0.24, 0.5, 0.98):
                    assert served(seq, log, f, sigma) == elae_scan(seq, rows, f, sigma)

    def test_broadcast_serve_of_a_predicted_run_equals_the_scan(self):
        seq = Sequence("sin", FrameClock(30.0), tuple(
            BoundingBox(50 + 20 * np.sin(f / 5), 40 + f, 12 + np.cos(f / 7), 10)
            for f in range(40)))
        trk = TrackerAdapter(LatencyProfile.gaussian(0.05, 0.01), sigma_pos=0.5)
        pred = PredictorAdapter(KalmanBoxPredictor(), 2, LatencyProfile.constant(0.005))
        log = run_stream(seq, trk, pred, seed=4)
        grid = np.asarray(sigma_grid())
        index = EstimateMatcher(seq, log).serve(np.arange(len(seq))[:, None], grid[None, :])
        assert index.shape == (len(seq), len(grid)) and index.dtype == np.intp
        kinds, rows = set(), output_rows(log)
        for f in range(len(seq)):
            for j, sigma in enumerate(grid.tolist()):
                want = elae_scan(seq, rows, f, sigma)
                assert as_scanned(seq, log, index[f, j]) == want
                kinds.add(want[1])
        assert kinds == {"initial_b0", "raw", "predicted"}

    def test_out_of_range_frame_rejected(self):
        seq = cv_sequence(5)
        with pytest.raises(ValidationError):
            EstimateMatcher(seq, perfect_log(seq)).serve(5, 0.0)

    def test_raw_target_beyond_sequence_rejected(self):
        seq = cv_sequence(5)
        bad = raw(7, BoundingBox(0, 0, 10, 10), 0.1)
        with pytest.raises(ValidationError):
            EstimateMatcher(seq, log_of("cv", bad))


class TestScoreRun:
    def test_perfect_log_hits_the_ceiling(self):
        seq = cv_sequence(10)
        dp, auc = score(seq, perfect_log(seq), 0.0)
        assert dp == 1.0
        assert auc == pytest.approx(20 / 21)

    def test_half_exact_half_disjoint(self):
        # frame 1's only estimate is b0: disjoint but centers 12 px apart
        seq = Sequence("s", FrameClock(30), (BoundingBox(0, 0, 10, 10),
                                             BoundingBox(12, 0, 10, 10)))
        dp, auc = score(seq, log_of("s"), 0.5)
        assert dp == 1.0
        assert auc == pytest.approx(10 / 21)

    def test_nothing_matches_anywhere(self):
        seq = Sequence("s", FrameClock(30), (BoundingBox(0, 0, 10, 10),
                                             BoundingBox(100, 100, 10, 10)))
        far = raw(1, BoundingBox(200, 0, 10, 10), 0.0)
        dp, auc = score(seq, log_of("s", far, far), 0.9)
        assert dp == 0.0
        assert auc == 0.0

    def test_unannotated_frames_are_excluded(self):
        boxes = tuple(linear_track(BoundingBox(0, 0, 10, 10), (2, 0), 4))
        with_gap = Sequence("g", FrameClock(30), (boxes[0], None, boxes[2], boxes[3]))
        log = log_of("g", raw(0, boxes[0], 0.0),
                     raw(1, BoundingBox(500, 500, 10, 10), 0.0333),
                     raw(2, boxes[2], 0.0667), raw(3, boxes[3], 0.1))
        dp, auc = score(with_gap, log, 0.0)
        # the poisoned frame-1 output never reaches a scored frame
        assert dp == pytest.approx(2 / 3)

    def test_toy_fixture_strict_online(self, toy_pair):
        seq, log = toy_pair
        dp, auc = score(seq, log, 0.0)
        assert dp == pytest.approx(0.6, abs=1e-12)
        assert auc == pytest.approx(float(Fraction(26, 105)), abs=1e-12)

    def test_toy_fixture_half_frame_slack(self, toy_pair):
        seq, log = toy_pair
        dp, auc = score(seq, log, 0.5)
        assert dp == pytest.approx(1.0, abs=1e-12)
        assert auc == pytest.approx(float(Fraction(1, 3)), abs=1e-12)


class TestEvalCurve:
    def test_aggregate_is_the_mean(self):
        values = [0.5] * 25 + [1.0] * 25
        assert EvalCurve(values).aggregate == pytest.approx(0.75)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            EvalCurve([0.5] * 49)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValidationError):
            EvalCurve([1.5] * 50)


class TestSweep:
    def test_perfect_logs_make_flat_curves(self):
        seqs = [cv_sequence(8, name="a"), cv_sequence(8, vx=1.0, name="b")]
        auc_curve, dp_curve = sweep(seqs, [perfect_log(s) for s in seqs])
        assert set(dp_curve.values) == {1.0}
        assert auc_curve.values[0] == pytest.approx(20 / 21)
        assert len(set(auc_curve.values)) == 1

    def test_slack_never_hurts_a_realtime_run(self):
        seq = cv_sequence(20)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.02)))
        auc_curve, _ = sweep([seq], [log])
        assert all(b >= a - 1e-12 for a, b in zip(auc_curve.values, auc_curve.values[1:]))
        # the 0.6-frame latency flip shows up as a jump on the grid
        assert auc_curve.values[35] > auc_curve.values[25]

    def test_mismatched_lengths_rejected(self):
        seq = cv_sequence(8)
        with pytest.raises(ValidationError):
            sweep([seq], [])
        with pytest.raises(ValidationError):
            sweep([], [])


def perturbed(box, rng):
    """An estimate near box: a random shift and scale, or one of the
    exact ties (a 20 px center offset, a doubled size whose IoU is 0.25,
    the box itself, a one-ulp nudge whose IoU can round past 1)."""
    pick = rng.random()
    if pick < 0.15:
        return BoundingBox(box.x + 20.0, box.y, box.w, box.h)
    if pick < 0.3:
        return BoundingBox(box.x, box.y, 2 * box.w, 2 * box.h)
    if pick < 0.35:
        return box
    if pick < 0.45:
        return BoundingBox(np.nextafter(box.x, np.inf), box.y, np.nextafter(box.w, 0), box.h)
    dx, dy = rng.normal(0.0, 12.0, size=2)
    sw, sh = rng.uniform(0.6, 1.5, size=2)
    return BoundingBox(box.x + dx, box.y + dy, box.w * sw, box.h * sh)


def random_case(rng, name, n_outputs):
    """A sequence with unannotated frames and a log of perturbed raw and
    predicted outputs: predictions may target past the end, and
    availability instants are rounded so that many tie."""
    n = int(rng.integers(6, 30))
    track = linear_track(BoundingBox(40, 30, 16, 12), tuple(rng.uniform(-3, 3, size=2)), n + 4)
    truth = tuple(b if f == 0 or rng.random() > 0.2 else None for f, b in enumerate(track[:n]))
    seq = Sequence(name, FrameClock(30.0), truth)
    outputs = []
    for _ in range(n_outputs):
        kind = "raw" if rng.random() < 0.6 else "predicted"
        target = int(rng.integers(0, n if kind == "raw" else n + 4))
        avail = round(float(rng.uniform(0.0, n / 30 * 1.2)), 2)
        outputs.append(output(target, perturbed(track[target], rng), avail, kind))
    return seq, log_of(name, *outputs)


class TestScoreOracle:
    """sweep and scores against the literal per-frame scan, exactly."""

    def test_sweep_and_scores_equal_the_scan(self):
        rng = np.random.default_rng(2024)
        grid = sigma_grid()
        for trial in range(4):
            cases = [random_case(rng, f"t{trial}s{i}", int(rng.integers(1, 60)))
                     for i in range(3)]
            cases.append(random_case(rng, f"t{trial}empty", 0))
            seqs = [seq for seq, _ in cases]
            logs = [log for _, log in cases]
            auc_curve, dp_curve = sweep(seqs, logs)
            want = [[score_scan(seq, log, sigma) for seq, log in cases] for sigma in grid]
            assert dp_curve.values == tuple(float(np.mean([dp for dp, _ in row])) for row in want)
            assert auc_curve.values == tuple(float(np.mean([auc for _, auc in row]))
                                             for row in want)
            for i, (seq, log) in enumerate(cases):
                dp, auc = EstimateMatcher(seq, log).scores(grid)
                assert list(zip(dp.tolist(), auc.tolist())) == [row[i] for row in want]
                assert_dense(EstimateMatcher(seq, log), grid)

    def test_center_error_ties_at_the_dp_threshold_follow_the_scalar_metric(self):
        # centers within an ulp of 20 px: np.hypot can round to the other
        # side of the threshold than center_error; the score must not
        rng = np.random.default_rng(5)
        gt = BoundingBox(100, 100, 20, 20)
        seq = Sequence("ring", FrameClock(30.0), (gt, gt))
        straddling = 0
        for _ in range(3000):
            t = rng.uniform(0, 2 * np.pi)
            r = 20.0 * (1.0 + rng.normal(0.0, 3e-16))
            est = box_from_center(gt.cx + r * np.cos(t), gt.cy + r * np.sin(t), 20, 20)
            vector = np.hypot(gt.cx - est.cx, gt.cy - est.cy) <= 20.0
            if vector == (center_error(gt, est) <= 20.0):
                continue
            straddling += 1
            log = log_of("ring", raw(1, est, 0.0))
            assert score(seq, log, 0.0) == score_scan(seq, log, 0.0)
        assert straddling > 0

    def test_iou_rounding_past_one_is_clamped(self):
        # a one-ulp nudge can round the overlap ratio above 1, which the
        # IoU > 1.0 threshold would otherwise count
        rng = np.random.default_rng(11)
        past_one = 0
        for _ in range(200):
            gt = BoundingBox(*rng.uniform(10, 60, size=2), *rng.uniform(5, 30, size=2))
            est = BoundingBox(np.nextafter(gt.x, np.inf), gt.y, np.nextafter(gt.w, 0), gt.h)
            inter = (min(gt.x + gt.w, est.x + est.w) - max(gt.x, est.x)) * gt.h
            past_one += inter / (gt.w * gt.h + est.w * est.h - inter) > 1.0
            seq = Sequence("nudge", FrameClock(30.0), (gt, gt))
            log = log_of("nudge", raw(1, est, 0.0))
            assert score(seq, log, 0.0) == score_scan(seq, log, 0.0)
        assert past_one > 0

    def test_empty_log_scores_the_initial_box(self):
        # b0 sits 0, 5, ..., 25 px from the frames' centers; 20 px still counts
        seq = cv_sequence(6, vx=5.0)
        dp, auc = score_scan(seq, log_of("cv"), 0.5)
        assert score(seq, log_of("cv"), 0.5) == (dp, auc)
        assert dp == 5 / 6

    def test_sweep_rejects_raw_target_past_the_end(self):
        seq = cv_sequence(5)
        bad = raw(5, BoundingBox(0, 0, 10, 10), 0.1)
        with pytest.raises(ValidationError):
            sweep([seq, seq], [perfect_log(seq), log_of("cv", bad)])


def assert_dense(matcher, sigmas):
    """scores equals the per-pair dense reference byte for byte."""
    got, want = matcher.scores(sigmas), dense_scores(matcher, sigmas)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


SIGMA_SETS = {
    "grid": sigma_grid(),
    "unsorted": (0.9, 0.1, 0.5, 0.0, 0.98, 0.3, 0.7, 0.02),
    "repeated": (0.5, 0.5, 0.1, 0.5, 0.1, 0.1, 0.9, 0.5),
    "single": (0.4,),
    "empty": (),
}


class TestRunLengthScores:
    """scores matches each run of one served output once; its counts
    must equal the dense per-pair score exactly, whatever the sigmas."""

    @pytest.mark.parametrize("name", list(SIGMA_SETS))
    def test_random_cases_equal_the_dense_score(self, name):
        rng = np.random.default_rng(2024)
        for trial in range(8):
            seq, log = random_case(rng, f"r{trial}", int(rng.integers(0, 60)))
            assert_dense(EstimateMatcher(seq, log), SIGMA_SETS[name])

    def test_random_sigma_draws_equal_the_dense_score(self):
        rng = np.random.default_rng(7)
        seq, log = random_case(rng, "draws", 50)
        matcher = EstimateMatcher(seq, log)
        for size in (1, 2, 17, 120):
            assert_dense(matcher, rng.uniform(0.0, 1.0, size))
            assert_dense(matcher, rng.choice(sigma_grid(), size))

    @pytest.mark.parametrize("kind", ["kf", "pm"])
    def test_predicted_runs_equal_the_dense_score(self, kind):
        seqs = (gen_synthetic(SyntheticSpec(SINUSOIDAL, 2, 80, seed=3, noise_sigma=0.5))
                + gen_synthetic(SyntheticSpec(RANDOM_WALK, 2, 80, seed=4)))
        model = (KalmanBoxPredictor() if kind == "kf"
                 else MotionNetPredictor(constant_factor_weights(k=3, n_heads=3)))
        trackers = [TrackerAdapter(LatencyProfile.gaussian(0.05, 0.01), sigma_pos=0.5)] * len(seqs)
        for latency in (0.0, 0.01, 0.03):
            pred = PredictorAdapter(model, 3, LatencyProfile.constant(latency))
            logs = run_streams(seqs, trackers, pred, range(len(seqs)))
            assert all((log.kind == "predicted").any() for log in logs)
            for seq, log in zip(seqs, logs):
                matcher = EstimateMatcher(seq, log)
                for sigmas in SIGMA_SETS.values():
                    assert_dense(matcher, sigmas)
