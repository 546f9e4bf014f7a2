from fractions import Fraction

import numpy as np
import pytest

from latetrack.boxes import BoundingBox, FrameClock, Sequence, center_error
from latetrack.errors import ValidationError
from latetrack.evaluate import (INITIAL_B0, EstimateMatcher, EvalCurve,
                                PermittedLatency, match_elae, match_lae, score_run,
                                sigma_grid, sweep)
from latetrack.latency import LatencyProfile
from latetrack.simulate import RunLog, TrackerAdapter, run_stream
from latetrack.training import linear_track

from _oracles import elae_scan, score_scan


def cv_sequence(n=10, vx=2.0, kappa=30.0, name="cv"):
    return Sequence(name, FrameClock(kappa),
                    tuple(linear_track(BoundingBox(50, 50, 12, 12), (vx, 0.0), n)))


def output(target, box, avail, kind):
    return (target, avail, kind, tuple(box))


def raw(target, box, avail):
    return output(target, box, avail, "raw")


def log_of(name, *outputs):
    return RunLog(name, (), tuple(outputs))


def perfect_log(seq):
    return log_of(seq.name, *[raw(f, b, seq.clock.capture_time(f))
                              for f, b in enumerate(seq.ground_truth)])


class TestPermittedLatency:
    def test_range(self):
        PermittedLatency(0.0)
        PermittedLatency(0.98)
        with pytest.raises(ValidationError):
            PermittedLatency(1.0)
        with pytest.raises(ValidationError):
            PermittedLatency(-0.01)

    def test_slack_is_sigma_frame_periods(self):
        assert PermittedLatency(0.6).slack_seconds(30.0) == pytest.approx(0.02)
        assert PermittedLatency(0.0).slack_seconds(30.0) == 0.0


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
        m = match_lae(seq, log, 2)
        assert m.source == "raw"
        assert m.estimate == seq.ground_truth[0]

    def test_frame_zero_has_only_the_initial_box(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.05)))
        m = match_lae(seq, log, 0)
        assert m.source == INITIAL_B0
        assert m.estimate == seq.b0

    def test_realtime_tracker_is_one_frame_behind(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.02)))
        for f in range(1, 10):
            m = match_lae(seq, log, f)
            assert m.estimate == seq.ground_truth[f - 1]


class TestMatchELAE:
    def test_sigma_zero_is_the_online_match(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.037)))
        for f in range(10):
            assert match_elae(seq, log, f, 0.0) == match_lae(seq, log, f)

    def test_slack_flips_realtime_match_to_the_current_frame(self):
        seq = cv_sequence(10)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.02)))
        # 20 ms is 0.6 frame periods; just below the slack is too small
        assert match_elae(seq, log, 5, 0.58).estimate == seq.ground_truth[4]
        assert match_elae(seq, log, 5, 0.62).estimate == seq.ground_truth[5]

    def test_prediction_targeting_the_frame_wins_the_tie(self):
        seq = cv_sequence(6)
        stale = raw(1, seq.ground_truth[1], 0.05)
        hit = output(3, seq.ground_truth[3], 0.05, "predicted")
        over = output(5, seq.ground_truth[5], 0.05, "predicted")
        m = match_elae(seq, log_of("cv", stale, hit, over), 3, 0.9)
        assert m.source == "predicted"
        assert m.estimate == seq.ground_truth[3]

    def test_future_targets_only_fall_back_to_the_smallest_overshoot(self):
        # nothing at or before f: the matcher wants the largest target,
        # which at least is the output computed latest
        seq = cv_sequence(8)
        a = raw(4, seq.ground_truth[4], 0.05)
        b = raw(6, seq.ground_truth[6], 0.05)
        m = match_elae(seq, log_of("cv", a, b), 1, 0.9)
        assert m.estimate == seq.ground_truth[6]

    def test_equal_instant_equal_target_prefers_later_log_entry(self):
        seq = cv_sequence(6)
        first = raw(2, seq.ground_truth[2], 0.05)
        second = raw(2, BoundingBox(90, 90, 12, 12), 0.05)
        m = match_elae(seq, log_of("cv", first, second), 2, 0.9)
        assert m.estimate == BoundingBox(90, 90, 12, 12)

    def test_newer_instant_beats_better_target(self):
        seq = cv_sequence(8)
        exact = raw(5, seq.ground_truth[5], 0.05)
        newer = raw(2, seq.ground_truth[2], 0.06)
        m = match_elae(seq, log_of("cv", exact, newer), 5, 0.9)
        assert m.estimate == seq.ground_truth[2]

    def test_matched_availability_is_monotone_in_sigma(self):
        seq = cv_sequence(12)
        log = run_stream(seq, TrackerAdapter(LatencyProfile.constant(0.041)))
        times = {BoundingBox(*row): available for _, available, _, row in log.outputs}
        for f in range(12):
            prev = -1.0
            for sigma in sigma_grid():
                m = match_elae(seq, log, f, sigma)
                avail = times.get(m.estimate, 0.0) if m.source != INITIAL_B0 else -1.0
                assert avail >= prev
                prev = avail

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
            for f in range(8):
                for sigma in (0.0, 0.24, 0.5, 0.98):
                    want_box, want_kind = elae_scan(seq, log.outputs, f, sigma)
                    got = match_elae(seq, log, f, sigma)
                    assert got.estimate == want_box and got.source == want_kind

    def test_out_of_range_frame_rejected(self):
        seq = cv_sequence(5)
        with pytest.raises(ValidationError):
            match_elae(seq, perfect_log(seq), 5, 0.0)

    def test_raw_target_beyond_sequence_rejected(self):
        seq = cv_sequence(5)
        bad = raw(7, BoundingBox(0, 0, 10, 10), 0.1)
        with pytest.raises(ValidationError):
            EstimateMatcher(seq, log_of("cv", bad))


class TestScoreRun:
    def test_perfect_log_hits_the_ceiling(self):
        seq = cv_sequence(10)
        dp, auc = score_run(seq, perfect_log(seq), 0.0)
        assert dp == 1.0
        assert auc == pytest.approx(20 / 21)

    def test_half_exact_half_disjoint(self):
        # frame 1's only estimate is b0: disjoint but centers 12 px apart
        seq = Sequence("s", FrameClock(30), (BoundingBox(0, 0, 10, 10),
                                             BoundingBox(12, 0, 10, 10)))
        dp, auc = score_run(seq, log_of("s"), 0.5)
        assert dp == 1.0
        assert auc == pytest.approx(10 / 21)

    def test_nothing_matches_anywhere(self):
        seq = Sequence("s", FrameClock(30), (BoundingBox(0, 0, 10, 10),
                                             BoundingBox(100, 100, 10, 10)))
        far = raw(1, BoundingBox(200, 0, 10, 10), 0.0)
        dp, auc = score_run(seq, log_of("s", far, far), 0.9)
        assert dp == 0.0
        assert auc == 0.0

    def test_unannotated_frames_are_excluded(self):
        boxes = tuple(linear_track(BoundingBox(0, 0, 10, 10), (2, 0), 4))
        with_gap = Sequence("g", FrameClock(30), (boxes[0], None, boxes[2], boxes[3]))
        log = log_of("g", raw(0, boxes[0], 0.0),
                     raw(1, BoundingBox(500, 500, 10, 10), 0.0333),
                     raw(2, boxes[2], 0.0667), raw(3, boxes[3], 0.1))
        dp, auc = score_run(with_gap, log, 0.0)
        # the poisoned frame-1 output never reaches a scored frame
        assert dp == pytest.approx(2 / 3)

    def test_toy_fixture_strict_online(self, toy_pair):
        seq, log = toy_pair
        dp, auc = score_run(seq, log, 0.0)
        assert dp == pytest.approx(0.6, abs=1e-12)
        assert auc == pytest.approx(float(Fraction(26, 105)), abs=1e-12)

    def test_toy_fixture_half_frame_slack(self, toy_pair):
        seq, log = toy_pair
        dp, auc = score_run(seq, log, 0.5)
        assert dp == pytest.approx(1.0, abs=1e-12)
        assert auc == pytest.approx(float(Fraction(1, 3)), abs=1e-12)


class TestEvalCurve:
    def test_aggregate_is_the_mean(self):
        values = [0.5] * 25 + [1.0] * 25
        assert EvalCurve.from_values(values).aggregate == pytest.approx(0.75)

    def test_wrong_grid_rejected(self):
        with pytest.raises(ValidationError):
            EvalCurve(tuple(np.linspace(0, 1, 50)), tuple([0.5] * 50))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            EvalCurve.from_values([0.5] * 49)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValidationError):
            EvalCurve.from_values([1.5] * 50)


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
    """sweep and score_run against the literal per-frame scan, exactly."""

    def test_sweep_and_score_run_equal_the_scan(self):
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
                for j in (0, 13, 31, 49):
                    assert score_run(seq, log, grid[j]) == want[j][i]

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
            est = BoundingBox.from_center(gt.cx + r * np.cos(t), gt.cy + r * np.sin(t), 20, 20)
            vector = np.hypot(gt.cx - est.cx, gt.cy - est.cy) <= 20.0
            if vector == (center_error(gt, est) <= 20.0):
                continue
            straddling += 1
            log = log_of("ring", raw(1, est, 0.0))
            assert score_run(seq, log, 0.0) == score_scan(seq, log, 0.0)
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
            assert score_run(seq, log, 0.0) == score_scan(seq, log, 0.0)
        assert past_one > 0

    def test_empty_log_scores_the_initial_box(self):
        # b0 sits 0, 5, ..., 25 px from the frames' centers; 20 px still counts
        seq = cv_sequence(6, vx=5.0)
        dp, auc = score_scan(seq, log_of("cv"), 0.5)
        assert score_run(seq, log_of("cv"), 0.5) == (dp, auc)
        assert dp == 5 / 6

    def test_sweep_rejects_raw_target_past_the_end(self):
        seq = cv_sequence(5)
        bad = raw(5, BoundingBox(0, 0, 10, 10), 0.1)
        with pytest.raises(ValidationError):
            sweep([seq, seq], [perfect_log(seq), log_of("cv", bad)])

    def test_score_run_rejects_sigma_outside_the_range(self):
        seq = cv_sequence(5)
        with pytest.raises(ValidationError):
            score_run(seq, perfect_log(seq), 1.0)
