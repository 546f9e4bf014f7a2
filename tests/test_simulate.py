import re

import numpy as np
import pytest

from latetrack.boxes import BoundingBox, FrameClock, Sequence, load_sequence, save_sequence
from latetrack.errors import ValidationError
from latetrack.evaluate import EstimateMatcher, sweep
from latetrack.latency import LatencyProfile
from latetrack.network import init_weights, save_weights
from latetrack.predictors import (KalmanBoxPredictor, MotionNetPredictor, ZeroMotionPredictor,
                                  save_kf_noise)
from latetrack.simulate import (KF, KF_LEARNED, NEURAL_PM, ZERO_MOTION, PredictorAdapter,
                                RunLog, TrackerAdapter, load_run_log, load_trace, next_frame,
                                pick_horizon_n, predictor_for, run_stream, run_streams,
                                save_run_log, save_trace)

from _oracles import (constant_factor_weights, linear_track, log_lines, pick_horizon_n_loop,
                      run_log, run_stream_loop, trace_lines)


def cv_sequence(n=10, vx=2.0, vy=0.0, kappa=30.0, name="cv"):
    return Sequence(name, FrameClock(kappa),
                    tuple(linear_track(BoundingBox(50, 50, 12, 12), (vx, vy), n)))


def tracker(mean, **kw):
    return TrackerAdapter(LatencyProfile.constant(mean), **kw)


class TestNextFrame:
    def test_spec_examples(self):
        clock = FrameClock(30)
        assert next_frame(clock, 0.05, 0, 9) == 1
        assert next_frame(clock, 0.10, 1, 9) == 3

    def test_idle_tracker_waits_for_the_next_capture(self):
        # finished before frame 2 is even captured: pick it and wait
        assert next_frame(FrameClock(30), 0.04, 1, 9) == 2

    def test_stream_end(self):
        assert next_frame(FrameClock(30), 1.0, 9, 9) is None

    def test_capture_instant_counts_as_available(self):
        assert next_frame(FrameClock(30), 0.1, 0, 9) == 3

    def test_clamped_to_last_frame(self):
        assert next_frame(FrameClock(30), 5.0, 3, 9) == 9

    def test_negative_finish_rejected(self):
        with pytest.raises(ValidationError):
            next_frame(FrameClock(30), -0.1, 0, 9)


class TestSchedule:
    def test_fifty_ms_tracker_processes_every_third_half(self):
        log = run_stream(cv_sequence(10), tracker(0.05))
        assert log.frame.tolist() == [0, 1, 3, 4, 6, 7, 9]

    def test_realtime_tracker_is_consecutive(self):
        log = run_stream(cv_sequence(10), tracker(0.02))
        assert log.frame.tolist() == list(range(10))
        for frame, t_finish in zip(log.frame.tolist(), log.t_finish.tolist()):
            assert t_finish == pytest.approx(frame / 30.0 + 0.02)

    def test_first_frame_starts_at_zero(self):
        log = run_stream(cv_sequence(5), tracker(0.05))
        assert (log.frame[0], log.t_start[0], log.t_finish[0]) == (0, 0.0, 0.05)

    def test_zero_noise_oracle_reproduces_ground_truth(self):
        seq = cv_sequence(8)
        log = run_stream(seq, tracker(0.05))
        assert set(log.kind.tolist()) == {"raw"}
        assert np.array_equal(log.boxes, seq.boxes[log.target_frame])

    def test_noisy_oracle_perturbs_boxes_only_after_frame_zero(self):
        seq = cv_sequence(8)
        log = run_stream(seq, tracker(0.05, sigma_pos=1.0, sigma_scale=0.02))
        assert tuple(log.boxes[0].tolist()) == tuple(seq.b0)
        assert np.any(log.boxes[1:] != seq.boxes[log.target_frame[1:]])


class TestPredictorInStream:
    def test_emits_horizon_rows_per_arrival_after_first(self):
        pred = PredictorAdapter(ZeroMotionPredictor(), 2, LatencyProfile.constant(0.005))
        log = run_stream(cv_sequence(10), tracker(0.05), pred)
        raw = np.count_nonzero(log.kind == "raw")
        predicted = np.count_nonzero(log.kind == "predicted")
        assert raw == len(log.frame)
        assert predicted == 2 * (len(log.frame) - 1)
        assert log.predictor_invocations == len(log.frame) - 1

    def test_predictions_target_frames_after_the_previous_one(self):
        pred = PredictorAdapter(ZeroMotionPredictor(), 2, LatencyProfile.constant(0.005))
        log = run_stream(cv_sequence(10), tracker(0.05), pred)
        by_avail = {}
        predicted = log.kind == "predicted"
        for target, available in zip(log.target_frame[predicted].tolist(),
                                     log.available_at[predicted].tolist()):
            by_avail.setdefault(available, []).append(target)
        prev_frames = log.frame[:-1].tolist()
        for (avail, targets), prev in zip(sorted(by_avail.items()), prev_frames):
            assert targets == [prev + 1, prev + 2]

    def test_predictor_latency_delays_tracking(self):
        pred = PredictorAdapter(ZeroMotionPredictor(), 1, LatencyProfile.constant(0.005))
        plain = run_stream(cv_sequence(10), tracker(0.05))
        with_pred = run_stream(cv_sequence(10), tracker(0.05), pred)
        # every frame after the first pays the predictor's 5 ms
        assert with_pred.t_finish[1] == pytest.approx(plain.t_finish[1] + 0.005)
        assert set(with_pred.predictor_latencies) == {0.005}

    def test_kf_predictions_lead_the_track(self):
        pred = PredictorAdapter(KalmanBoxPredictor(), 2, LatencyProfile.constant(0.001))
        seq = cv_sequence(30)
        log = run_stream(seq, tracker(0.05), pred)
        late = [(target, row) for target, kind, row in zip(log.target_frame.tolist(),
                                                           log.kind.tolist(), log.boxes.tolist())
                if kind == "predicted" and target >= 20 and target <= seq.last_frame]
        assert late, "expected warmed-up predictions"
        for target, row in late:
            truth = seq.ground_truth[target]
            assert abs(BoundingBox(*row).cx - truth.cx) < 0.5

    @pytest.mark.parametrize("q_diag, r_diag", [
        ((), ()),
        ((0.01,) * 7, (1.0,) * 4),
        ((float("nan"),) + (0.01,) * 7, (1.0,) * 4),
        ((0.01,) * 8, (1.0, 1.0, 1.0, float("inf"))),
        ((0.01,) * 8, (1.0, 1.0, 1.0, 0.0)),
    ])
    def test_learned_noise_is_checked_when_the_adapter_is_built(self, q_diag, r_diag):
        with pytest.raises(ValidationError):
            KalmanBoxPredictor(q_diag, r_diag)

    def test_neural_predictor_checkpoint_must_match_horizon(self):
        w = constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6)
        pred = PredictorAdapter(MotionNetPredictor(w), 3, LatencyProfile.constant(0.005))
        with pytest.raises(ValidationError, match="network predicts exactly 2 frames"):
            run_stream(cv_sequence(10), tracker(0.05), pred)

    def test_neural_predictor_runs_in_stream(self):
        w = constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6)
        pred = PredictorAdapter(MotionNetPredictor(w), 2, LatencyProfile.constant(0.005))
        seq = cv_sequence(20)
        log = run_stream(seq, tracker(0.05), pred)
        is_predicted = log.kind == "predicted"
        predicted = list(zip(log.target_frame[is_predicted].tolist(),
                             log.boxes[is_predicted].tolist()))
        assert predicted
        warmed = [(target, row) for target, row in predicted if 10 <= target <= seq.last_frame]
        for target, row in warmed:
            truth = seq.ground_truth[target]
            assert BoundingBox(*row).cx == pytest.approx(truth.cx, abs=1e-6)


class TestDeterminism:
    def test_same_seed_same_log(self):
        seq = cv_sequence(12)
        trk = TrackerAdapter(LatencyProfile.gaussian(0.04, 0.01), sigma_pos=1.0)
        a = run_stream(seq, trk, seed=5)
        b = run_stream(seq, trk, seed=5)
        assert a == b

    def test_different_seed_differs(self):
        seq = cv_sequence(12)
        trk = TrackerAdapter(LatencyProfile.gaussian(0.04, 0.01), sigma_pos=1.0)
        assert run_stream(seq, trk, seed=5) != run_stream(seq, trk, seed=6)

    def test_saved_bytes_identical(self, tmp_path):
        seq = cv_sequence(12)
        trk = tracker(0.05, sigma_pos=0.5)
        for name in ("a.csv", "b.csv"):
            save_run_log(run_stream(seq, trk, seed=9), tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestPickHorizon:
    def test_fifty_ms_needs_two_frames(self):
        assert pick_horizon_n(cv_sequence(10), tracker(0.05)) == 2

    def test_realtime_needs_one(self):
        assert pick_horizon_n(cv_sequence(10), tracker(0.02)) == 1

    def test_bad_trials(self):
        with pytest.raises(ValidationError):
            pick_horizon_n(cv_sequence(10), tracker(0.05), trials=0)

    @staticmethod
    def outcome(pick, seq, trk, trials, seed):
        """The horizon, or the message of the error the pre-runs raised."""
        try:
            return pick(seq, trk, trials, seed=seed)
        except ValidationError as exc:
            return str(exc)

    def test_agrees_with_the_loop(self):
        """Schedule-only pre-runs against the largest frame gap of full
        run_stream_loop runs: a noisy oracle tracker and replays of a
        real-time recording, which holds every frame, at 30 and 24 fps."""
        truth = list(linear_track(BoundingBox(40, 30, 20, 14), (1.5, -0.7), 60))
        truth[5] = truth[6] = None
        horizons = []
        for seq in (Sequence("gaps", FrameClock(30), truth), cv_sequence(45, kappa=24.0)):
            recorded = run_stream(seq, TrackerAdapter(LatencyProfile.gaussian(0.01, 0.003),
                                                      sigma_pos=0.5), seed=5)
            assert recorded.frame.tolist() == list(range(len(seq)))
            trackers = [TrackerAdapter(LatencyProfile.gaussian(0.05, 0.03), sigma_pos=0.6,
                                       sigma_scale=0.04),
                        TrackerAdapter.replay(recorded),
                        TrackerAdapter.replay(recorded, LatencyProfile.gaussian(0.06, 0.04))]
            for trk in trackers:
                for trials in (1, 3):
                    for seed in (0, 1, 7, 123):
                        want = pick_horizon_n_loop(seq, trk, trials, seed=seed)
                        assert pick_horizon_n(seq, trk, trials, seed=seed) == want, \
                            f"{seq.name} {trk.latency.kind} trials={trials} seed={seed}"
                        horizons.append(want)
        assert min(horizons) == 1 and max(horizons) >= 3

    @pytest.mark.parametrize("latency, message", [
        (LatencyProfile.replay((0.05,) * 5), "replay latency exhausted after 5 draws"),
        (LatencyProfile.constant(0.01), "replay trace 'cv' has no box for frame 2"),
        (LatencyProfile.replay((0.01,) * 3), "replay trace 'cv' has no box for frame 2"),
        (LatencyProfile.replay((0.01,) * 2), "replay latency exhausted after 2 draws"),
    ])
    def test_the_same_errors_as_the_loop(self, latency, message):
        """A replay trace that lacks a frame and a replay latency block
        that runs out raise, and whichever comes first raises first."""
        seq = cv_sequence(30)
        trk = TrackerAdapter.replay(run_stream(seq, tracker(0.05)), latency)
        for trials in (1, 3):
            assert self.outcome(pick_horizon_n_loop, seq, trk, trials, 4) == message
            assert self.outcome(pick_horizon_n, seq, trk, trials, 4) == message


NAN, INF = float("nan"), float("inf")
GOOD_OUTPUT = (0, 0.1, "raw", (1.0, 2.0, 3.0, 4.0))
# (output row, the message RunLog gives for it; the box ones are BoundingBox's)
BAD_OUTPUTS = [
    ((0, 0.1, "raw", (NAN, 2.0, 3.0, 4.0)),
     "box fields must be finite, got BoundingBox(x=nan, y=2.0, w=3.0, h=4.0)"),
    ((1, 0.1, "predicted", (1.0, 2.0, INF, 4.0)),
     "box fields must be finite, got BoundingBox(x=1.0, y=2.0, w=inf, h=4.0)"),
    ((0, 0.1, "raw", (1.0, 2.0, 0.0, 4.0)), "box sizes must be positive, got w=0.0, h=4.0"),
    ((0, 0.1, "raw", (1.0, 2.0, 3.0, -4.0)), "box sizes must be positive, got w=3.0, h=-4.0"),
    ((0, -0.1, "raw", (1.0, 2.0, 3.0, 4.0)), "available_at must be >= 0, got -0.1"),
    ((0, NAN, "raw", (1.0, 2.0, 3.0, 4.0)), "available_at must be >= 0, got nan"),
    ((0, INF, "raw", (1.0, 2.0, 3.0, 4.0)), "available_at must be >= 0, got inf"),
    ((-1, 0.1, "raw", (1.0, 2.0, 3.0, 4.0)), "target_frame must be >= 0, got -1"),
    ((0, 0.1, "guess", (1.0, 2.0, 3.0, 4.0)), "kind must be 'raw' or 'predicted', got 'guess'"),
]


def columns(log):
    return [getattr(log, column) for column in ("frame", "t_start", "t_finish", "target_frame",
                                                 "available_at", "kind", "boxes")]


class TestRunLogInvariants:
    def test_frames_must_increase(self):
        with pytest.raises(ValidationError):
            run_log("x", ((0, 0.0, 0.1), (0, 0.1, 0.2)))

    def test_finishes_must_increase(self):
        with pytest.raises(ValidationError):
            run_log("x", ((0, 0.0, 0.2), (1, 0.1, 0.2)))

    @pytest.mark.parametrize("bad, message", BAD_OUTPUTS)
    def test_bad_output_row_gets_the_scalar_message(self, bad, message):
        with pytest.raises(ValidationError) as columns:
            run_log("x", outputs=[GOOD_OUTPUT, bad, GOOD_OUTPUT])
        assert str(columns.value) == message

    def test_first_bad_row_is_reported(self):
        (late, _), (early, message) = BAD_OUTPUTS[0], BAD_OUTPUTS[-1]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_log("x", outputs=[GOOD_OUTPUT, early, late])

    @pytest.mark.parametrize("schedule, message", [
        ([(0, 0.0, 0.1), (0, 0.1, 0.2)], "processed frames must strictly increase, got [0, 0]"),
        ([(0, 0.0, 0.1), (2, 0.1, 0.2), (1, 0.2, 0.3)],
         "processed frames must strictly increase, got [0, 2, 1]"),
        ([(0, 0.0, 0.2), (1, 0.1, 0.2)], "finish times must strictly increase"),
        ([(0, 0.0, 0.2), (1, 0.1, 0.1)], "finish times must strictly increase"),
    ])
    def test_schedule_must_increase(self, schedule, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_log("x", schedule)

    @pytest.mark.parametrize("which, message", [
        (0, "schedule columns must have one length, got [2, 3, 3]"),
        (2, "schedule columns must have one length, got [3, 3, 2]"),
        (3, "output columns must have one length, got [2, 3, 3, 3]"),
        (4, "output columns must have one length, got [3, 2, 3, 3]"),
        (5, "output columns must have one length, got [3, 3, 2, 3]"),
        (6, "output columns must have one length, got [3, 3, 3, 2]"),
    ])
    def test_columns_of_a_group_need_one_length(self, which, message):
        log = run_stream(cv_sequence(4), tracker(0.05))
        cols = columns(log)
        assert [len(c) for c in cols] == [3, 3, 3, 3, 3, 3, 3]
        cols[which] = cols[which][:-1]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RunLog("x", *cols)

    @pytest.mark.parametrize("boxes, shape", [
        (np.ones(12), "(12,)"), (np.ones((3, 3)), "(3, 3)"), (np.ones((3, 4, 1)), "(3, 4, 1)"),
        ((), "(0,)"),
    ])
    def test_boxes_must_be_rows_of_four(self, boxes, shape):
        """Even when the output columns are empty too."""
        cols = columns(run_stream(cv_sequence(4), tracker(0.05)))[:6]
        if not len(boxes):
            cols[3:] = (), (), ()
        message = f"boxes must be (m, 4), got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            RunLog("x", *cols, boxes)

    def test_its_own_rows_rebuild_an_equal_log(self):
        pred = PredictorAdapter(KalmanBoxPredictor(), 2, LatencyProfile.constant(0.005))
        log = run_stream(cv_sequence(10), tracker(0.05, sigma_pos=0.3), pred)
        rebuilt = RunLog(log.sequence_name, *columns(log), log.predictor_latencies)
        assert rebuilt == log
        assert all(a.tobytes() == b.tobytes() for a, b in zip(columns(rebuilt), columns(log)))
        assert not any(c.flags.writeable for c in columns(log))

    def test_processed_gives_the_schedule_back_as_tuples(self):
        log = run_stream(cv_sequence(10), tracker(0.05, sigma_pos=0.3))
        assert len(log.processed) == len(log.frame)
        assert log.processed[1] == (log.frame[1], log.t_start[1], log.t_finish[1])
        assert all(type(v) in (int, float) for row in log.processed for v in row)

    def test_loaded_bad_row_names_the_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("kind,target_frame,available_at,x,y,w,h\nraw,0,0.1,1,2,-3,4\n")
        with pytest.raises(ValidationError, match="log.csv: box sizes must be positive"):
            load_run_log(path)


class TestAgreesWithTheLoop:
    """run_stream's three passes against run_stream_loop, the literal
    frame-by-frame simulation with scalar draws, per-frame rows and each
    predictor's online oracle: equal RunLogs, every column and the
    predictor latencies included."""

    PREDICTORS = {
        "none": None,
        "zero": (ZeroMotionPredictor(), 2),
        "kf": (KalmanBoxPredictor(), 3),
        "kf_learned": (KalmanBoxPredictor((0.5, 0.5, 0.2, 0.2, 0.05, 0.05, 0.01, 0.01),
                                          (2.0, 2.0, 0.5, 0.5)), 2),
        "pm": (MotionNetPredictor(init_weights(k=3, n_heads=2, seed=81)), 2),
        "pm_k5": (MotionNetPredictor(init_weights(k=5, n_heads=3, c_enc=16, c_dec=8, seed=82)),
                  3),
    }

    @staticmethod
    def sequences():
        truth = list(linear_track(BoundingBox(40, 30, 20, 14), (1.5, -0.7), 70))
        for f in (3, 4, 5, 17, 40, 69):
            truth[f] = None
        return [Sequence("gaps", FrameClock(30), truth),
                Sequence("two", FrameClock(30), truth[:2]),
                cv_sequence(25, kappa=24.0)]

    @staticmethod
    def adapter(kind):
        spec = TestAgreesWithTheLoop.PREDICTORS[kind]
        if spec is None:
            return None
        return PredictorAdapter(spec[0], spec[1], LatencyProfile.gaussian(0.006, 0.003))

    def outcome(self, run, seq, trk, kind, seed, adapter=None):
        """The run's log, or the message of the error it raised."""
        try:
            return run(seq, trk, adapter or self.adapter(kind), seed=seed)
        except ValidationError as exc:
            return str(exc)

    @pytest.mark.parametrize("kind", sorted(PREDICTORS))
    def test_noisy_oracle_tracker(self, kind):
        trk = TrackerAdapter(LatencyProfile.gaussian(0.05, 0.03), sigma_pos=0.6,
                             sigma_scale=0.04)
        for seq in self.sequences():
            for seed in (0, 1, 7, 123):
                want = run_stream_loop(seq, trk, self.adapter(kind), seed=seed)
                got = run_stream(seq, trk, self.adapter(kind), seed=seed)
                assert got == want, f"{kind} {seq.name} seed={seed}"
                assert got.boxes.tobytes() == want.boxes.tobytes()

    @pytest.mark.parametrize("kind", sorted(PREDICTORS))
    def test_replay_tracker(self, kind):
        """A real-time recording holds every frame, so its replays run
        to the end; a slow one's replays mostly reach a frame it lacks."""
        logs = 0
        for seq in self.sequences():
            trackers = []
            for mean in (0.01, 0.04):
                recorded = run_stream(seq, TrackerAdapter(LatencyProfile.gaussian(mean, 0.003),
                                                          sigma_pos=0.5, sigma_scale=0.03), seed=5)
                trackers += [TrackerAdapter.replay(recorded),
                             TrackerAdapter.replay(recorded, LatencyProfile.gaussian(0.045, 0.02))]
            for trk in trackers:
                for seed in (2, 3):
                    want = self.outcome(run_stream_loop, seq, trk, kind, seed)
                    assert self.outcome(run_stream, seq, trk, kind, seed) == want, \
                        f"{kind} {seq.name} seed={seed}"
                    logs += isinstance(want, RunLog)
        assert logs >= 12

    @pytest.mark.parametrize("kind", ["none", "kf", "pm"])
    def test_the_same_errors(self, kind):
        """A replay latency that runs out, a replay trace that lacks a
        frame, a predictor latency that runs out."""
        seq = cv_sequence(30)
        log = run_stream(seq, tracker(0.05))
        short = TrackerAdapter.replay(log, LatencyProfile.replay((0.05,) * 5))
        missing = TrackerAdapter.replay(log, LatencyProfile.constant(0.01))
        cases = [(short, None), (missing, None)]
        if kind != "none":
            spec = self.PREDICTORS[kind]
            cases.append((tracker(0.05), PredictorAdapter(spec[0], spec[1],
                                                          LatencyProfile.replay((0.005,) * 4))))
        for trk, adapter in cases:
            want = self.outcome(run_stream_loop, seq, trk, kind, 0, adapter)
            assert isinstance(want, str)
            assert self.outcome(run_stream, seq, trk, kind, 0, adapter) == want


class OddRuns(ZeroMotionPredictor):
    """Zero motion, except that a batch holding a run from b0 `fails`
    raises, and a run from b0 `nan` predicts NaN rows."""

    def __init__(self, fails, nan):
        self.fails, self.nan = tuple(fails), tuple(nan)

    def predictions(self, b0s, frames, rows, horizon):
        if self.fails in map(tuple, b0s):
            raise ValidationError(f"no prediction from {self.fails}")
        return [np.full_like(run, np.nan) if tuple(b0) == self.nan else run
                for b0, run in zip(b0s, super().predictions(b0s, frames, rows, horizon))]


class TestBatchOfRuns:
    """run_streams simulates a verb's runs as one batch: each run equals
    that sequence simulated alone, and a batch raises what running the
    sequences one by one raises, the first failing run's error."""

    @pytest.mark.parametrize("kind", sorted(TestAgreesWithTheLoop.PREDICTORS))
    def test_each_run_equals_the_loop(self, kind):
        trk = TrackerAdapter(LatencyProfile.gaussian(0.05, 0.03), sigma_pos=0.6,
                             sigma_scale=0.04)
        seqs = TestAgreesWithTheLoop.sequences()
        seeds = [0, 7, 123]
        adapter = TestAgreesWithTheLoop.adapter(kind)
        logs = run_streams(seqs, [trk] * len(seqs), adapter, seeds)
        assert len({len(log.frame) for log in logs}) == len(seqs)
        for seq, seed, log in zip(seqs, seeds, logs):
            want = run_stream_loop(seq, trk, adapter, seed=seed)
            assert log == want, f"{kind} {seq.name}"
            assert log.boxes.tobytes() == want.boxes.tobytes()

    @staticmethod
    def one_by_one(seqs, trackers, adapter):
        try:
            return [run_stream(seq, trk, adapter) for seq, trk in zip(seqs, trackers)]
        except ValidationError as exc:
            return str(exc)

    @pytest.mark.parametrize("kind", ["none", "kf", "pm"])
    def test_the_first_failing_run_raises(self, kind):
        """An exhausted replay run raises after its own rows and
        predictions, before a later run's rows are read; a run that
        lacks a frame raises before a later exhausted run."""
        seq = cv_sequence(30)
        # a real-time recording of 10 frames: its 10 durations run out
        # before the 30-frame stream ends, at a frame it holds
        short = TrackerAdapter.replay(run_stream(cv_sequence(10), tracker(0.01)))
        missing = TrackerAdapter.replay(run_stream(seq, tracker(0.05)),
                                        LatencyProfile.constant(0.01))
        adapter = TestAgreesWithTheLoop.adapter(kind)
        for trackers, message in (((short, missing), "replay latency exhausted after 10 draws"),
                                  ((missing, short), "'cv' has no box for frame 2")):
            with pytest.raises(ValidationError, match=re.escape(message)):
                run_streams([seq, seq], trackers, adapter, [0, 0])
            assert self.one_by_one([seq, seq], trackers, adapter).endswith(message)

    def test_a_failing_prediction_raises_in_its_turn(self):
        """A batch whose predictions fail raises the error of the first
        failing run: an earlier run's bad output or missing frame, or
        the failing run's own."""
        ok, fails, nan = (Sequence(name, FrameClock(30), tuple(linear_track(
            BoundingBox(x0, 50, 12, 12), (1.0, 0.0), 20))) for name, x0 in
            (("ok", 10.0), ("fails", 30.0), ("nan", 50.0)))
        trk = tracker(0.05)
        missing = TrackerAdapter.replay(run_stream(ok, trk), LatencyProfile.constant(0.01))
        adapter = PredictorAdapter(OddRuns(fails.b0, nan.b0), 2, LatencyProfile.constant(0.005))
        for seqs, trackers, message in (
                ((ok, fails, ok), (trk, trk, missing), "no prediction from"),
                ((nan, fails), (trk, trk), "box fields must be finite"),
                ((ok, fails), (missing, trk), "has no box for frame 2")):
            assert message in self.one_by_one(seqs, trackers, adapter)
            with pytest.raises(ValidationError, match=re.escape(message)):
                run_streams(seqs, trackers, adapter, [0] * len(seqs))


class TestOneModelServesManyRuns:
    """A predictor is built once per verb and carries nothing from one
    run into the next: runs on one adapter, interleaved over two
    sequences and repeated, equal runs on a freshly built one."""

    @pytest.mark.parametrize("kind", [ZERO_MOTION, KF, KF_LEARNED, NEURAL_PM])
    def test_each_run_equals_a_fresh_model(self, kind, tmp_path):
        file = None
        if kind == KF_LEARNED:
            file = tmp_path / "noise.json"
            save_kf_noise((0.5, 0.5, 0.2, 0.2, 0.05, 0.05, 0.01, 0.01), (2.0, 2.0, 0.5, 0.5), file)
        elif kind == NEURAL_PM:
            file = tmp_path / "pm.json"
            save_weights(init_weights(k=3, n_heads=2, seed=81), file)

        def build():
            return predictor_for(kind, LatencyProfile.gaussian(0.006, 0.003), file=file)

        shared = build()
        trk = TrackerAdapter(LatencyProfile.gaussian(0.05, 0.03), sigma_pos=0.6,
                             sigma_scale=0.04)
        seqs = [cv_sequence(40, vx=1.5, vy=-0.5, name="a"), cv_sequence(25, kappa=24.0, name="b")]
        for seed in (3, 4):
            for seq in seqs * 2:
                got = run_stream(seq, trk, shared, seed=seed)
                want = run_stream(seq, trk, build(), seed=seed)
                assert got == want, f"{kind} {seq.name} seed={seed}"
                assert got.boxes.tobytes() == want.boxes.tobytes()


class TestStreamBuildsNoObjects:
    """The loop appends rows and the log keeps columns: no BoundingBox
    is built per frame, nor by reading the log back as rows, nor by
    reading ground truth."""

    @staticmethod
    def count_boxes(monkeypatch) -> list:
        built = []
        init = BoundingBox.__init__

        def wrapper(self, *args):
            built.append(BoundingBox)
            init(self, *args)

        monkeypatch.setattr(BoundingBox, "__init__", wrapper)
        return built

    @staticmethod
    def predictor(kind):
        model = {ZERO_MOTION: ZeroMotionPredictor(), KF: KalmanBoxPredictor(),
                 NEURAL_PM: MotionNetPredictor(
                     constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6))}
        return PredictorAdapter(model[kind], 2, LatencyProfile.constant(0.005))

    @pytest.mark.parametrize("kind", [ZERO_MOTION, KF, NEURAL_PM])
    def test_no_per_frame_objects(self, kind, monkeypatch):
        seq = cv_sequence(30)
        trk = tracker(0.05, sigma_pos=0.3, sigma_scale=0.02)
        built = self.count_boxes(monkeypatch)
        log = run_stream(seq, trk, self.predictor(kind), seed=1)
        assert len(log.processed) == len(log.frame)
        assert built == []

    @pytest.mark.parametrize("kind", [ZERO_MOTION, KF, NEURAL_PM])
    def test_load_run_and_score_build_only_b0(self, kind, monkeypatch, tmp_path):
        path = tmp_path / "gaps.txt"
        truth = list(cv_sequence(30).ground_truth)
        truth[3] = truth[4] = truth[9] = None
        save_sequence(Sequence("gaps", FrameClock(30), truth), path)
        trk = tracker(0.05, sigma_pos=0.3, sigma_scale=0.02)
        built = self.count_boxes(monkeypatch)
        seq = load_sequence(path)
        log = run_stream(seq, trk, self.predictor(kind), seed=1)
        auc, dp = sweep([seq], [log])
        assert len(built) == 1 and auc.values[0] > 0
        assert log.kind[EstimateMatcher(seq, log).serve(29, 0.0)] in ("raw", "predicted")
        assert len(built) == 1


class TestFiles:
    def test_run_log_round_trip(self, tmp_path):
        pred = PredictorAdapter(ZeroMotionPredictor(), 2, LatencyProfile.constant(0.005))
        log = run_stream(cv_sequence(10), tracker(0.05, sigma_pos=0.3), pred)
        path = tmp_path / "log.csv"
        save_run_log(log, path, manifest_ref="cafe01234567")
        back = load_run_log(path)
        assert back.sequence_name == "log"
        assert len(back.frame) == len(back.t_start) == len(back.t_finish) == 0
        for column in ("target_frame", "available_at", "kind", "boxes"):
            assert np.array_equal(getattr(back, column), getattr(log, column)), column

    def test_trace_round_trip_and_replay(self, tmp_path):
        seq = cv_sequence(10)
        log = run_stream(seq, tracker(0.05, sigma_pos=0.4), seed=3)
        path = tmp_path / "cv.trace.csv"
        save_trace(log, path)
        trace = load_trace(path)
        assert trace.frame.tolist() == log.frame.tolist()
        assert np.array_equal(trace.boxes, log.boxes)

        # replaying the trace through the simulator reproduces the schedule
        replay_log = run_stream(seq, TrackerAdapter.replay(trace))
        assert replay_log.frame.tolist() == log.frame.tolist()
        for a, b in zip(replay_log.t_finish, log.t_finish):
            assert a == pytest.approx(b, abs=1e-12)

    def test_numpy_scalar_clock_and_latency_write_a_loadable_trace(self, tmp_path):
        seq = Sequence("s", FrameClock(np.float64(30)),
                       tuple(BoundingBox(i, 0, 10, 10) for i in range(10)))
        log = run_stream(seq, tracker(np.float64(0.01)))
        save_trace(log, tmp_path / "s.trace.csv")
        back = load_trace(tmp_path / "s.trace.csv", "s")
        for column in ("frame", "t_start", "t_finish"):
            assert np.array_equal(getattr(back, column), getattr(log, column)), column

    def test_trace_requires_full_schedule(self, tmp_path):
        log = run_stream(cv_sequence(10), tracker(0.05))
        save_run_log(log, tmp_path / "log.csv")
        loaded = load_run_log(tmp_path / "log.csv")
        with pytest.raises(ValidationError):
            save_trace(loaded, tmp_path / "t.csv")

    def test_replay_tracker_exhaustion(self):
        seq = cv_sequence(10)
        trace = run_stream(seq, tracker(0.05))
        adapter = TrackerAdapter.replay(trace, LatencyProfile.replay((0.05, 0.05)))
        with pytest.raises(ValidationError, match="exhausted"):
            run_stream(seq, adapter)

    def test_missing_frame_names_the_trace(self, tmp_path):
        seq = cv_sequence(10)
        save_trace(run_stream(seq, tracker(0.05)), tmp_path / "cv.trace.csv")
        adapter = TrackerAdapter.replay(load_trace(tmp_path / "cv.trace.csv"),
                                        LatencyProfile.constant(0.01))
        with pytest.raises(ValidationError, match="'cv.trace' has no box for frame 2"):
            run_stream(seq, adapter)

    def test_empty_trace_rejected_when_the_adapter_is_built(self):
        empty = run_log("cv")
        with pytest.raises(ValidationError, match="per-frame boxes"):
            TrackerAdapter(LatencyProfile.constant(0.05), trace=empty)
        with pytest.raises(ValidationError):
            TrackerAdapter.replay(empty)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("frame,x,y\n0,1,2\n")
        with pytest.raises(ValidationError):
            load_run_log(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("kind,target_frame,available_at,x,y,w,h\nraw,0,0.1,1,2,bad,4\n")
        with pytest.raises(ValidationError):
            load_run_log(path)


LOG_HEADER = "kind,target_frame,available_at,x,y,w,h\r\n"
TRACE_HEADER = "frame,t_start,t_finish,x,y,w,h\r\n"


def log_bytes(log, manifest_ref=None):
    head = f"# manifest={manifest_ref}\n" if manifest_ref else ""
    return (head + LOG_HEADER + "".join(log_lines(log))).encode()


def trace_bytes(log, manifest_ref=None):
    head = f"# manifest={manifest_ref}\n" if manifest_ref else ""
    return (head + TRACE_HEADER + "".join(trace_lines(log))).encode()


class TestWritersMatchTheOracle:
    """save_run_log and save_trace format each distinct float of a run
    once and share the strings; their bytes must equal the oracle's,
    which calls repr on every field of every row."""

    @staticmethod
    def predictor(kind, tmp_path):
        latency = LatencyProfile.gaussian(0.006, 0.002)
        if kind == "kf_learned":
            noise = tmp_path / "noise.json"
            save_kf_noise((0.5, 0.5, 0.2, 0.2, 0.05, 0.05, 0.01, 0.01), (2.0, 2.0, 0.5, 0.5),
                          noise)
            return predictor_for(kind, latency, file=noise)
        if kind == "pm":
            ckpt = tmp_path / "pm.json"
            save_weights(constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6), ckpt)
            return predictor_for(kind, latency, file=ckpt)
        return predictor_for(kind, latency, horizon=3)

    @staticmethod
    def noisy_tracker():
        return TrackerAdapter(LatencyProfile.gaussian(0.05, 0.02), sigma_pos=0.5,
                              sigma_scale=0.03)

    @staticmethod
    def sequence():
        truth = list(linear_track(BoundingBox(40.25, 30.5, 20, 14), (1.5, -0.7), 60))
        truth[7] = None
        return Sequence("s", FrameClock(30), truth)

    @staticmethod
    def check(log, tmp_path, manifest_ref=None):
        save_run_log(log, tmp_path / "s.log.csv", manifest_ref)
        save_trace(log, tmp_path / "s.trace.csv", manifest_ref)
        assert (tmp_path / "s.log.csv").read_bytes() == log_bytes(log, manifest_ref)
        assert (tmp_path / "s.trace.csv").read_bytes() == trace_bytes(log, manifest_ref)

    @pytest.mark.parametrize("kind", ["none", "zero", "kf", "kf_learned", "pm"])
    def test_seeded_runs(self, kind, tmp_path):
        for seed in (0, 4):
            log = run_stream(self.sequence(), self.noisy_tracker(),
                             self.predictor(kind, tmp_path), seed=seed)
            self.check(log, tmp_path, manifest_ref="cafe01234567" if seed else None)

    def test_replay_run(self, tmp_path):
        """A real-time recording holds every frame, so a replay with a
        predictor runs to the end."""
        seq = self.sequence()
        fast = TrackerAdapter(LatencyProfile.gaussian(0.01, 0.003), sigma_pos=0.5)
        save_trace(run_stream(seq, fast, seed=2), tmp_path / "rec.trace.csv")
        trk = TrackerAdapter.replay(load_trace(tmp_path / "rec.trace.csv"))
        self.check(run_stream(seq, trk, self.predictor("kf", tmp_path), seed=3), tmp_path)

    def test_a_loaded_log_has_no_schedule(self, tmp_path):
        log = run_stream(self.sequence(), self.noisy_tracker(), self.predictor("kf", tmp_path))
        save_run_log(log, tmp_path / "a.log.csv")
        loaded = load_run_log(tmp_path / "a.log.csv")
        save_run_log(loaded, tmp_path / "b.log.csv")
        assert (tmp_path / "b.log.csv").read_bytes() == log_bytes(loaded) == log_bytes(log)
        with pytest.raises(ValidationError, match="no full schedule"):
            save_trace(loaded, tmp_path / "b.trace.csv")

    @pytest.mark.parametrize("values", [
        (0.0, -0.0, 0.0, -0.0),
        (1e-05, 1e+16, -0.0, 1e-05),
        (0.1, 0.30000000000000004, 2.5e-07, 123456789.0),
    ])
    def test_signed_zeros_repeats_and_exponent_forms(self, values, tmp_path):
        """-0.0 and 0.0 share no string, and repr's exponent forms
        (1e-05, 1e+16) come out as repr writes them."""
        a, b, c, d = values
        size = abs(d) or 1.0
        log = run_log("s", [(0, a, 1.0), (1, 1.0, 1e+16)],
                      [(0, 1.0, "raw", (a, b, size, size)),
                       (2, 1.0, "predicted", (b, a, 1e+16, 1e-05)),
                       (3, 1.0, "predicted", (c, d, size, size)),
                       (1, 1e+16, "raw", (d, c, 1e-05, size))])
        self.check(log, tmp_path)
        text = (tmp_path / "s.log.csv").read_text() + (tmp_path / "s.trace.csv").read_text()
        for v in values:
            assert repr(v) in text

    def test_the_shared_strings_follow_their_run(self, tmp_path):
        """Interleaved writes of two runs, a trace written twice, and a
        trace with no log written before it."""
        seq = self.sequence()
        a = run_stream(seq, self.noisy_tracker(), self.predictor("kf", tmp_path), seed=1)
        b = run_stream(seq, self.noisy_tracker(), self.predictor("zero", tmp_path), seed=2)
        fresh = run_stream(seq, self.noisy_tracker(), seed=3)
        save_run_log(a, tmp_path / "a.log.csv")
        save_run_log(b, tmp_path / "b.log.csv")
        save_trace(a, tmp_path / "a.trace.csv")
        save_trace(b, tmp_path / "b.trace.csv")
        save_trace(a, tmp_path / "a2.trace.csv")
        save_trace(fresh, tmp_path / "fresh.trace.csv")
        for log, name in ((a, "a"), (b, "b")):
            assert (tmp_path / f"{name}.log.csv").read_bytes() == log_bytes(log)
            assert (tmp_path / f"{name}.trace.csv").read_bytes() == trace_bytes(log)
        assert (tmp_path / "a2.trace.csv").read_bytes() == trace_bytes(a)
        assert (tmp_path / "fresh.trace.csv").read_bytes() == trace_bytes(fresh)
        # no run keeps its strings past its trace write
        assert a._text is None and b._text is None and fresh._text is None

    def test_a_trace_pairs_each_frame_with_its_own_raw_output(self, tmp_path):
        log = RunLog("s", [0, 1], [0.0, 0.04], [0.03, 0.07], [1, 0], [0.03, 0.07],
                     ["raw", "raw"], [[1.0, 1.0, 2.0, 2.0], [5.0, 5.0, 2.0, 2.0]])
        with pytest.raises(ValidationError, match="frame 0: its raw output answers frame 1"):
            save_trace(log, tmp_path / "s.trace.csv")
        assert not (tmp_path / "s.trace.csv").exists()


class TestThroughput:
    def test_processing_rate_is_bounded_by_latency(self):
        # mean 40 ms per frame caps throughput at 25 fps against a 30 fps stream
        seq = cv_sequence(60)
        log = run_stream(seq, tracker(0.04))
        span = log.t_finish[-1] - log.t_start[0]
        rate = len(log.frame) / span
        assert rate == pytest.approx(25.0, rel=0.05)
        assert len(log.frame) < 60
