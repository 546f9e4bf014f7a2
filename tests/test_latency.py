import math

import pytest

from latetrack.boxes import FrameClock, Sequence
from latetrack.errors import ValidationError
from latetrack.latency import CONSTANT, REPLAY, LatencyProfile
from latetrack.simulate import TrackerAdapter, run_stream


class TestConstant:
    def test_draws_are_the_mean(self):
        assert LatencyProfile.constant(0.05).draws(9, 5) == [0.05] * 5

    def test_mean_below_floor_rejected(self):
        with pytest.raises(ValidationError):
            LatencyProfile(CONSTANT, mean=0.0005, floor=0.001)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            LatencyProfile.constant(-0.01)

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValidationError):
            LatencyProfile.constant(mean)


class TestGaussian:
    def test_floor_clamps_lower_tail(self):
        profile = LatencyProfile.gaussian(0.002, 0.05, floor=0.001)
        draws = profile.draws(3, 2000)
        assert min(draws) >= 0.001
        # with stddev >> mean a fair share must actually hit the clamp
        assert sum(d == 0.001 for d in draws) > 100

    def test_seeded_reproducibility(self):
        a = LatencyProfile.gaussian(0.03, 0.01).draws(9, 50)
        assert a == LatencyProfile.gaussian(0.03, 0.01).draws(9, 50)
        # a block is the first draws of any longer one
        assert a == LatencyProfile.gaussian(0.03, 0.01).draws(9, 80)[:50]

    def test_different_seeds_give_different_draws(self):
        profile = LatencyProfile.gaussian(0.03, 0.01)
        assert profile.draws(10, 3) != profile.draws(9, 3)

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValidationError):
            LatencyProfile.gaussian(0.03, -0.01)

    @pytest.mark.parametrize("mean, stddev", [(math.nan, 0.01), (math.inf, 0.01),
                                              (0.03, math.nan), (0.03, math.inf)])
    def test_non_finite_parameters_rejected(self, mean, stddev):
        with pytest.raises(ValidationError):
            LatencyProfile.gaussian(mean, stddev)


class TestReplay:
    def test_plays_values_in_order(self):
        profile = LatencyProfile.replay((0.01, 0.02, 0.04))
        assert profile.draws(9, 3) == [0.01, 0.02, 0.04]
        assert profile.draws(9, 2) == [0.01, 0.02]

    def test_exhaustion_raises(self):
        profile = LatencyProfile.replay((0.01,))
        assert profile.draws(9, 5) == [0.01]
        seq = Sequence("two", FrameClock(30), [(0, 0, 4, 4), (1, 0, 4, 4)])
        with pytest.raises(ValidationError, match="replay latency exhausted after 1 draws"):
            run_stream(seq, TrackerAdapter(profile))

    def test_values_below_floor_rejected(self):
        with pytest.raises(ValidationError):
            LatencyProfile(REPLAY, replay_values=(0.01, 0.0001), floor=0.001)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            LatencyProfile.replay((0.01, bad))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            LatencyProfile.replay(())
