import math

import pytest

from latetrack.errors import ValidationError
from latetrack.latency import CONSTANT, REPLAY, LatencyProfile


class TestConstant:
    def test_draws_are_the_mean(self):
        sampler = LatencyProfile.constant(0.05).sampler(9)
        assert [sampler.draw() for _ in range(5)] == [0.05] * 5

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
        sampler = profile.sampler(3)
        draws = [sampler.draw() for _ in range(2000)]
        assert min(draws) >= 0.001
        # with stddev >> mean a fair share must actually hit the clamp
        assert sum(d == 0.001 for d in draws) > 100

    def test_seeded_reproducibility(self):
        a = LatencyProfile.gaussian(0.03, 0.01).sampler(9)
        b = LatencyProfile.gaussian(0.03, 0.01).sampler(9)
        assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]

    def test_different_seeds_give_different_draws(self):
        profile = LatencyProfile.gaussian(0.03, 0.01)
        base, other = profile.sampler(9), profile.sampler(10)
        assert [other.draw() for _ in range(3)] != [base.draw() for _ in range(3)]

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
        sampler = LatencyProfile.replay((0.01, 0.02, 0.04)).sampler(9)
        assert [sampler.draw() for _ in range(3)] == [0.01, 0.02, 0.04]

    def test_exhaustion_raises(self):
        sampler = LatencyProfile.replay((0.01,)).sampler(9)
        sampler.draw()
        with pytest.raises(ValidationError, match="exhausted"):
            sampler.draw()

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
