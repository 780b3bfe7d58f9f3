import math

import numpy as np
import pytest

from crowdcast.core import (
    DiscreteDistribution,
    EmptyInputError,
    InvalidDistributionError,
    InvalidParameterError,
    JointProfile,
    PointForecast,
    ShapeError,
    StageRecord,
    euclidean_distance,
    point_pred_loss,
    trajectory_mse,
    tv_distance,
)

D = DiscreteDistribution


def dist(**kv: float) -> DiscreteDistribution:
    return D(tuple(kv.keys()), tuple(kv.values()))


class TestTvDistance:
    def test_identical_distributions(self):
        p = dist(a=0.5, b=0.5)
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        assert tv_distance(D.dirac("x"), D.dirac("y")) == 1.0

    def test_hand_evaluated_overlap(self):
        p = dist(x=0.75, y=0.25)
        q = dist(x=0.25, y=0.75)
        assert tv_distance(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_triangle_and_range(self):
        rng = np.random.default_rng(42)
        outcomes = tuple("abcde")

        def random_dist():
            w = rng.dirichlet(np.ones(len(outcomes)))
            return D(outcomes, tuple(w / w.sum()))

        for _ in range(1000):
            p, q, r = random_dist(), random_dist(), random_dist()
            dpq = tv_distance(p, q)
            assert dpq == pytest.approx(tv_distance(q, p), abs=1e-15)
            assert 0.0 <= dpq <= 1.0
            assert dpq <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
            assert tv_distance(p, p) == 0.0


class TestDiscreteDistribution:
    def test_sum_must_be_one(self):
        with pytest.raises(InvalidDistributionError):
            D(("a", "b"), (0.6, 0.6))

    def test_negative_prob_rejected(self):
        with pytest.raises(InvalidDistributionError):
            D(("a", "b"), (1.2, -0.2))

    def test_duplicate_support_rejected(self):
        with pytest.raises(InvalidDistributionError):
            D(("a", "a"), (0.5, 0.5))

    def test_support_canonically_sorted(self):
        d1 = dist(b=0.25, a=0.75)
        d2 = dist(a=0.75, b=0.25)
        assert d1 == d2
        assert d1.support == ("a", "b")

    def test_mean_and_mode(self):
        d = D((0.0, 1.0), (0.25, 0.75))
        assert d.mean() == pytest.approx(0.75)
        assert d.mode() == 1.0

    def test_from_mapping_normalizes(self):
        d = D.from_mapping({"a": 2, "b": 6})
        assert d.prob("a") == pytest.approx(0.25)

    def test_close_to(self):
        d1 = dist(a=0.5, b=0.5)
        d2 = dist(a=0.5 + 5e-10, b=0.5 - 5e-10)
        assert d1.close_to(d2)
        assert not d1.close_to(dist(a=0.4, b=0.6))

    def test_euclidean_distance(self):
        assert euclidean_distance(D.dirac("x"), D.dirac("y")) == pytest.approx(math.sqrt(2))


class TestPointPredLoss:
    def test_zero_at_match(self):
        a = PointForecast((3.0, 5.0))
        assert point_pred_loss(a, (3.0, 5.0)) == 0.0

    def test_one_dimensional_square(self):
        assert point_pred_loss(PointForecast((0.0,)), (2.0,)) == 4.0

    def test_componentwise_squares_summed(self):
        assert point_pred_loss(PointForecast((1.0, 1.0)), (0.0, 2.0)) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            point_pred_loss(PointForecast((1.0,)), (1.0, 2.0))

    def test_square_beyond_float_range_is_inf(self):
        assert point_pred_loss(PointForecast((1e200,)), (0.0,)) == math.inf

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = tuple(rng.normal(size=3))
            y = tuple(rng.normal(size=3))
            loss = point_pred_loss(PointForecast(a), y)
            assert (loss == 0.0) == (a == y)


class TestTrajectoryMse:
    @staticmethod
    def record(t, a, y):
        return StageRecord(t=t, w="w0", a=PointForecast(a), y=PointForecast(y))

    def test_zero_when_forecasts_match(self):
        recs = [self.record(t, (1.0, 2.0), (1.0, 2.0)) for t in range(5)]
        assert trajectory_mse(recs) == 0.0

    def test_mean_of_two(self):
        recs = [self.record(0, (0.0,), (2.0,)), self.record(1, (1.0,), (1.0,))]
        assert trajectory_mse(recs) == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        recs = [
            self.record(t, tuple(rng.normal(size=4)), tuple(rng.normal(size=4)))
            for t in range(20)
        ]
        shuffled = [recs[i] for i in rng.permutation(20)]
        assert trajectory_mse(recs) == pytest.approx(trajectory_mse(shuffled), rel=1e-12)

    def test_empty_trajectory(self):
        with pytest.raises(EmptyInputError):
            trajectory_mse([])


class TestValueTypes:
    def test_point_forecast_requires_entries(self):
        with pytest.raises(ShapeError):
            PointForecast(())

    def test_point_forecast_requires_finite(self):
        with pytest.raises(InvalidParameterError):
            PointForecast((math.nan,))

    def test_joint_profile_validation(self):
        with pytest.raises(InvalidParameterError):
            JointProfile((0, -1))
        profile = JointProfile((0, 2, 1))
        assert profile.within_slots(3)
        assert not profile.within_slots(2)
        assert profile[1] == 2
