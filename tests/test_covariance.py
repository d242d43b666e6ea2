import numpy as np
import pytest

from hawkesdecomp.covariance import (
    covariance_grid,
    estimate_lambda,
    horizon_from_histogram,
)
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate
from hawkesdecomp.kernels import Exp
from hawkesdecomp.search import lag_grid


class TestLambdaHat:
    def test_rate(self):
        seq = EventSequence(np.array([0.5, 1.0, 2.5]), 3.0)
        assert estimate_lambda(seq) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_lambda(EventSequence(np.array([]), 1.0))


class TestCovarianceGrid:
    def test_hand_computed_small_case(self):
        # events {0.1, 0.2, 1.1} on [0, 3] with delta = 1:
        # bin counts [2, 1, 0], lambda_hat = 1, centered [1, 0, -1],
        # nu(0) = (1 + 0 + 1)/3 = 2/3, nu(1) = (1*0 + 0*(-1))/3 = 0
        seq = EventSequence(np.array([0.1, 0.2, 1.1]), 3.0)
        grid = covariance_grid(seq, delta=1.0, tau_max=2.0)
        assert grid.lambda_hat == pytest.approx(1.0)
        assert grid.values == pytest.approx([2.0 / 3.0, 0.0])
        assert grid.lags == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize("seed", [6, 8, 41, 43, 47, 48])
    def test_resolution_steps_give_resolution_lags(self, seed):
        # on these sequences horizon / (horizon / 100) is a few ulps below 100
        events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 2000.0, seed=seed)
        horizon, delta = lag_grid(events, 100, 0.95)
        assert horizon / delta < 100
        grid = covariance_grid(events, delta, horizon)
        assert len(grid.values) == 100
        assert grid.lags[-1] < horizon

    def test_lag_count_is_floor_of_ratio(self):
        seq = EventSequence(np.linspace(0.05, 9.95, 100), 10.0)
        assert len(covariance_grid(seq, delta=0.3, tau_max=1.0).values) == 3
        assert len(covariance_grid(seq, delta=0.25, tau_max=1.0).values) == 4

    def test_parameter_validation(self):
        seq = EventSequence(np.array([0.1, 0.2, 1.1]), 3.0)
        with pytest.raises(ValueError):
            covariance_grid(seq, delta=2.0, tau_max=1.0)
        with pytest.raises(ValueError):
            covariance_grid(seq, delta=0.5, tau_max=5.0)

    def test_poisson_covariance_vanishes_off_zero(self):
        # a homogeneous Poisson stream has nu(0) ~ lambda and nu(k) ~ 0
        rng = np.random.default_rng(21)
        T = 4000.0
        ts = np.sort(rng.uniform(0.0, T, size=4000))
        seq = EventSequence(ts, T)
        grid = covariance_grid(seq, delta=0.5, tau_max=5.0)
        assert grid.values[0] == pytest.approx(grid.lambda_hat, rel=0.1)
        assert np.max(np.abs(grid.values[1:])) < 0.1 * grid.values[0]

    def test_hawkes_positive_short_lag_covariance(self):
        model = HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0))
        events = simulate(model, 4000.0, seed=9)
        grid = covariance_grid(events, delta=0.25, tau_max=5.0)
        # self-excitation produces clearly positive covariance at short lags
        assert np.all(grid.values[:4] > 0)
        # and it decays with the lag
        assert np.mean(grid.values[1:5]) > np.mean(grid.values[12:20])


class TestHorizonHeuristic:
    def test_deterministic_two_cluster_case(self):
        # 99 unit intervals and one of length 2: the first histogram bin
        # holds 99% of the mass, so the horizon is its upper edge 1.01
        ts = np.concatenate([np.arange(100.0), [101.0]])
        seq = EventSequence(ts, 101.0)
        assert horizon_from_histogram(seq, 0.95) == pytest.approx(1.01)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        ts = np.sort(rng.uniform(0, 100, size=500))
        seq = EventSequence(ts, 100.0)
        scaled = EventSequence(ts * 60.0, 6000.0)
        h = horizon_from_histogram(seq, 0.9)
        assert horizon_from_histogram(scaled, 0.9) == pytest.approx(60.0 * h)

    def test_percentile_validation(self):
        seq = EventSequence(np.array([0.1, 0.2, 1.1]), 3.0)
        with pytest.raises(ValueError):
            horizon_from_histogram(seq, 0.0)
        with pytest.raises(ValueError):
            horizon_from_histogram(seq, 1.0)
