import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hawkesdecomp
from conftest import dense_covariance
from hawkesdecomp.covariance import (
    CovarianceGrid,
    covariance_grid,
    estimate_lambda,
    horizon_from_histogram,
)
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate
from hawkesdecomp.kernels import Exp
from hawkesdecomp.search import DecompositionConfig, NoStationaryModelError, decompose, kernel_estimate, train_test_split


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
        _, _, grid, _ = kernel_estimate(events, DecompositionConfig(resolution=100))
        assert grid.tau_max / grid.delta < 100
        assert len(grid.values) == 100
        assert grid.lags[-1] < grid.tau_max

    @pytest.mark.parametrize(
        "events",
        # the heuristic's 4.09 binds; half the training window [0, 3] binds, below the heuristic's 2.8
        [simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 2000.0, seed=6),
         EventSequence(np.array([0.0, 0.1, 0.2, 3.0, 3.5, 4.0]), 4.0)],
        ids=["heuristic", "half window"],
    )
    def test_heuristic_horizon_of_training_part(self, events):
        train, _ = train_test_split(events, 0.6)
        _, _, grid, _ = kernel_estimate(events, DecompositionConfig(resolution=50, holdout=0.6))
        assert grid.tau_max == min(horizon_from_histogram(train), train.horizon_T / 2)
        assert grid.delta == grid.tau_max / 50

    def test_tau_max_capped_at_half_the_training_window(self):
        events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 200.0, seed=6)
        train, _ = train_test_split(events, 0.6)
        _, _, grid, _ = kernel_estimate(events, DecompositionConfig(tau_max=1e6, holdout=0.6))
        assert grid.tau_max == train.horizon_T / 2
        assert grid.delta == grid.tau_max / 100

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


def _uniform(n, T, seed):
    return np.sort(np.random.default_rng(seed).uniform(0.0, T, size=n))


# (timestamps, horizon_T, delta, tau_max) of small sequences, each a shape of
# bin occupancy that the pair count must get right
ORACLE_CASES = {
    "one_bin": (np.array([0.1, 0.2, 0.3, 0.4, 0.45]), 10.0, 1.0, 5.0),
    "many_per_bin": (_uniform(400, 8.0, 1), 8.0, 0.5, 4.0),
    "sparse": (_uniform(12, 2000.0, 2), 2000.0, 0.5, 2.5),
    # half-open bins: each event opens its bin, and one at T lies past bin m
    "bin_edges": (np.array([0.25, 0.5, 0.75, 1.5, 2.0, 2.25, 3.0]), 3.0, 0.25, 1.0),
    # the events in [10, 10.5] fill no whole bin and are dropped
    "trailing_partial_bin": (np.array([0.5, 1.2, 1.7, 4.0, 9.9, 10.0, 10.2, 10.5]), 10.5, 1.0, 3.0),
    "every_lag": (_uniform(30, 8.0, 3), 8.0, 1.0, 8.0),
    "hawkes": (simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 200.0, seed=5).timestamps, 200.0, 0.1, 2.0),
}


class TestPairCountOracle:
    """``covariance_grid`` against the dense definition in exact rationals,
    to 8 eps times the summed magnitude of the three terms of its expanded
    form (the rounding of ``L``, the two products and two sums)."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_dense_definition(self, case):
        ts, T, delta, tau_max = ORACLE_CASES[case]
        events = EventSequence(ts, T)
        grid = covariance_grid(events, delta, tau_max)
        nu, scale = dense_covariance(events, delta, len(grid.values))
        bound = 8 * Fraction(np.finfo(float).eps)
        for k, value in enumerate(grid.values):
            assert abs(Fraction(float(value)) - nu[k]) <= bound * scale[k], (case, k)

    def test_lag_count_can_equal_bin_count(self):
        ts, T, delta, tau_max = ORACLE_CASES["every_lag"]
        assert len(covariance_grid(EventSequence(ts, T), delta, tau_max).values) == int(T / delta)


class TestEpochOffset:
    """Epoch-second timestamps: nothing in the estimate is sized by the
    horizon."""

    @pytest.fixture(scope="class")
    def shifted(self):
        events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 10_000.0, seed=3)
        assert len(events) > 9000
        return EventSequence(events.timestamps + 1.6e9, events.horizon_T + 1.6e9)

    def test_covariance_memory_bounded(self, shifted):
        tracemalloc.start()
        try:
            grid = covariance_grid(shifted, 0.1, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(grid.values) == 100 and np.all(np.isfinite(grid.values))

    def test_decompose_ends_in_result_or_typed_error(self, shifted):
        try:
            decompose(shifted, DecompositionConfig(tau_max=10.0))
        except (ValueError, NoStationaryModelError):
            pass


# decomposes one PWL sequence and prints result.json's bytes
_DECOMPOSE_PWL = """
import json, sys
from hawkesdecomp import DecompositionConfig, HawkesModel, Pwl, decompose, simulate
from hawkesdecomp.io import result_to_dict
events = simulate(HawkesModel(mu=0.5, kernel=Pwl(0.15, 0.3, 2.0)), 2000.0, seed=4)
result = decompose(events, DecompositionConfig(tau_max=10.0))
sys.stdout.write(json.dumps(result_to_dict(result), sort_keys=True, indent=2))
"""


def test_result_independent_of_blas_threads():
    # np.dot sums in an order set by the thread count; the covariance grid
    # makes no BLAS call, so result.json must not depend on it
    src = str(Path(hawkesdecomp.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _DECOMPOSE_PWL], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    json.loads(outputs[0])
    assert outputs[0] == outputs[1]


class TestHorizonHeuristic:
    def test_deterministic_two_cluster_case(self):
        # 99 unit intervals and one of length 2: the first histogram bin
        # holds 99% of the mass, so the horizon is its upper edge 1.01
        ts = np.concatenate([np.arange(100.0), [101.0]])
        seq = EventSequence(ts, 101.0)
        assert horizon_from_histogram(seq) == pytest.approx(1.01)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        ts = np.sort(rng.uniform(0, 100, size=500))
        seq = EventSequence(ts, 100.0)
        scaled = EventSequence(ts * 60.0, 6000.0)
        h = horizon_from_histogram(seq)
        assert horizon_from_histogram(scaled) == pytest.approx(60.0 * h)

    def test_equal_huge_intervals_rejected(self):
        # numpy cannot split the unit-wide range around 1e17 into 100 bins
        seq = EventSequence(np.array([0.0, 1e17, 2e17, 3e17]), 3e17)
        with pytest.raises(ValueError, match=r"intervals \(1e\+17 to 1e\+17\) are all equal.*tau_max \(--tau-max\)"):
            horizon_from_histogram(seq)
        # equal intervals whose unit-wide range splits into 100 bins keep their horizon
        assert horizon_from_histogram(EventSequence(np.arange(4.0), 3.0)) == pytest.approx(1.01)


_ONE_EVENT = EventSequence(np.array([0.5]), 3.0)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CovarianceGrid(np.ones(4), 0.1, 0.4, -1.0), "lambda_hat must be nonnegative"),
        (lambda: covariance_grid(_ONE_EVENT, 0.5, 1.0), "need at least two events to estimate covariance"),
        # T / delta = 3e302 bins overflowed the int64 bin index; 2^53 is the first refused
        (lambda: covariance_grid(_ONE_EVENT, 1e-302, 1e-300), "2\\^53 bins.*tau_max or lower resolution"),
        (lambda: covariance_grid(_ONE_EVENT, 3.0 / 2.0**53, 1e-3), "tau_max / resolution"),
        (lambda: horizon_from_histogram(_ONE_EVENT), "need at least two events"),
    ],
    ids=["negative lambda_hat", "grid of one event", "grid of 3e302 bins", "grid of 2^53 bins",
         "histogram of one event"],
)
def test_rejects_invalid_arguments(build, message):
    with pytest.raises(ValueError, match=message):
        build()
