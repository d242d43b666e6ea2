import functools
import math

import numpy as np
import pytest
from scipy import stats

from conftest import intensity_at, quad_norm
from hawkesdecomp import kernels
from hawkesdecomp.kernels import Exp, Product, Pwl, Sns, Sqr, Sum
from hawkesdecomp.likelihood import compensator_increments
from hawkesdecomp.simulate import (
    BlowUpError,
    EventSequence,
    HawkesModel,
    NonStationaryError,
    _invert_compensator,
    simulate,
)


class TestEventSequence:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            EventSequence(np.array([1.0, 0.5]), 2.0)

    def test_rejects_ties(self):
        with pytest.raises(ValueError):
            EventSequence(np.array([0.5, 0.5]), 2.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EventSequence(np.array([0.5, 3.0]), 2.0)
        with pytest.raises(ValueError):
            EventSequence(np.array([-0.5, 1.0]), 2.0)

    @pytest.mark.parametrize(
        "ts", [[math.nan, 1.0, 2.0, 3.5], [1.0, math.nan, 2.0, 3.5]], ids=["first", "middle"]
    )
    def test_rejects_nan(self, ts):
        # NaN fails every comparison, so the order and range checks pass it
        with pytest.raises(ValueError, match="finite"):
            EventSequence(np.array(ts), 4.0)

    def test_empty_allowed(self):
        seq = EventSequence(np.array([]), 1.0)
        assert len(seq) == 0


class TestIntensity:
    def test_no_history(self):
        model = HawkesModel(mu=0.7, kernel=Exp(1, 1))
        empty = EventSequence(np.array([]), 10.0)
        assert intensity_at(model, empty, 5.0) == pytest.approx(0.7)

    def test_hand_value(self):
        model = HawkesModel(mu=1.0, kernel=Exp(1.0, 1.0))
        history = EventSequence(np.array([1.0]), 10.0)
        assert intensity_at(model, history, 2.0) == pytest.approx(1.0 + math.exp(-1.0))

    def test_left_continuity(self):
        # the event at exactly t contributes nothing
        model = HawkesModel(mu=1.0, kernel=Exp(2.0, 1.0))
        history = EventSequence(np.array([1.0]), 10.0)
        assert intensity_at(model, history, 1.0) == pytest.approx(1.0)
        assert intensity_at(model, history, 1.0 + 1e-9) == pytest.approx(3.0, rel=1e-6)


class TestSimulate:
    def test_deterministic_given_seed(self):
        model = HawkesModel(mu=1.0, kernel=Exp(0.5, 1.0))
        a = simulate(model, 50.0, seed=42)
        b = simulate(model, 50.0, seed=42)
        assert np.array_equal(a.timestamps, b.timestamps)
        c = simulate(model, 50.0, seed=43)
        assert not np.array_equal(a.timestamps, c.timestamps)

    def test_rejects_nonstationary(self):
        with pytest.raises(NonStationaryError):
            simulate(HawkesModel(mu=1.0, kernel=Exp(2.0, 1.0)), 10.0, seed=0)
        # boundary norm exactly 1 is refused as well
        with pytest.raises(NonStationaryError):
            simulate(HawkesModel(mu=1.0, kernel=Sqr(1.0, 1.0)), 10.0, seed=0)

    def test_accepts_pwl_sns_below_one(self):
        # the exact norm is about 0.21; the closed-form bound
        # a * int_0^(pi/omega) of the PWL factor is about 4.98
        kernel = Product(Pwl(1.0, 0.01, 2.0), Sns(0.05, 1.0))
        assert kernels.stationarity_norm(kernel).norm_value < 1.0
        events = simulate(HawkesModel(mu=1.0, kernel=kernel), 100.0, seed=0)
        assert len(events) > 0

    def test_blowup_guard(self):
        with pytest.raises(BlowUpError):
            simulate(HawkesModel(mu=100.0, kernel=Exp(0.5, 1.0)), 100.0, seed=0, max_events=1000)

    def test_mean_rate_matches_stationary_formula(self):
        # Lambda = mu / (1 - ||phi||); mu=0.5, norm=0.5 -> rate 1
        model = HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0))
        events = simulate(model, 5000.0, seed=7)
        rate = len(events) / events.horizon_T
        assert rate == pytest.approx(1.0, abs=0.08)

    def test_mean_rate_sns(self):
        # norm = 2A/omega = 0.4 -> Lambda = 1/0.6
        model = HawkesModel(mu=1.0, kernel=Sns(0.4, 2.0))
        events = simulate(model, 3000.0, seed=11)
        rate = len(events) / events.horizon_T
        assert rate == pytest.approx(1.0 / 0.6, rel=0.06)

    def test_output_within_horizon(self):
        model = HawkesModel(mu=1.0, kernel=Sum(Exp(0.2, 1.0), Sqr(0.1, 2.0)))
        events = simulate(model, 200.0, seed=3)
        ts = events.timestamps
        assert ts[0] >= 0 and ts[-1] < 200.0
        assert np.all(np.diff(ts) > 0)

    def test_empty_when_no_immigrant(self):
        # mu T = 1e-6: the Poisson immigrant count is 0 at this seed
        events = simulate(HawkesModel(mu=1e-8, kernel=Exp(0.5, 1.0)), 100.0, seed=0)
        assert len(events) == 0 and events.horizon_T == 100.0


# (mu, kernel): one shape per likelihood path of the benchmark's long-history
# workload, plus a pulse and a pulse times a half-wave with the same support
LAW_SHAPES = {
    "exp": (0.5, Exp(0.5, 1.0)),
    "pwl": (0.5, Pwl(0.15, 0.3, 2.0)),
    "exp_plus_pwl": (0.5, Sum(Exp(0.3, 1.0), Pwl(0.06, 0.3, 2.0))),
    "exp_x_sns": (0.5, Product(Exp(1.0, 0.5), Sns(0.6, 1.5))),
    "exp_x_pwl": (0.5, Product(Exp(1.0, 0.5), Pwl(0.3, 0.5, 2.0))),
    "pwl_x_sns": (0.5, Product(Pwl(1.0, 0.5, 2.0), Sns(0.3, 1.5))),
    "pwl_x_pwl": (0.5, Product(Pwl(0.2, 0.5, 2.0), Pwl(1.0, 0.5, 2.0))),
    "sqr": (0.5, Sqr(0.2, 2.5)),
    "sqr_x_sns": (0.5, Product(Sqr(1.0, 2.0), Sns(0.5, math.pi / 2.0))),
}
LAW_EVENTS = 20000


@functools.lru_cache(maxsize=None)
def law_sample(label):
    """Model, exact norm and one simulation of about ``LAW_EVENTS`` events."""
    mu, kernel = LAW_SHAPES[label]
    norm = quad_norm(kernel)
    horizon = LAW_EVENTS * (1.0 - norm) / mu
    model = HawkesModel(mu=mu, kernel=kernel)
    return model, norm, simulate(model, horizon, seed=5)


@pytest.mark.parametrize("label", list(LAW_SHAPES))
class TestSamplerLaw:
    def test_rescaled_gaps_are_unit_exponential(self, label):
        model, _, events = law_sample(label)
        inc = compensator_increments(model, events)
        assert stats.kstest(inc, "expon").pvalue > 1e-3

    def test_count_matches_stationary_mean(self, label):
        model, norm, events = law_sample(label)
        mean = model.mu * events.horizon_T / (1.0 - norm)
        sd = math.sqrt(mean / (1.0 - norm) ** 2)
        assert abs(len(events) - mean) <= 5.0 * sd

    def test_strictly_increasing_inside_horizon(self, label):
        _, _, events = law_sample(label)
        ts = events.timestamps
        assert ts[0] >= 0.0 and ts[-1] < events.horizon_T
        assert np.all(np.diff(ts) > 0)


class TestLagInversion:
    """Bisection lags against closed-form inverses of the normalized
    compensator.  64 halvings leave a bracket of ``T 2^-64``; the
    compensator's own rounding, about ``eps m`` for mass ``m``, moves the
    crossing by ``eps m / phi(s)``, which the bound adds."""

    U = np.random.default_rng(9).uniform(size=2000)

    def check(self, kernel, horizon, exact):
        mass = kernel.compensator(np.array([horizon]))[0]
        lags = _invert_compensator(kernel, horizon, self.U * mass)
        rounding = 2.0 * np.finfo(float).eps * mass / kernel.evaluate(exact)
        assert np.all(np.abs(lags - exact) <= horizon * 2.0**-60 + rounding)

    @pytest.mark.parametrize("horizon", [3.0, 1e4])
    def test_exp(self, horizon):
        beta = 1.3
        exact = -np.log1p(-self.U * -np.expm1(-beta * horizon)) / beta
        self.check(Exp(0.5, beta), horizon, exact)

    @pytest.mark.parametrize("horizon", [3.0, 1e4])
    def test_sqr(self, horizon):
        self.check(Sqr(0.2, 2.5), horizon, self.U * 2.5)

    def test_product_builds_one_term_set(self, monkeypatch):
        # every halving sums the same term set, built once for the horizon
        built = []
        nodes = kernels._laplace_nodes
        monkeypatch.setattr(kernels, "_laplace_nodes", lambda *a: built.append(a) or nodes(*a))
        kernel = Product(Exp(1.0, 0.5), Pwl(0.3, 0.5, 2.0))
        _invert_compensator(kernel, 500.0, self.U[:50] * kernel.compensator(np.array([500.0]))[0])
        assert [a[-1] for a in built] == [500.0, 500.0]  # the mass, then the bisection
