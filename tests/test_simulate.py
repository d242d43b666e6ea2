import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import bisect_compensator, intensity_at, quad_norm, tied_product
from hawkesdecomp import kernels
from hawkesdecomp.kernels import Exp, Product, Pwl, Sns, Sqr, Sum
from hawkesdecomp.likelihood import compensator_increments
from hawkesdecomp.simulate import (
    BlowUpError,
    EventSequence,
    HawkesModel,
    NonStationaryError,
    _compensator_inverse,
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


_EXP = HawkesModel(mu=1.0, kernel=Exp(0.5, 1.0))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: HawkesModel(mu=0.0, kernel=Exp(0.5, 1.0)), "mu must be strictly positive"),
        (lambda: HawkesModel(mu=-1.0, kernel=Exp(0.5, 1.0)), "mu must be strictly positive"),
        (lambda: EventSequence(np.zeros((2, 2)), 1.0), "one-dimensional"),
        (lambda: EventSequence(np.array([]), 0.0), "horizon_T must be positive, got 0.0"),
        (lambda: EventSequence(np.array([0.5]), -1.0), "horizon_T must be positive, got -1.0"),
        # the sequence built at the end says "must be positive, got 0.0"; simulate refuses first
        (lambda: simulate(_EXP, 0.0, seed=0), r"^horizon_T must be finite and positive, got 0\.0$"),
        (lambda: simulate(_EXP, -1.0, seed=0), r"^horizon_T must be finite and positive, got -1\.0$"),
        # NaN passed the sign test and reached numpy's Poisson draw; inf reached the event cap
        (lambda: simulate(_EXP, math.nan, seed=0), "^horizon_T must be finite and positive, got nan$"),
        (lambda: simulate(_EXP, math.inf, seed=0), "^horizon_T must be finite and positive, got inf$"),
        (lambda: simulate(_EXP, -math.inf, seed=0), "^horizon_T must be finite and positive, got -inf$"),
        (lambda: simulate(_EXP, 10.0, seed=-1), "^seed must be a non-negative integer, got -1$"),
        (lambda: simulate(_EXP, 10.0, seed=True), "^seed must be a non-negative integer, got True$"),
        (lambda: simulate(_EXP, 10.0, seed=1.5), r"^seed must be a non-negative integer, got 1\.5$"),
        (lambda: simulate(_EXP, 10.0, seed="3"), "^seed must be a non-negative integer, got '3'$"),
    ],
    ids=["mu 0", "mu -1", "2-D timestamps", "horizon 0", "horizon -1", "simulate 0", "simulate -1",
         "simulate nan", "simulate inf", "simulate -inf", "seed -1", "seed True", "seed 1.5", "seed str"],
)
def test_rejects_invalid_arguments(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_seed():
    assert np.array_equal(simulate(_EXP, 20.0, seed=np.int64(4)).timestamps, simulate(_EXP, 20.0, seed=4).timestamps)


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

    def test_realized_count_cap(self):
        # 200 events are expected, so the up-front guard passes; this seed
        # realizes 304
        model = HawkesModel(mu=1.0, kernel=Exp(0.5, 1.0))
        with pytest.raises(BlowUpError, match="realized event count exceeds cap 200"):
            simulate(model, 100.0, seed=4, max_events=200)

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
    """Lags against closed-form inverses of the normalized compensator.  The
    bound allows ``T 2^-60``, above the finest lag of the bracket table; the
    compensator's own rounding, about ``eps m`` for mass ``m``, moves the
    crossing by ``eps m / phi(s)``, which the bound adds."""

    U = np.random.default_rng(9).uniform(size=2000)

    def check(self, kernel, horizon, exact):
        mass = kernel.compensator(np.array([horizon]))[0]
        lags = _compensator_inverse(kernel, horizon)[1](self.U * mass)
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
        # every Newton step sums the same term set, built once for the horizon
        built = []
        nodes = kernels._laplace_nodes
        monkeypatch.setattr(kernels, "_laplace_nodes", lambda *a: built.append(a) or nodes(*a))
        kernel = Product(Exp(1.0, 0.5), Pwl(0.3, 0.5, 2.0))
        _compensator_inverse(kernel, 500.0)[1](self.U[:50] * kernel.compensator_within(500.0)(np.array([500.0]))[0])
        assert [a[-1] for a in built] == [500.0, 500.0]  # the inversion, then the targets' mass


# the long-history and law shapes above, plus two half-waves of one frequency
INVERSION_SHAPES = {label: kernel for label, (_, kernel) in LAW_SHAPES.items()}
INVERSION_SHAPES["sns_x_sns"] = Product(Sns(0.5, 1.5), Sns(1.0, 1.5))
EPS = np.finfo(float).eps


@pytest.mark.parametrize("horizon", [3.0, 1e4])
@pytest.mark.parametrize("label", list(INVERSION_SHAPES))
class TestNewtonInversion:
    """The Newton lags against the 64-halving bisection of ``conftest``,
    within ``TestLagInversion``'s bound, and against the compensator."""

    U = np.random.default_rng(9).uniform(size=2000)

    def test_matches_bisection(self, label, horizon):
        kernel = INVERSION_SHAPES[label]
        targets = self.U * kernel.compensator_within(horizon)(np.array([horizon]))[0]
        lags = _compensator_inverse(kernel, horizon)[1](targets)
        oracle = bisect_compensator(kernel, horizon, targets)
        rounding = 2.0 * EPS * targets.max() / kernel.evaluate(oracle)
        assert np.all(np.abs(lags - oracle) <= horizon * 2.0**-60 + rounding)

    def test_meets_targets(self, label, horizon):
        kernel = INVERSION_SHAPES[label]
        mass, invert = _compensator_inverse(kernel, horizon)
        targets = self.U * mass
        lags = invert(targets)
        assert np.all((lags > 0.0) & (lags <= horizon))
        miss = np.abs(kernel.compensator_within(horizon)(lags) - targets)
        assert np.all(miss <= 4.0 * EPS * mass)

    def test_few_compensator_evaluations(self, label, horizon, monkeypatch):
        # one batched call for the bracket table, then one per Newton step of
        # the slowest target; the bisection took 65
        kernel, calls = INVERSION_SHAPES[label], []
        within = type(kernel).compensator_within

        def counted(self, h):
            integral = within(self, h)
            return lambda s: calls.append(s.size) or integral(s)

        monkeypatch.setattr(type(kernel), "compensator_within", counted)
        mass, invert = _compensator_inverse(kernel, horizon)
        invert(self.U * mass)
        assert len(calls) <= 16


def test_simulate_builds_one_term_set_at_the_horizon(monkeypatch):
    # the mass and every lag come from one compensator_within(T); the other
    # build is the stationarity norm's, up to 40 / beta
    built = []
    nodes = kernels._laplace_nodes
    monkeypatch.setattr(kernels, "_laplace_nodes", lambda *a: built.append(a) or nodes(*a))
    simulate(HawkesModel(mu=0.5, kernel=Product(Exp(1.0, 0.5), Pwl(0.3, 0.5, 2.0))), 500.0, seed=1)
    assert [a[-1] for a in built] == [80.0, 500.0]


# kernels across the fit bounds: every field in [1e-8, 1e8], p in (1, 10]
_FIELD = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)
_BASE = st.one_of(
    st.builds(Exp, _FIELD, _FIELD),
    st.builds(Pwl, _FIELD, _FIELD, st.floats(1.0 + 1e-8, 10.0)),
    st.builds(Sqr, _FIELD, _FIELD),
    st.builds(Sns, _FIELD, _FIELD),
)
# the tied products of the fits: one omega sets both supports
_TIED = st.one_of(
    st.builds(lambda b, a, w: Product(Sqr(b, math.pi / w), Sns(a, w)), _FIELD, _FIELD, _FIELD),
    st.builds(lambda a, b, w: Product(Sns(a, w), Sqr(b, math.pi / w)), _FIELD, _FIELD, _FIELD),
    st.builds(lambda a1, a2, w: Product(Sns(a1, w), Sns(a2, w)), _FIELD, _FIELD, _FIELD),
)
_KERNEL = st.one_of(
    _BASE,
    st.builds(Sum, _BASE, _BASE),
    st.builds(tied_product, _BASE, _BASE),
    _TIED,
)


@given(
    kernel=_KERNEL,
    horizon=st.floats(-2.0, 5.0).map(lambda e: 10.0**e),
    fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
)
@settings(max_examples=150, deadline=None)
def test_inversion_across_fit_bounds(kernel, horizon, fractions):
    # a RuntimeWarning is an error in this suite.  The compensator is exact
    # to rounding of the mass on its whole support (on [0, horizon] when that
    # is unbounded), so targets are met to that; a lag at the table's first
    # knot, horizon 2^-64, may miss a target below the compensator there
    mass, invert = _compensator_inverse(kernel, horizon)
    end = kernel.support_end()
    reach = horizon if math.isinf(end) else max(horizon, end)
    scale = kernel.compensator_within(reach)(np.array([reach]))[0]
    targets = np.array(fractions) * mass
    lags = invert(targets)
    assert np.all((lags > 0.0) & (lags <= horizon))
    miss = np.abs(kernel.compensator_within(horizon)(lags) - targets)
    assert np.all((miss <= 4.0 * EPS * scale) | (lags == horizon * 2.0**-64))
