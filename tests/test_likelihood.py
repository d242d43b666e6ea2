import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import exp_log_likelihood, intensity_at, quad_norm, tied_product
from hawkesdecomp import kernels, likelihood
from hawkesdecomp.kernels import (
    Exp,
    Product,
    Pwl,
    Sns,
    Sqr,
    Sum,
    evaluate,
    stationarity_norm,
    support_end,
)
from hawkesdecomp.likelihood import (
    compensator,
    compensator_increments,
    log_likelihood,
)
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate


def quad_compensator(kernel, s):
    """Independent quadrature of the truncated kernel integral, split at the
    interior discontinuities of the pulse and sinusoid parts."""
    if s <= 0:
        return 0.0
    end = min(s, support_end(kernel))
    if end <= 0:
        return 0.0
    parts = [kernel.left, kernel.right] if isinstance(kernel, (Sum, Product)) else [kernel]
    pts = sorted({support_end(p) for p in parts if 0 < support_end(p) < end})
    return quad(
        lambda u: evaluate(kernel, u), 0.0, end, points=pts or None,
        epsabs=1e-12, epsrel=1e-12, limit=300,
    )[0]


def random_kernel(rng):
    def base(fam):
        if fam == "EXP":
            return Exp(rng.uniform(0.1, 3), rng.uniform(0.1, 3))
        if fam == "PWL":
            return Pwl(rng.uniform(0.1, 3), rng.uniform(0.2, 3), rng.uniform(1.2, 4))
        if fam == "SQR":
            return Sqr(rng.uniform(0.1, 3), rng.uniform(0.2, 4))
        return Sns(rng.uniform(0.1, 3), rng.uniform(0.3, 4))

    fams = ["EXP", "PWL", "SQR", "SNS"]
    shape = rng.integers(0, 3)
    if shape == 0:
        return base(rng.choice(fams))
    if shape == 1:
        return Sum(base(rng.choice(fams)), base(rng.choice(fams)))
    return tied_product(base(rng.choice(fams)), base(rng.choice(fams)))


class TestCompensator:
    def test_hand_values(self):
        # EXP: (alpha/beta)(1 - e^{-beta s})
        assert compensator(Exp(2, 1), 1.0) == pytest.approx(2 * (1 - math.exp(-1)))
        # SQR saturates at b*l past the support
        assert compensator(Sqr(0.5, 2.0), 5.0) == pytest.approx(1.0)
        # SNS over its full half-wave: 2a/omega
        assert compensator(Sns(1.0, 2.0), 10.0) == pytest.approx(1.0)
        # PWL: k(c^{1-p} - (c+s)^{1-p})/(p-1)
        assert compensator(Pwl(1, 1, 2), 1.0) == pytest.approx(0.5)

    def test_zero_and_negative_horizon(self):
        assert compensator(Exp(1, 1), 0.0) == 0.0
        assert compensator(Exp(1, 1), -2.0) == 0.0

    def test_matches_quadrature_all_shapes(self):
        rng = np.random.default_rng(17)
        for _ in range(120):
            k = random_kernel(rng)
            s = float(rng.uniform(0.01, 8.0))
            assert compensator(k, s) == pytest.approx(quad_compensator(k, s), abs=1e-8), k

    def test_monotone_and_bounded_by_norm(self):
        # Phi(s) is nondecreasing and never exceeds the full integral; for a
        # heavy power-law tail the limit is approached slowly, so only the
        # bound (not equality at finite s) can be asserted in general
        rng = np.random.default_rng(18)
        for _ in range(30):
            k = random_kernel(rng)
            total = quad_norm(k)
            vals = compensator(k, np.linspace(0.0, 50.0, 40))
            assert np.all(np.diff(vals) >= -1e-10)
            assert np.all(vals <= total * (1 + 1e-6) + 1e-9)

    def test_finite_support_saturates_to_norm(self):
        # once past the support endpoint the compensator equals the full norm
        for k in (
            Sqr(0.7, 2.0),
            Sns(1.2, 1.5),
            Product(Sqr(1.0, math.pi), Sns(0.5, 1.0)),
            Product(Pwl(1.0, 0.5, 1.3), Sns(0.8, 2.0)),
        ):
            end = support_end(k)
            assert compensator(k, end + 5.0) == pytest.approx(quad_norm(k), rel=1e-8)

    @pytest.mark.parametrize(
        "kernel", [Exp(0.5, 1.0), Product(Exp(0.5, 1.0), Pwl(1.0, 1.0, 2.0))], ids=["EXP", "EXPxPWL"]
    )
    def test_empty_lags(self, kernel):
        # a product builds its term set from the largest lag, which an empty array lacks
        out = compensator(kernel, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_vectorized(self):
        k = Product(Exp(1, 1), Sns(0.5, 2.0))
        ss = np.linspace(0, 4, 17)
        assert compensator(k, ss) == pytest.approx([compensator(k, float(s)) for s in ss])

    def test_sns_sns_distinct_frequencies(self):
        k = Product(Sns(1.0, 1.0), Sns(1.0, 1.04))
        for s in (0.5, 1.5, 4.0):
            assert compensator(k, s) == pytest.approx(quad_compensator(k, s), abs=1e-10)


class TestLogLikelihood:
    def test_poisson_closed_form(self):
        # with a negligible kernel the model is close to Poisson:
        # l = n log(mu) - mu T
        mu = 1.3
        ts = np.array([0.4, 1.0, 2.2, 3.7])
        events = EventSequence(ts, 5.0)
        model = HawkesModel(mu=mu, kernel=Exp(1e-12, 1.0))
        llh = log_likelihood(model, events)
        assert llh.value == pytest.approx(4 * math.log(mu) - mu * 5.0, abs=1e-8)
        assert llh.n_events == 4

    def test_empty_sequence(self):
        model = HawkesModel(mu=2.0, kernel=Exp(0.5, 1.0))
        llh = log_likelihood(model, EventSequence(np.array([]), 3.0))
        assert llh.value == pytest.approx(-6.0)

    def test_matches_direct_quadrature(self):
        # l = sum log lambda(t_i) - int_0^T lambda; compare against numeric
        # integration of the intensity path
        model = HawkesModel(mu=0.8, kernel=Sum(Exp(0.3, 1.0), Sqr(0.1, 1.5)))
        events = simulate(model, 30.0, seed=2)
        llh = log_likelihood(model, events)
        ts = events.timestamps
        pts = sorted(set(np.concatenate([ts, ts + 1.5]).tolist()))
        pts = [p for p in pts if 0 < p < 30.0]
        integral = quad(
            lambda u: intensity_at(model, events, u),
            0.0,
            30.0,
            points=pts,
            limit=500,
            epsabs=1e-10,
            epsrel=1e-10,
        )[0]
        direct = sum(math.log(intensity_at(model, events, t)) for t in ts) - integral
        assert llh.value == pytest.approx(direct, abs=1e-6)

    def test_true_model_beats_perturbed(self):
        model = HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0))
        events = simulate(model, 2000.0, seed=13)
        base = log_likelihood(model, events).value
        for other in (
            HawkesModel(mu=0.5, kernel=Exp(0.25, 1.0)),
            HawkesModel(mu=0.5, kernel=Exp(0.5, 2.0)),
            HawkesModel(mu=1.2, kernel=Exp(0.5, 1.0)),
        ):
            assert base > log_likelihood(other, events).value


class TestCompensatorIncrements:
    def test_sum_telescopes_to_total(self):
        model = HawkesModel(mu=0.7, kernel=Exp(0.4, 1.0))
        events = simulate(model, 100.0, seed=4)
        inc = compensator_increments(model, events)
        assert inc.shape == (len(events),)
        total = model.mu * events.timestamps[-1] + float(
            np.sum(compensator(model.kernel, events.timestamps[-1] - events.timestamps))
        )
        assert float(np.sum(inc)) == pytest.approx(total, abs=1e-6)

    def test_unit_exponential_under_true_model(self):
        # time-rescaling: increments under the generating model are
        # approximately unit-exponential
        model = HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0))
        events = simulate(model, 3000.0, seed=6)
        inc = compensator_increments(model, events)
        assert float(np.mean(inc)) == pytest.approx(1.0, abs=0.05)
        assert float(np.var(inc)) == pytest.approx(1.0, abs=0.15)

    def test_empty(self):
        model = HawkesModel(mu=1.0, kernel=Exp(0.5, 1.0))
        assert compensator_increments(model, EventSequence(np.array([]), 1.0)).size == 0


# ---------------------------------------------------------------------------
# the engine against a brute-force oracle


def _ends(kernel):
    parts = [kernel.left, kernel.right] if isinstance(kernel, (Sum, Product)) else [kernel]
    return sorted({support_end(p) for p in parts if math.isfinite(support_end(p))})


def brute_intensities(model, ts):
    """The pair sum over every earlier event, with no truncation."""
    return np.array([model.mu + float(np.sum(evaluate(model.kernel, t - ts[:i]))) for i, t in enumerate(ts)])


def brute_log_likelihood(model, events):
    ts, T = events.timestamps, events.horizon_T
    lam = brute_intensities(model, ts)
    tail = sum(quad_compensator(model.kernel, T - t) for t in ts)
    return float(np.sum(np.log(lam))) - model.mu * T - tail


def brute_increments(model, events):
    """``int_{t_{i-1}}^{t_i} lambda(u) du`` by quadrature of the pair-sum
    intensity, split where an earlier event's support ends."""
    ts = events.timestamps
    ends = _ends(model.kernel)
    out = []
    for lo, hi in zip(np.concatenate(([0.0], ts[:-1])), ts):
        pts = sorted({t + e for t in ts[ts < hi] for e in ends if lo < t + e < hi})
        out.append(quad(
            lambda u: intensity_at(model, events, u), lo, hi, points=pts or None,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )[0])
    return np.array(out)


def criterion_2_base(fam, rng):
    """One base kernel drawn from acceptance criterion 2's parameter ranges."""
    if fam == "EXP":
        return Exp(rng.uniform(0.1, 1.0), rng.uniform(0.5, 3))
    if fam == "PWL":
        return Pwl(rng.uniform(0.05, 0.5), rng.uniform(0.3, 2), rng.uniform(1.3, 4))
    if fam == "SQR":
        return Sqr(rng.uniform(0.05, 0.5), rng.uniform(0.3, 2))
    return Sns(rng.uniform(0.05, 0.5), rng.uniform(0.5, 3))


FAMS = ("EXP", "PWL", "SQR", "SNS")
SHAPES = (
    [(f,) for f in FAMS]
    + [("+", a, b) for a, b in itertools.combinations_with_replacement(FAMS, 2)]
    + [("x", a, b) for a, b in itertools.combinations_with_replacement(FAMS, 2)]
)


def shape_model(shape, seed):
    """A stationary model of ``shape`` whose 60-unit sequence has 20-300 events."""
    rng = np.random.default_rng(seed)
    while True:
        if len(shape) == 1:
            kernel = criterion_2_base(shape[0], rng)
        else:
            left, right = criterion_2_base(shape[1], rng), criterion_2_base(shape[2], rng)
            if shape[0] == "+":
                kernel = Sum(left, right)
            else:
                if isinstance(left, (Sqr, Sns)) and isinstance(right, (Sqr, Sns)):
                    end = left.l if isinstance(left, Sqr) else math.pi / left.omega
                    right = Sqr(right.b, end) if isinstance(right, Sqr) else Sns(right.a, math.pi / end)
                kernel = Product(left, right)
        if not stationarity_norm(kernel).stationary:
            continue
        model = HawkesModel(mu=rng.uniform(0.3, 1.0), kernel=kernel)
        events = simulate(model, 60.0, seed=int(rng.integers(1 << 30)))
        if 20 <= len(events) <= 300:
            return model, events


@pytest.fixture
def no_quadrature(monkeypatch):
    """The likelihood path integrates nothing numerically."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the likelihood path called quad")

    monkeypatch.setattr(likelihood, "quad", forbidden)


@pytest.mark.usefixtures("no_quadrature")
class TestEngineAgainstBruteForce:
    @pytest.mark.parametrize("shape", SHAPES, ids="".join)
    def test_matches_pair_sum(self, shape):
        model, events = shape_model(shape, seed=len(shape) * 100 + SHAPES.index(shape))
        lam = likelihood._event_intensities(model, events)
        np.testing.assert_allclose(lam, brute_intensities(model, events.timestamps), rtol=1e-10, atol=0)
        assert log_likelihood(model, events).value == pytest.approx(
            brute_log_likelihood(model, events), rel=1e-10, abs=0)
        np.testing.assert_allclose(
            compensator_increments(model, events), brute_increments(model, events), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kernel", [
        Sqr(0.3, 1.0), Sum(Exp(0.2, 1.0), Sqr(0.2, 0.5)), Product(Pwl(0.5, 0.5, 2.0), Sqr(0.6, 1.5))])
    def test_lags_on_the_support_end(self, kernel):
        # events on a grid whose lags hit the pulse's end exactly: the pulse
        # is on at its end, so every such pair counts
        model = HawkesModel(mu=0.5, kernel=kernel)
        events = EventSequence(np.arange(0.0, 30.0, 0.25), 30.5)
        lam = likelihood._event_intensities(model, events)
        np.testing.assert_allclose(lam, brute_intensities(model, events.timestamps), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            compensator_increments(model, events), brute_increments(model, events), rtol=1e-10, atol=0)

    def test_lag_rounded_onto_the_support_end(self):
        # t_i - t_k rounds to exactly l although t_i - l rounds above t_k, so
        # a window found from t_i - l alone would miss the pair
        tk, ti = 0.8166622741539723, 1.8166622741539724
        assert ti - tk == 1.0 and ti - 1.0 > tk
        model = HawkesModel(mu=0.5, kernel=Sqr(0.3, 1.0))
        events = EventSequence(np.array([tk, ti]), 2.0)
        np.testing.assert_array_equal(likelihood._event_intensities(model, events), [0.5, 0.8])

    @pytest.mark.parametrize("shape", [("SQR",), ("x", "EXP", "SNS"), ("+", "PWL", "SNS")], ids="".join)
    def test_pair_chunks_do_not_change_the_sums(self, shape, monkeypatch):
        model, events = shape_model(shape, seed=7)
        whole = likelihood._event_intensities(model, events), compensator_increments(model, events)
        monkeypatch.setattr(likelihood, "_PAIRS", 3)
        np.testing.assert_array_equal(likelihood._event_intensities(model, events), whole[0])
        np.testing.assert_array_equal(compensator_increments(model, events), whole[1])

    @pytest.mark.parametrize("shape", [("PWL",), ("+", "EXP", "PWL"), ("x", "PWL", "PWL")], ids="".join)
    def test_term_slabs_do_not_change_the_sums(self, shape, monkeypatch):
        # 20-300 events take slabs of 54 or more terms, against 4 at the floor
        model, events = shape_model(shape, seed=7)
        whole = likelihood._event_intensities(model, events), compensator_increments(model, events)
        monkeypatch.setattr(likelihood, "_SLAB", 0)
        np.testing.assert_allclose(likelihood._event_intensities(model, events), whole[0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(compensator_increments(model, events), whole[1], rtol=1e-14, atol=0)

    def test_no_mpmath(self):
        for module in (likelihood, kernels):
            assert "mpmath" not in vars(module), module.__name__


# fit-bound corners (``fit._GEN_LO/_GEN_HI``, ``fit._P_LO/_P_HI``)
C_CORNERS = (1e-8, 1e8)
P_CORNERS = (1.0 + 1e-8, 10.0)
LAGS = np.concatenate(([0.0], np.geomspace(1e-10, 1e6, 1200)))


def term_sum(terms, lags):
    w, z = terms
    return np.array([float(np.sum(w * np.exp(-z * t))) for t in lags])


class TestTermSets:
    @pytest.mark.parametrize("c, p", itertools.product(C_CORNERS + (0.3,), P_CORNERS + (2.0,)))
    def test_pwl(self, c, p):
        kernel = Pwl(1.0, c, p)
        approx = term_sum(kernel.terms(1e6), LAGS)
        assert np.max(np.abs(approx / evaluate(kernel, LAGS) - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "c1, c2, p1, p2", itertools.product(C_CORNERS, C_CORNERS, P_CORNERS, P_CORNERS))
    def test_pwl_pwl(self, c1, c2, p1, p2):
        kernel = Product(Pwl(1.0, c1, p1), Pwl(1.0, c2, p2))
        approx = term_sum(kernel.terms(1e6), LAGS)
        exact = (c1 + LAGS) ** -p1 * (c2 + LAGS) ** -p2
        assert np.max(np.abs(approx / exact - 1.0)) <= 1e-12

    def test_exp_pwl_shifts_rates(self):
        w, z = Pwl(0.3, 0.5, 2.0).terms(100.0)
        w2, z2 = Product(Pwl(0.3, 0.5, 2.0), Exp(2.0, 0.7)).terms(100.0)
        np.testing.assert_array_equal(w2, 2.0 * w)
        np.testing.assert_array_equal(z2, z + 0.7)


EPOCH = 2.0**31


def epoch_pair(kernel, seed):
    """A sequence on a 2^-20 grid, so that shifting it by 2^31 is exact,
    and the same sequence shifted."""
    events = simulate(HawkesModel(mu=0.5, kernel=kernel), 400.0, seed=seed)
    ts = np.unique(np.round(events.timestamps * 2**20) / 2**20)
    return EventSequence(ts, 400.0), EventSequence(ts + EPOCH, 400.0 + EPOCH)


class TestEpochOffset:
    @pytest.mark.parametrize(
        "kernel", [Exp(0.5, 1.0), Pwl(0.15, 0.3, 2.0), Sum(Exp(0.3, 1.0), Sqr(0.1, 1.5))],
        ids=["EXP", "PWL", "EXP+SQR"])
    def test_log_likelihood(self, kernel):
        model = HawkesModel(mu=0.5, kernel=kernel)
        events, shifted = epoch_pair(kernel, seed=5)
        base = log_likelihood(model, events).value
        moved = log_likelihood(model, shifted).value + model.mu * EPOCH
        assert moved == pytest.approx(base, rel=1e-9, abs=0)

    def test_gd_objective(self):
        events, shifted = epoch_pair(Exp(0.5, 1.0), seed=6)
        mu, alpha, beta = 0.4, 0.6, 1.3
        base, grad = exp_log_likelihood(mu, alpha, beta, events)
        moved, moved_grad = exp_log_likelihood(mu, alpha, beta, shifted)
        assert moved + mu * EPOCH == pytest.approx(base, rel=1e-9, abs=0)
        np.testing.assert_allclose(moved_grad[1:], grad[1:], rtol=1e-9)


class TestExpLogLikelihood:
    def test_value_matches_log_likelihood(self):
        model = HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0))
        events = simulate(model, 500.0, seed=7)
        value, _ = exp_log_likelihood(0.5, 0.5, 1.0, events)
        assert value == pytest.approx(log_likelihood(model, events).value, rel=1e-12)

    @pytest.mark.parametrize("params", [(0.4, 0.3, 1.5), (0.7, 0.9, 0.6), (0.2, 1.2, 4.0)])
    def test_gradient_matches_central_differences(self, params):
        events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 500.0, seed=8)
        _, grad = exp_log_likelihood(*params, events)
        numeric = []
        for i, x in enumerate(params):
            h = 1e-6 * x
            up, down = list(params), list(params)
            up[i], down[i] = x + h, x - h
            numeric.append(
                (exp_log_likelihood(*up, events)[0] - exp_log_likelihood(*down, events)[0]) / (2 * h))
        np.testing.assert_allclose(grad, numeric, rtol=1e-6)
