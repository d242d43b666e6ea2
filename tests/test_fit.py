import json
import logging
import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.optimize import minimize

from hawkesdecomp import fit
from hawkesdecomp.covariance import covariance_grid
from hawkesdecomp.fit import FitResult, fit_expansion, fit_single, residue_of
from hawkesdecomp.io import result_to_dict
from hawkesdecomp.kernels import FAMILIES, Exp, Product, Pwl, Sns, Sqr, Sum, evaluate, stationarity_norm
from hawkesdecomp.search import DecompositionConfig, decompose
from hawkesdecomp.simulate import HawkesModel, simulate
from hawkesdecomp.spectral import KernelEstimate, invert_to_kernel


def estimate_from(kernel, delta=0.05, tau_max=6.0, noise=0.0, seed=0):
    """Synthesize a nonparametric estimate by sampling a known kernel."""
    times = np.arange(int(round(tau_max / delta))) * delta
    values = evaluate(kernel, times)
    if noise:
        values = values + np.random.default_rng(seed).normal(0.0, noise, size=times.size)
    return KernelEstimate(values=values, delta=delta, tau_max=tau_max)


class TestResidue:
    def test_zero_on_exact_samples(self):
        k = Exp(0.5, 1.2)
        assert residue_of(estimate_from(k), k) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # values [9, 1, 1] vs phi = [1, e^-1, e^-2] at t = 0, 1, 2 with
        # delta 1; lag 0 is excluded by design
        est = KernelEstimate(values=np.array([9.0, 1.0, 1.0]), delta=1.0, tau_max=3.0)
        expected = (abs(1 - math.exp(-1)) + abs(1 - math.exp(-2))) * 1.0
        assert residue_of(est, Exp(1, 1)) == pytest.approx(expected)

    def test_lag_zero_ignored(self):
        k = Sqr(0.4, 2.0)
        est = estimate_from(k)
        distorted = KernelEstimate(
            values=np.concatenate([[123.0], est.values[1:]]), delta=est.delta, tau_max=est.tau_max
        )
        assert residue_of(distorted, k) == pytest.approx(residue_of(est, k))


class TestFitSingle:
    def test_recovers_exponential(self):
        fit = fit_single(estimate_from(Exp(0.5, 1.0)), "EXP")
        assert isinstance(fit.kernel, Exp)
        assert fit.kernel.alpha == pytest.approx(0.5, rel=1e-3)
        assert fit.kernel.beta == pytest.approx(1.0, rel=1e-3)
        assert fit.residue < 1e-6

    def test_recovers_pulse(self):
        fit = fit_single(estimate_from(Sqr(0.3, 1.5)), "SQR")
        assert fit.kernel.b == pytest.approx(0.3, rel=1e-2)
        assert fit.kernel.l == pytest.approx(1.5, abs=0.06)

    def test_recovers_sinusoid(self):
        fit = fit_single(estimate_from(Sns(0.6, 1.8)), "SNS")
        assert fit.kernel.a == pytest.approx(0.6, rel=1e-2)
        assert fit.kernel.omega == pytest.approx(1.8, rel=1e-2)

    def test_recovers_power_law(self):
        fit = fit_single(estimate_from(Pwl(0.2, 0.5, 2.0), tau_max=10.0), "PWL")
        assert fit.residue < 1e-4

    def test_best_family_wins_cross_fits(self):
        est = estimate_from(Sns(0.6, 1.8))
        residues = {tag: fit_single(est, tag).residue for tag in ("EXP", "PWL", "SQR", "SNS")}
        assert min(residues, key=residues.get) == "SNS"

    def test_verdict_attached(self):
        fit = fit_single(estimate_from(Exp(0.5, 1.0)), "EXP")
        assert fit.verdict == stationarity_norm(fit.kernel)

    def test_deterministic(self):
        est = estimate_from(Exp(0.5, 1.0), noise=0.02, seed=5)
        a = fit_single(est, "EXP")
        b = fit_single(est, "EXP")
        assert a.kernel == b.kernel and a.residue == b.residue

    def test_degenerate_estimate_rejected(self):
        est = KernelEstimate(values=np.zeros(50), delta=0.1, tau_max=5.0)
        with pytest.raises(ValueError):
            fit_single(est, "EXP")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            fit_single(estimate_from(Exp(1, 1)), "GAUSS")

    def test_noise_robust(self):
        est = estimate_from(Exp(0.5, 1.0), noise=0.01, seed=3)
        fit = fit_single(est, "EXP")
        assert fit.kernel.alpha == pytest.approx(0.5, abs=0.05)
        assert fit.kernel.beta == pytest.approx(1.0, abs=0.1)


class TestFitExpansion:
    def test_additive_never_degrades(self):
        est = estimate_from(Sum(Exp(0.3, 1.0), Sqr(0.2, 2.0)), tau_max=8.0)
        k1 = fit_single(est, "EXP")
        for fam in ("EXP", "PWL", "SQR", "SNS"):
            k2 = fit_expansion(est, k1, "add", fam)
            assert k2.residue <= k1.residue + 1e-9

    def test_additive_improves_on_composite_data(self):
        # the first factor stays frozen, so the addend can only correct the
        # residual; expect a strict improvement, not full recovery
        true = Sum(Exp(0.3, 2.0), Sqr(0.15, 3.0))
        est = estimate_from(true, tau_max=8.0)
        k1 = fit_single(est, "EXP")
        k2 = fit_expansion(est, k1, "add", "SQR")
        assert isinstance(k2.kernel, Sum)
        assert isinstance(k2.kernel.right, Sqr)
        assert k2.residue < k1.residue

    def test_additive_keeps_first_factor_frozen(self):
        est = estimate_from(Sum(Exp(0.3, 2.0), Sqr(0.15, 3.0)), tau_max=8.0)
        k1 = fit_single(est, "EXP")
        k2 = fit_expansion(est, k1, "add", "SQR")
        assert k2.kernel.left == k1.kernel

    def test_multiplicative_recovers_product(self):
        true = Product(Exp(0.8, 0.5), Sqr(0.6, 3.0))
        est = estimate_from(true, tau_max=8.0)
        k1 = fit_single(est, "EXP")
        k2 = fit_expansion(est, k1, "multiply", "SQR")
        assert isinstance(k2.kernel, Product)
        assert k2.residue < max(1e-3, 0.2 * k1.residue)

    def test_multiplicative_shared_support_pairs_valid(self):
        # SQRxSNS and SNSxSNS products must come out with tied supports so
        # the closed-form stationarity verdict is always available
        est = estimate_from(Product(Sqr(0.8, math.pi / 1.5), Sns(0.9, 1.5)), tau_max=6.0)
        k1 = fit_single(est, "SQR")
        k2 = fit_expansion(est, k1, "multiply", "SNS")
        assert isinstance(k2.kernel, Product)
        assert not math.isnan(k2.verdict.norm_value)

        est2 = estimate_from(Product(Sns(0.9, 1.2), Sns(0.7, 1.2)), tau_max=6.0)
        s1 = fit_single(est2, "SNS")
        s2 = fit_expansion(est2, s1, "multiply", "SNS")
        assert s2.kernel.left.omega == pytest.approx(s2.kernel.right.omega)

    def test_invalid_op(self):
        est = estimate_from(Exp(0.5, 1.0))
        k1 = fit_single(est, "EXP")
        with pytest.raises(ValueError):
            fit_expansion(est, k1, "divide", "EXP")

    def test_composite_base_rejected(self):
        est = estimate_from(Exp(0.5, 1.0))
        k1 = fit_single(est, "EXP")
        k2 = fit_expansion(est, k1, "add", "SQR")
        with pytest.raises(ValueError):
            fit_expansion(est, k2, "add", "EXP")


@pytest.fixture(scope="module")
def spectral_estimate():
    """A kernel estimate from simulated events, noise and negative samples
    included."""
    events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 2000.0, seed=21)
    return invert_to_kernel(covariance_grid(events, 0.05, 5.0))


BASES = {"EXP": Exp(0.3, 1.2), "PWL": Pwl(0.1, 0.5, 2.0), "SQR": Sqr(0.2, 2.0), "SNS": Sns(0.3, 1.5)}
# (K1 family or None, op, family): the four single fits, then every
# expansion of every K1, which covers the SQRxSNS, SNSxSQR and SNSxSNS
# encodings
OBJECTIVES = [(None, None, tag) for tag in FAMILIES] + [
    (tag1, op, tag) for tag1 in FAMILIES for op in ("add", "multiply") for tag in FAMILIES
]


def _vectors(n):
    """In bounds; out of bounds on both sides; every field 0.5, which puts
    a PWL exponent below 1; every field 2.0, which puts a PWL exponent at
    exactly 2, where numpy squares; NaN in the last place."""
    inside = [1.5, 2.0, 2.5, 1.8, 1.3, 2.2][:n]
    return {
        "inside": inside,
        "outside": [-1.0, 1e9, -3.0, 1e12, 0.0, -1e-3][:n],
        "p_below_1": [0.5] * n,
        "p_two": [2.0] * n,
        "nan": inside[:-1] + [math.nan],
    }


class TestObjective:
    @pytest.mark.parametrize("tag1,op,tag", OBJECTIVES, ids=lambda v: v or "-")
    def test_matches_residue_of_decoded_kernel(self, spectral_estimate, tag1, op, tag):
        est = spectral_estimate
        starts, objective, decode = fit._candidate(est, tag, op, BASES.get(tag1))
        vectors = _vectors(len(starts[0]))
        values = objective(np.array(list(vectors.values())))
        assert values.shape == (len(vectors),)
        for (name, x), value in zip(vectors.items(), values):
            if name == "nan":
                assert value == math.inf
            else:
                assert value == residue_of(est, decode(x)), name

    def test_shared_support_encodings(self, spectral_estimate):
        b, a, omega = 0.4, 0.7, 1.3
        sqr, sns = Sqr(b, math.pi / omega), Sns(a, omega)

        def product(tag1, tag):
            return fit._candidate(spectral_estimate, tag, "multiply", BASES[tag1])

        assert product("SQR", "SNS")[2]((b, a, omega)) == Product(sqr, sns)
        assert product("SNS", "SQR")[2]((b, a, omega)) == Product(sns, sqr)
        assert product("SNS", "SNS")[2]((a, b, omega)) == Product(Sns(a, omega), Sns(b, omega))
        # the starts carry K1's fitted fields in the tied places
        assert all(s[0] == BASES["SQR"].b for s in product("SQR", "SNS")[0])
        assert all(s[1:] == astuple(BASES["SNS"]) for s in product("SNS", "SQR")[0])
        assert all((s[0], s[2]) == astuple(BASES["SNS"]) for s in product("SNS", "SNS")[0])

    def test_unknown_family_is_value_error(self, spectral_estimate):
        with pytest.raises(ValueError):
            fit._candidate(spectral_estimate, "GAUSS")


def _scipy_runs(objective, starts):
    """The reference: scipy's Nelder-Mead from each start, one objective
    row at a time."""
    return [
        minimize(lambda x: objective(x[None, :])[0], np.asarray(x0, dtype=float), method="Nelder-Mead",
                 options=fit._NM_OPTIONS)
        for x0 in starts
    ]


def _scipy_optimize(objective, starts, label):
    """``fit._optimize`` on the reference runs: the first run with the
    lowest finite value."""
    best, best_val = None, math.inf
    for res in _scipy_runs(objective, starts):
        if math.isfinite(res.fun) and res.fun < best_val:
            best, best_val = res.x, float(res.fun)
    return best, best_val


def _assert_matches_scipy(objective, starts):
    x, fun, nit, success = fit._nelder_mead(objective, starts)
    reference = _scipy_runs(objective, starts)
    assert len(x) == len(reference)
    for i, res in enumerate(reference):
        assert np.array_equal(x[i], res.x, equal_nan=True), i
        assert (fun[i], nit[i], success[i]) == (res.fun, res.nit, res.success), i


@pytest.fixture(scope="module")
def k1_fits(spectral_estimate):
    return {tag: fit_single(spectral_estimate, tag).kernel for tag in FAMILIES}


class TestNelderMead:
    """``fit._nelder_mead`` against scipy's Nelder-Mead, run by run, on the
    objectives and starts of the real fits."""

    @pytest.mark.parametrize("tag1,op,tag", OBJECTIVES, ids=lambda v: v or "-")
    def test_matches_scipy(self, spectral_estimate, k1_fits, tag1, op, tag):
        starts, objective, _ = fit._candidate(spectral_estimate, tag, op, k1_fits.get(tag1))
        _assert_matches_scipy(objective, starts)

    def test_exponent_exactly_two(self, spectral_estimate):
        # p is exactly 2 on most vertices of the first simplexes, where
        # Pwl.curve squares (TestObjective's p_two vector checks the values)
        starts = [(0.1, 0.5, 2.0), (0.05, 1.0, 2.0), (0.2, 0.25, 1.5)]
        _assert_matches_scipy(fit._candidate(spectral_estimate, "PWL")[1], starts)

    def test_nan_start(self, spectral_estimate):
        starts = fit._starts("EXP", spectral_estimate)
        starts[3] = (math.nan, 1.0)
        objective = fit._candidate(spectral_estimate, "EXP")[1]
        _assert_matches_scipy(objective, starts)
        _, fun, _, success = fit._nelder_mead(objective, starts)
        assert fun[3] == math.inf and not success[3]

    def test_maxiter_cap(self, spectral_estimate, k1_fits, monkeypatch):
        monkeypatch.setitem(fit._NM_OPTIONS, "maxiter", 7)
        starts, objective, _ = fit._candidate(spectral_estimate, "PWL", "multiply", k1_fits["EXP"])
        _assert_matches_scipy(objective, starts)
        assert not fit._nelder_mead(objective, starts)[3].any()

    def test_decompose_matches_scipy_reference(self, monkeypatch):
        events = simulate(HawkesModel(mu=0.5, kernel=Pwl(0.2, 0.5, 2.0)), 1500.0, seed=4)
        config = DecompositionConfig(tau_max=5.0, resolution=25)
        ours = json.dumps(result_to_dict(decompose(events, config)), sort_keys=True)
        monkeypatch.setattr(fit, "_optimize", _scipy_optimize)
        assert json.dumps(result_to_dict(decompose(events, config)), sort_keys=True) == ours


class TestLogging:
    def test_unconverged_runs_logged_at_debug(self, caplog, monkeypatch):
        monkeypatch.setitem(fit._NM_OPTIONS, "maxiter", 3)
        est = estimate_from(Exp(0.5, 1.0))
        with caplog.at_level(logging.DEBUG, logger="hawkesdecomp.fit"):
            k1 = fit_single(est, "EXP")
            fit_expansion(est, k1, "multiply", "SQR")
        records = [r for r in caplog.records if r.name == "hawkesdecomp.fit"]
        assert [r.args[:2] for r in records] == [("EXP", i) for i in range(8)] + [
            ("EXPxSQR", i) for i in range(8)
        ]
        assert all(r.levelno == logging.DEBUG and r.args[2] == 3 for r in records)
        assert logging.getLogger("hawkesdecomp.fit").handlers == []
