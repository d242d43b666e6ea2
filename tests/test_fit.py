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

    def test_one_sample_estimate_rejected(self):
        # a one-lag grid leaves no sample past lag 0 for residue_of to score,
        # so every fit would report residue 0.0
        events = simulate(HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)), 200.0, seed=1)
        est = invert_to_kernel(covariance_grid(events, 0.6, 1.0))
        assert len(est.values) == 1
        with pytest.raises(ValueError, match="two samples"):
            fit.fit_singles(est, list(FAMILIES))
        k1 = FitResult(kernel=Exp(0.5, 1.0), residue=0.1, verdict=stationarity_norm(Exp(0.5, 1.0)))
        with pytest.raises(ValueError, match="two samples"):
            fit.fit_expansions(est, k1, [("add", "EXP"), ("multiply", "SQR")])

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


def _alone(estimate, tag, op=None, base=None):
    """One fit as a level of its own: ``(starts, objective, decode)``."""
    candidate = fit._candidate(estimate, tag, op, base)
    starts, _, objective = fit._level([(estimate, candidate)])
    return starts, objective, candidate[3]


class TestObjective:
    @pytest.mark.parametrize("tag1,op,tag", OBJECTIVES, ids=lambda v: v or "-")
    def test_matches_residue_of_decoded_kernel(self, spectral_estimate, tag1, op, tag):
        est = spectral_estimate
        starts, objective, decode = _alone(est, tag, op, BASES.get(tag1))
        vectors = _vectors(len(starts[0]))
        values = objective(np.array(list(vectors.values())), np.zeros(len(vectors), dtype=int))
        assert values.shape == (len(vectors),)
        for (name, x), value in zip(vectors.items(), values):
            if name == "nan":
                assert value == math.inf
            else:
                assert value == residue_of(est, decode(x)), name

    def test_shared_support_encodings(self, spectral_estimate):
        # (K1 amplitude, omega): one omega sets both supports, and the added
        # factor has amplitude 1
        amplitude, omega = 0.4, 1.3
        sqr, sns = Sqr(1.0, math.pi / omega), Sns(1.0, omega)

        def product(tag1, tag):
            return fit._candidate(spectral_estimate, tag, "multiply", BASES[tag1])

        assert product("SQR", "SNS")[3]((amplitude, omega)) == Product(Sqr(amplitude, math.pi / omega), sns)
        assert product("SNS", "SQR")[3]((amplitude, omega)) == Product(Sns(amplitude, omega), sqr)
        assert product("SNS", "SNS")[3]((amplitude, omega)) == Product(Sns(amplitude, omega), sns)
        # the starts carry K1's fitted fields in the tied places: an SQR K1
        # keeps its height and takes each distinct SNS start frequency, and an
        # SNS K1 is the one start
        omegas = [w for _, w in fit._starts("SNS", spectral_estimate)]
        assert product("SQR", "SNS")[0] == [(BASES["SQR"].b, w) for w in dict.fromkeys(omegas)]
        assert product("SNS", "SQR")[0] == [astuple(BASES["SNS"])]
        assert product("SNS", "SNS")[0] == [astuple(BASES["SNS"])]

    @pytest.mark.parametrize("tag1,op,tag", OBJECTIVES, ids=lambda v: v or "-")
    def test_starts_distinct(self, spectral_estimate, tag1, op, tag):
        starts = fit._candidate(spectral_estimate, tag, op, BASES.get(tag1))[0]
        assert len(set(starts)) == len(starts)

    def test_flat_estimate_single_starts_distinct(self):
        # no lag falls below peak / e, so t_e is tau_max / 2 and two of the
        # SQR rule's eight starts are equal
        est = estimate_from(Sqr(0.3, 100.0))
        assert len(set(fit._starts("SQR", est))) == 7
        assert len(fit._candidate(est, "SQR")[0]) == 7

    def test_product_starts_drop_the_added_amplitude(self, spectral_estimate):
        # each distinct start of the added family's rule, less its amplitude
        def starts(tag):
            return fit._candidate(spectral_estimate, tag, "multiply", BASES["EXP"])[0]

        assert {tag: len(starts(tag)) for tag in FAMILIES} == {"EXP": 5, "PWL": 4, "SQR": 5, "SNS": 6}
        # the PWL rule's starts come in pairs that differ only in amplitude
        pwl = fit._starts("PWL", spectral_estimate)[::2]
        assert starts("PWL") == [astuple(BASES["EXP"]) + s[1:] for s in pwl]

    def test_unknown_family_is_value_error(self, spectral_estimate):
        with pytest.raises(ValueError):
            fit._candidate(spectral_estimate, "GAUSS")


def _scipy_runs(objective, starts):
    """The reference: scipy's Nelder-Mead from each start, one objective
    row at a time, padded with zeros to the longest start."""
    width = max(map(len, starts))

    def run(i, x0):
        def row(x):
            return objective(np.concatenate([x, np.zeros(width - x.size)])[None, :], np.array([i]))[0]

        return minimize(row, np.asarray(x0, dtype=float), method="Nelder-Mead", options=fit._NM_OPTIONS)

    return [run(i, x0) for i, x0 in enumerate(starts)]


def _scipy_nelder_mead(objective, starts):
    """``fit._nelder_mead`` made of the reference runs."""
    runs = _scipy_runs(objective, starts)
    return ([res.x for res in runs], np.array([res.fun for res in runs]), np.array([res.nit for res in runs]),
            np.array([res.success for res in runs]))


def _assert_matches_scipy(objective, starts):
    x, fun, nit, success = fit._nelder_mead(objective, starts)
    reference = _scipy_runs(objective, starts)
    assert len(x) == len(reference)
    for i, res in enumerate(reference):
        assert np.array_equal(x[i], res.x, equal_nan=True), i
        assert (fun[i], nit[i], success[i]) == (res.fun, res.nit, res.success), i


@pytest.fixture(scope="module")
def other_estimates():
    """Two estimates from a pulse-kernel sequence: one with the spectral
    estimate's lag count and another step, one with another lag count."""
    events = simulate(HawkesModel(mu=0.5, kernel=Sqr(0.2, 2.0)), 1500.0, seed=1)
    return invert_to_kernel(covariance_grid(events, 0.04, 4.0)), invert_to_kernel(covariance_grid(events, 0.1, 3.0))


@pytest.fixture(scope="module")
def k1_fits(spectral_estimate):
    return {tag: fit_single(spectral_estimate, tag).kernel for tag in FAMILIES}


EXPANSIONS = [(op, tag) for op in ("add", "multiply") for tag in FAMILIES]


def _singles_level(estimate):
    return fit._level([(estimate, fit._candidate(estimate, tag)) for tag in FAMILIES])


class TestNelderMead:
    """``fit._nelder_mead`` against scipy's Nelder-Mead, run by run, on the
    objectives and starts of the real fits."""

    @pytest.mark.parametrize("tag1,op,tag", OBJECTIVES, ids=lambda v: v or "-")
    def test_matches_scipy(self, spectral_estimate, k1_fits, tag1, op, tag):
        starts, objective, _ = _alone(spectral_estimate, tag, op, k1_fits.get(tag1))
        _assert_matches_scipy(objective, starts)

    def test_singles_level_matches_scipy(self, spectral_estimate):
        # the 2-field EXP, SQR and SNS runs beside the 3-field PWL runs
        starts, _, objective = _singles_level(spectral_estimate)
        assert sorted(set(map(len, starts))) == [2, 3]
        _assert_matches_scipy(objective, starts)

    @pytest.mark.parametrize("tag1", FAMILIES)
    def test_expansions_level_matches_scipy(self, spectral_estimate, k1_fits, tag1):
        candidates = [fit._candidate(spectral_estimate, tag, op, k1_fits[tag1]) for op, tag in EXPANSIONS]
        starts, _, objective = fit._level([(spectral_estimate, candidate) for candidate in candidates])
        assert len(set(map(len, starts))) > 1
        _assert_matches_scipy(objective, starts)

    def test_two_estimate_singles_level_matches_scipy(self, spectral_estimate, other_estimates):
        # the runs of one kind come from two estimates with different steps
        fits = [(est, fit._candidate(est, tag)) for est in (spectral_estimate, other_estimates[0]) for tag in FAMILIES]
        starts, _, objective = fit._level(fits)
        _assert_matches_scipy(objective, starts)

    def test_two_estimate_expansions_level_matches_scipy(self, spectral_estimate, other_estimates, k1_fits):
        # K1 is EXP on one estimate and SQR on the other, so the additive
        # runs of one kind freeze different curves and the products differ
        other = other_estimates[0]
        bases = [(spectral_estimate, k1_fits["EXP"]), (other, fit_single(other, "SQR").kernel)]
        fits = [(est, fit._candidate(est, tag, op, base)) for est, base in bases for op, tag in EXPANSIONS]
        starts, _, objective = fit._level(fits)
        _assert_matches_scipy(objective, starts)

    def test_exponent_exactly_two(self, spectral_estimate):
        # p is exactly 2 on most vertices of the first simplexes, where
        # Pwl.curve squares (TestObjective's p_two vector checks the values)
        starts = [(0.1, 0.5, 2.0), (0.05, 1.0, 2.0), (0.2, 0.25, 1.5)]
        _assert_matches_scipy(_alone(spectral_estimate, "PWL")[1], starts)

    def test_nan_start(self, spectral_estimate):
        starts = fit._starts("EXP", spectral_estimate)
        starts[3] = (math.nan, 1.0)
        objective = _alone(spectral_estimate, "EXP")[1]
        _assert_matches_scipy(objective, starts)
        _, fun, _, success = fit._nelder_mead(objective, starts)
        assert fun[3] == math.inf and not success[3]

    def test_mixed_dimensions_nan_start(self, spectral_estimate):
        # a NaN in a 3-field PWL start among 2-field starts
        starts, _, objective = _singles_level(spectral_estimate)
        i = next(i for i, start in enumerate(starts) if len(start) == 3)
        starts[i] = (starts[i][0], math.nan, starts[i][2])
        _assert_matches_scipy(objective, starts)
        _, fun, _, success = fit._nelder_mead(objective, starts)
        assert fun[i] == math.inf and not success[i]

    def test_fit_without_finite_residue_gives_fit_error(self, spectral_estimate):
        # every start of the second fit is NaN; its error names that fit
        est = spectral_estimate
        single = fit._candidate(est, "EXP")
        unusable = ([(math.nan, 1.0)],) + single[1:]
        fits = fit._fit_level([(est, "EXP", single), (est, "NAN", unusable)])
        assert fits[0] == fit_single(est, "EXP")
        assert isinstance(fits[1], fit.FitError) and str(fits[1]) == "no finite residue for NAN"

    def test_maxiter_cap(self, spectral_estimate, k1_fits, monkeypatch):
        monkeypatch.setitem(fit._NM_OPTIONS, "maxiter", 7)
        starts, objective, _ = _alone(spectral_estimate, "PWL", "multiply", k1_fits["EXP"])
        _assert_matches_scipy(objective, starts)
        assert not fit._nelder_mead(objective, starts)[3].any()

    def test_mixed_dimensions_maxiter_cap(self, spectral_estimate, k1_fits, monkeypatch):
        monkeypatch.setitem(fit._NM_OPTIONS, "maxiter", 7)
        candidates = [fit._candidate(spectral_estimate, tag, op, k1_fits["PWL"]) for op, tag in EXPANSIONS]
        starts, _, objective = fit._level([(spectral_estimate, candidate) for candidate in candidates])
        _assert_matches_scipy(objective, starts)
        assert not fit._nelder_mead(objective, starts)[3].any()

    def test_decompose_matches_scipy_reference(self, monkeypatch):
        events = simulate(HawkesModel(mu=0.5, kernel=Pwl(0.2, 0.5, 2.0)), 1500.0, seed=4)
        config = DecompositionConfig(tau_max=5.0, resolution=25)
        ours = json.dumps(result_to_dict(decompose(events, config)), sort_keys=True)
        monkeypatch.setattr(fit, "_nelder_mead", _scipy_nelder_mead)
        assert json.dumps(result_to_dict(decompose(events, config)), sort_keys=True) == ours


class TestFitBatch:
    """``fit_batch`` answers each request as a search of its own would."""

    def test_singles_and_expansions_match_separate_fits(self, spectral_estimate, other_estimates):
        # two estimates of one lag count and a third of another
        estimates = [spectral_estimate, *other_estimates]
        assert len({len(est.values) for est in estimates}) == 2
        singles = fit.fit_batch([(est, None, FAMILIES) for est in estimates])
        assert singles == [fit.fit_singles(est, FAMILIES) for est in estimates]
        k1s = [min(fits, key=lambda f: f.residue) for fits in singles]
        assert len({type(k1.kernel) for k1 in k1s}) > 1
        expansions = fit.fit_batch([(est, k1, EXPANSIONS) for est, k1 in zip(estimates, k1s)])
        assert expansions == [fit.fit_expansions(est, k1, EXPANSIONS) for est, k1 in zip(estimates, k1s)]

    def test_errors_stay_with_their_request(self, spectral_estimate):
        degenerate = KernelEstimate(values=np.zeros(50), delta=0.1, tau_max=5.0)
        composite = FitResult(kernel=Sum(Exp(0.3, 1.0), Sqr(0.1, 2.0)), residue=0.1, verdict=None)
        answers = fit.fit_batch(
            [(degenerate, None, FAMILIES), (spectral_estimate, None, ["EXP"]), (spectral_estimate, composite, EXPANSIONS)]
        )
        assert [type(a) for a in answers] == [ValueError, list, ValueError]
        assert str(answers[0]) == "degenerate estimate: all samples are zero"
        assert answers[1] == [fit_single(spectral_estimate, "EXP")]
        assert str(answers[2]) == "expansion requires a single-kernel fit to extend"


class TestProductFits:
    @pytest.mark.parametrize("tag", FAMILIES)
    @pytest.mark.parametrize("tag1", FAMILIES)
    def test_added_factor_has_unit_amplitude(self, spectral_estimate, k1_fits, tag1, tag):
        k1 = FitResult(kernel=k1_fits[tag1], residue=math.nan, verdict=None)
        kernel = fit_expansion(spectral_estimate, k1, "multiply", tag).kernel
        assert (type(kernel.left), type(kernel.right)) == (FAMILIES[tag1], FAMILIES[tag])
        assert astuple(kernel.right)[0] == 1.0
        if "SNS" in (tag1, tag) and {tag1, tag} <= {"SQR", "SNS"}:
            assert kernel.left.support_end() == kernel.right.support_end()


class TestLogging:
    def test_unconverged_runs_logged_at_debug(self, caplog, monkeypatch):
        monkeypatch.setitem(fit._NM_OPTIONS, "maxiter", 3)
        est = estimate_from(Exp(0.5, 1.0))
        with caplog.at_level(logging.DEBUG, logger="hawkesdecomp.fit"):
            k1 = fit_single(est, "EXP")
            fit_expansion(est, k1, "multiply", "SQR")
        records = [r for r in caplog.records if r.name == "hawkesdecomp.fit"]
        # the eight EXP starts, then EXPxSQR's five distinct pulse lengths
        assert [r.args[:2] for r in records] == [("EXP", i) for i in range(8)] + [
            ("EXPxSQR", i) for i in range(5)
        ]
        assert all(r.levelno == logging.DEBUG and r.args[2] == 3 for r in records)
        assert logging.getLogger("hawkesdecomp.fit").handlers == []
