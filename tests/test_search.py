import json
import logging
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import exp_log_likelihood
from hawkesdecomp import fit, search
from hawkesdecomp.fit import FitResult
from hawkesdecomp.io import result_to_dict
from hawkesdecomp.kernels import STATIONARITY_MARGIN, Exp, Pwl, StationarityVerdict, Sqr, Sum
from hawkesdecomp.likelihood import log_likelihood
from hawkesdecomp.search import (
    DecompositionConfig,
    NoStationaryModelError,
    decompose,
    decompose_batch,
    fit_gd_exponential,
    select_level,
    train_test_split,
)
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate
from hawkesdecomp.spectral import KernelEstimate


def fake_fit(residue, stationary):
    norm = 0.5 if stationary else 1.5
    return FitResult(
        kernel=Exp(1.0, 2.0),
        residue=residue,
        verdict=StationarityVerdict(norm_value=norm, stationary=stationary),
    )


class TestSelectLevel:
    def test_only_k1_stationary(self):
        assert select_level(fake_fit(1.0, True), fake_fit(0.1, False), eta=1.0) == "K1"

    def test_only_k2_stationary(self):
        assert select_level(fake_fit(1.0, False), fake_fit(0.9, True), eta=1.0) == "K2"

    def test_neither_stationary(self):
        assert select_level(fake_fit(1.0, False), fake_fit(0.5, False), eta=1.0) is None

    def test_regularized_choice(self):
        k1 = fake_fit(1.0, True)
        # improvement 1.0 -> 0.5 beats eta = 1.5 but not eta = 2.5
        assert select_level(k1, fake_fit(0.5, True), eta=1.5) == "K2"
        assert select_level(k1, fake_fit(0.5, True), eta=2.5) == "K1"

    def test_large_eta_never_picks_k2(self):
        k1 = fake_fit(1.0, True)
        assert select_level(k1, fake_fit(1e-6, True), eta=1e12) == "K1"

    def test_eta_one_prefers_k2_on_ties(self):
        # with eta = 1 any MR2 <= MR1 switches to K2
        assert select_level(fake_fit(1.0, True), fake_fit(1.0, True), eta=1.0) == "K2"

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            select_level(fake_fit(1.0, True), fake_fit(1.0, True), eta=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, -1.0])
    def test_eta_must_be_finite_and_positive(self, eta):
        # NaN once kept K1 against a K2 of residue 1e-9, and inf passed
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            select_level(fake_fit(1.0, True), fake_fit(1e-9, True), eta=eta)
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            DecompositionConfig(eta=eta)


@pytest.mark.parametrize("field", ["resolution", "gd_restarts"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", math.nan])
def test_config_requires_integer_sizes(field, value):
    # 2.5 restarts passed the range check, then failed in the GD ladder's slice
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DecompositionConfig(**{field: value})


def test_config_caps_resolution():
    assert DecompositionConfig(resolution=search.MAX_RESOLUTION, gd_restarts=np.int64(2)).resolution == 1024
    with pytest.raises(ValueError, match="resolution must be between 2 and 1024, got 1025"):
        DecompositionConfig(resolution=search.MAX_RESOLUTION + 1)


class TestTrainTestSplit:
    def test_counts_and_horizons(self):
        ts = np.arange(1.0, 11.0)  # 10 events at 1..10
        events = EventSequence(ts, 12.0)
        train, test = train_test_split(events, 0.8)
        assert len(train) == 8 and len(test) == 2
        assert train.horizon_T == pytest.approx(8.0)
        assert test.timestamps == pytest.approx([1.0, 2.0])  # shifted by 8
        assert test.horizon_T == pytest.approx(4.0)

    def test_invalid_fraction(self):
        events = EventSequence(np.arange(1.0, 11.0), 12.0)
        for f in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                train_test_split(events, f)

    def test_too_few_events(self):
        with pytest.raises(ValueError):
            train_test_split(EventSequence(np.array([1.0]), 2.0), 0.5)


def _lbfgsb_llh(events, restarts):
    """The reference: the best log-likelihood that scipy's L-BFGS-B reaches
    on the exponential model from the first ``restarts`` starts of the GD
    ladder, each with the ``(mu, alpha)`` it was given when GD ran L-BFGS-B."""
    lam = len(events) / events.horizon_T
    starts = [
        (lam, 1.0, 1.0),
        (0.5 * lam, 0.5 * lam, lam),
        (0.8 * lam, 0.2 * lam, 0.5 * lam),
        (0.2 * lam, lam, 1.6 * lam),
        (0.9 * lam, 2.0 * lam, 4.0 * lam),
    ][:restarts]
    assert [x0[2] for x0 in starts] == search._gd_starts(events, restarts)

    def objective(params):
        value, grad = exp_log_likelihood(*params, events)
        return (-value, -grad) if math.isfinite(value) else (1e30, np.zeros(3))

    runs = [minimize(objective, np.array(x0), jac=True, method="L-BFGS-B", bounds=[(1e-10, None)] * 3) for x0 in starts]
    return max(-float(run.fun) for run in runs)


class TestGdBaseline:
    @pytest.mark.parametrize("restarts", [1, 5])
    @pytest.mark.parametrize("kernel", [Exp(0.5, 1.0), Pwl(0.15, 0.3, 2.0)], ids=["EXP", "PWL"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reaches_lbfgsb_optimum(self, seed, kernel, restarts):
        # both truths have norm 0.5, so about 2000 events each
        events = simulate(HawkesModel(mu=0.5, kernel=kernel), 2000.0, seed=seed)
        gd = fit_gd_exponential(events, restarts)
        assert gd.llh >= _lbfgsb_llh(events, restarts) - 1e-6

    @pytest.mark.parametrize(
        "events,cap,reason",
        [
            # evenly spaced events: no rate excites, so alpha sits at its floor
            (EventSequence(np.arange(1.0, 201.0), 201.0), None, "at the alpha floor"),
            # a rate that grows with time is fit best by alpha > beta
            (EventSequence(np.sqrt(np.arange(1.0, 2001.0)), 45.0), None, "non-stationary"),
            (simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3), 2, "at its cap"),
        ],
        ids=["floor", "non-stationary", "cap"],
    )
    def test_search_ends_logged_at_debug(self, caplog, monkeypatch, events, cap, reason):
        if cap is not None:
            monkeypatch.setattr(search, "_GD_CAP", cap)
        with caplog.at_level(logging.DEBUG, logger="hawkesdecomp.search"):
            fit_gd_exponential(events)
        records = [r for r in caplog.records if r.name == "hawkesdecomp.search"]
        assert records and all(r.levelno == logging.DEBUG for r in records)
        assert reason in [r.args[1] for r in records]
        assert logging.getLogger("hawkesdecomp.search").handlers == []

    def test_non_stationary_root_loses_to_a_stationary_point(self):
        # a rate that grows with time: the best root has alpha >= beta, yet
        # at beta = 44 the profile is finite with alpha at its floor
        events = EventSequence(np.sqrt(np.arange(1.0, 2001.0)), 45.0)
        gd = fit_gd_exponential(events)
        assert gd.model.kernel.alpha < gd.model.kernel.beta
        assert math.isfinite(gd.llh) and gd.llh >= search._gd_profile(44.0, events, 0.5)[0]
        # the profile is stationary at beta = 0.7 (alpha = 0.695), above the
        # first ladder rate's stationary point
        assert gd.llh >= search._gd_profile(0.7, events, 0.5)[0]

    def test_ends_on_the_stationary_side_of_the_margin(self):
        # the bisection of the test above ended at alpha / beta = 1 - 2e-11,
        # where the steady rate mu / (1 - alpha / beta) is about 1e11
        events = EventSequence(np.sqrt(np.arange(1.0, 2001.0)), 45.0)
        gd = fit_gd_exponential(events)
        assert gd.model.kernel.alpha / gd.model.kernel.beta <= 1.0 - STATIONARITY_MARGIN
        assert math.isfinite(gd.llh)

    def test_converged_search_not_logged(self, caplog):
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        with caplog.at_level(logging.DEBUG, logger="hawkesdecomp.search"):
            fit_gd_exponential(events)
        assert [r for r in caplog.records if r.name == "hawkesdecomp.search"] == []

    def test_recovers_exponential_parameters(self):
        model = HawkesModel(mu=1.0, kernel=Exp(0.5, 1.0))
        events = simulate(model, 2000.0, seed=1)
        gd = fit_gd_exponential(events)
        assert math.isfinite(gd.llh)
        assert gd.model.mu == pytest.approx(1.0, abs=0.15)
        assert gd.model.kernel.alpha == pytest.approx(0.5, abs=0.1)
        assert gd.model.kernel.beta == pytest.approx(1.0, abs=0.2)

    def test_deterministic(self):
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 500.0, seed=2)
        a = fit_gd_exponential(events)
        b = fit_gd_exponential(events)
        assert a.model == b.model and a.llh == b.llh

    def test_needs_two_events(self):
        with pytest.raises(ValueError):
            fit_gd_exponential(EventSequence(np.array([1.0]), 2.0))

    @pytest.mark.parametrize("restarts", [0, -3, 6, 9])
    def test_restarts_outside_the_ladder_raise(self, restarts):
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        with pytest.raises(ValueError, match="restarts"):
            fit_gd_exponential(events, restarts)

    @pytest.mark.parametrize("restarts", [2.5, True, "3"])
    def test_restarts_must_be_an_integer(self, restarts):
        # 2.5 passed the range check, then raised TypeError in the ladder's slice
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        with pytest.raises(ValueError, match="restarts must be an integer"):
            fit_gd_exponential(events, restarts)

    def test_numpy_integer_restarts(self):
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        assert fit_gd_exponential(events, np.int64(2)) == fit_gd_exponential(events, 2)

    def test_restart_count_changes_search_breadth(self):
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        one = fit_gd_exponential(events, restarts=1)
        five = fit_gd_exponential(events, restarts=5)
        assert five.llh >= one.llh - 1e-9

    def test_nan_objective_gives_unusable_fit(self, monkeypatch):
        # no restart ends at a finite point: a valid model with -inf, no crash
        monkeypatch.setattr(search, "_gd_profile", lambda beta, events, s: (math.nan,) * 4)
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        gd = fit_gd_exponential(events)
        assert gd.llh == -math.inf
        assert isinstance(gd.model, HawkesModel) and isinstance(gd.model.kernel, Exp)

    def test_nan_objective_and_no_level_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_gd_profile", lambda beta, events, s: (math.nan,) * 4)
        monkeypatch.setattr(search, "select_level", lambda k1, k2, eta: None)
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        with pytest.raises(NoStationaryModelError):
            decompose(events, DecompositionConfig(tau_max=5.0, resolution=20))


@pytest.fixture(scope="module")
def exp_events():
    model = HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0))
    return simulate(model, 4000.0, seed=10)


class TestDecompose:

    def test_pipeline_on_exponential_data(self, exp_events):
        cfg = DecompositionConfig(tau_max=10.0)
        result = decompose(exp_events, cfg)
        assert result.chosen in ("K1", "K2", "GD")
        assert len(result.audit) == 12
        labels = {e.label for e in result.audit}
        assert "single:EXP" in labels and "expand:+SQR" in labels and "expand:xSNS" in labels
        # the chosen model is usable: stationary kernel, positive baseline
        chosen = result.chosen_model
        assert chosen.mu > 0
        # the recovered mean rate is consistent with the data
        assert result.grid.lambda_hat == pytest.approx(1.0, abs=0.1)

    def test_determinism(self, exp_events):
        cfg = DecompositionConfig(tau_max=10.0)
        a = decompose(exp_events, cfg)
        b = decompose(exp_events, cfg)
        assert a.chosen == b.chosen
        assert a.k1 == b.k1 and a.k2 == b.k2
        assert a.gd == b.gd
        assert a.k1.llh == b.k1.llh and a.k2.llh == b.k2.llh

    def test_holdout_scoring(self, exp_events):
        cfg = DecompositionConfig(tau_max=10.0, holdout=0.8)
        result = decompose(exp_events, cfg)
        assert result.chosen in ("K1", "K2", "GD")
        assert math.isfinite(result.k1.llh)

    def test_k2_improves_or_matches_k1_residue(self, exp_events):
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        assert result.k2.residue <= result.k1.residue + 1e-9

    def test_stationary_level_mu_keeps_the_mean_rate(self, exp_events):
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        stationary = [level for level in (result.k1, result.k2) if level.verdict.stationary]
        assert stationary
        for level in stationary:
            assert level.mu == result.grid.lambda_hat * (1.0 - level.verdict.norm_value)
            assert level.llh == log_likelihood(level.model, exp_events).value

    def test_mu_hat_is_the_chosen_models_when_gd_is_chosen(self, exp_events, monkeypatch):
        # with neither level usable, the GD model is chosen
        monkeypatch.setattr(search, "select_level", lambda k1, k2, eta: None)
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        assert result.chosen == "GD"
        assert result_to_dict(result)["mu_hat"] == result.gd.mu == result.chosen_model.mu

    def test_mu_hat_is_the_chosen_models(self, exp_events):
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        assert result_to_dict(result)["mu_hat"] == result.chosen_model.mu

    def test_composite_data_prefers_k2(self):
        # a clearly two-part kernel: exponential plus a long pulse
        model = HawkesModel(mu=0.5, kernel=Sum(Exp(0.3, 2.0), Sqr(0.08, 4.0)))
        events = simulate(model, 6000.0, seed=20)
        result = decompose(events, DecompositionConfig(tau_max=8.0))
        assert result.k2.residue < result.k1.residue


BATCH_CONFIG = DecompositionConfig(tau_max=5.0, resolution=25)


@pytest.fixture(scope="module")
def three_sequences():
    """Three small sequences whose K1 families differ: EXP, PWL and SQR."""
    truths = [(Exp(0.6, 2.0), 1), (Pwl(0.2, 0.5, 2.0), 4), (Sqr(0.2, 2.0), 1)]
    return [simulate(HawkesModel(mu=0.5, kernel=kernel), 1500.0, seed=seed) for kernel, seed in truths]


def _json(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


def _one_by_one(sequences):
    """``decompose`` on each sequence: its JSON, or its error as (type, message)."""
    outcomes = []
    for events in sequences:
        try:
            outcomes.append(_json(decompose(events, BATCH_CONFIG)))
        except (ValueError, NoStationaryModelError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _batched(sequences):
    return [
        (type(outcome), str(outcome)) if isinstance(outcome, Exception) else _json(outcome)
        for outcome in decompose_batch(sequences, BATCH_CONFIG)
    ]


class TestDecomposeBatch:
    def test_matches_decompose_on_each(self, three_sequences):
        alone = _one_by_one(three_sequences)
        assert [json.loads(text)["k1"]["kernel"]["type"] for text in alone] == ["EXP", "PWL", "SQR"]
        assert _batched(three_sequences) == alone

    def test_degenerate_estimate_fails_alone(self, three_sequences, monkeypatch):
        # the second sequence's estimate is all zeros, which its singles refuse
        kernel_estimate, second = search.kernel_estimate, three_sequences[1]

        def zero_for_second(events, config):
            train, scored, grid, estimate = kernel_estimate(events, config)
            if events is second:
                estimate = KernelEstimate(np.zeros_like(estimate.values), estimate.delta, estimate.tau_max)
            return train, scored, grid, estimate

        monkeypatch.setattr(search, "kernel_estimate", zero_for_second)
        alone = _one_by_one(three_sequences)
        assert alone[1] == (ValueError, "degenerate estimate: all samples are zero")
        assert _batched(three_sequences) == alone

    def test_fit_error_fails_alone(self, three_sequences, monkeypatch):
        # every SQR start of the second sequence's singles is NaN
        candidate, second = fit._candidate, three_sequences[1]
        estimates = []

        def nan_sqr_starts(estimate, family, op=None, base=None):
            parts = candidate(estimate, family, op, base)
            if any(estimate is e for e in estimates) and family == "SQR" and op is None:
                return ([(math.nan, 1.0)],) + parts[1:]
            return parts

        kernel_estimate = search.kernel_estimate

        def remember_second(events, config):
            stage = kernel_estimate(events, config)
            if events is second:
                estimates.append(stage[3])
            return stage

        monkeypatch.setattr(fit, "_candidate", nan_sqr_starts)
        monkeypatch.setattr(search, "kernel_estimate", remember_second)
        alone = _one_by_one(three_sequences)
        assert alone[1] == (fit.FitError, "no finite residue for SQR")
        assert _batched(three_sequences) == alone

    def test_no_stationary_model_fails_alone(self, three_sequences, monkeypatch):
        # no level is usable, and the GD fit fails on the second sequence only
        profile, second = search._gd_profile, three_sequences[1]

        def nan_for_second(beta, events, s):
            return (math.nan,) * 4 if events is second else profile(beta, events, s)

        monkeypatch.setattr(search, "select_level", lambda k1, k2, eta: None)
        monkeypatch.setattr(search, "_gd_profile", nan_for_second)
        alone = _one_by_one(three_sequences)
        assert alone[1] == (NoStationaryModelError, "no stationary model found")
        assert _batched(three_sequences) == alone

    def test_empty_batch(self):
        assert decompose_batch([], BATCH_CONFIG) == []
