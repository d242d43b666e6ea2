import math

import numpy as np
import pytest

from hawkesdecomp import search
from hawkesdecomp.fit import FitResult
from hawkesdecomp.kernels import Exp, StationarityVerdict, Sqr, Sum
from hawkesdecomp.search import (
    DecompositionConfig,
    NoStationaryModelError,
    decompose,
    fit_gd_exponential,
    select_level,
    train_test_split,
)
from hawkesdecomp.simulate import EventSequence, HawkesModel, simulate


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


@pytest.mark.parametrize("percentile", [0.0, 1.0, 7.0, -0.5, math.nan])
def test_config_rejects_horizon_percentile_outside_unit_interval(percentile):
    # checked where the option enters, even when tau_max leaves the histogram unused
    with pytest.raises(ValueError, match="horizon_percentile"):
        DecompositionConfig(horizon_percentile=percentile, tau_max=3.0)


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


class TestGdBaseline:
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

    def test_restart_count_changes_search_breadth(self):
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        one = fit_gd_exponential(events, restarts=1)
        five = fit_gd_exponential(events, restarts=5)
        assert five.llh >= one.llh - 1e-9

    def test_nan_objective_gives_unusable_fit(self, monkeypatch):
        # no restart ends at a finite point: a valid model with -inf, no crash
        monkeypatch.setattr(search, "_gd_objective", lambda params, events: (math.nan, np.full(3, math.nan)))
        events = simulate(HawkesModel(mu=1.0, kernel=Exp(0.4, 1.0)), 300.0, seed=3)
        gd = fit_gd_exponential(events)
        assert gd.llh == -math.inf
        assert isinstance(gd.model, HawkesModel) and isinstance(gd.model.kernel, Exp)

    def test_nan_objective_and_no_level_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_gd_objective", lambda params, events: (math.nan, np.full(3, math.nan)))
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
        assert a.llh_k1 == b.llh_k1 and a.llh_k2 == b.llh_k2

    def test_holdout_scoring(self, exp_events):
        cfg = DecompositionConfig(tau_max=10.0, holdout=0.8)
        result = decompose(exp_events, cfg)
        assert result.chosen in ("K1", "K2", "GD")
        assert math.isfinite(result.llh_k1)

    def test_k2_improves_or_matches_k1_residue(self, exp_events):
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        assert result.k2.residue <= result.k1.residue + 1e-9

    def test_mu_hat_consistent_with_norm(self, exp_events):
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        level = result.chosen if result.chosen != "GD" else "K1"
        fit = result.k1 if level == "K1" else result.k2
        expected = max(result.grid.lambda_hat * (1.0 - fit.verdict.norm_value), 1e-12)
        assert result.mu_hat_for(level) == pytest.approx(expected)

    def test_mu_hat_is_the_chosen_models_when_gd_is_chosen(self, exp_events, monkeypatch):
        # with neither level usable, the GD model is chosen
        monkeypatch.setattr(search, "select_level", lambda k1, k2, eta: None)
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        assert result.chosen == "GD"
        assert result.mu_hat == result.gd.model.mu == result.chosen_model.mu

    def test_mu_hat_is_the_chosen_models(self, exp_events):
        result = decompose(exp_events, DecompositionConfig(tau_max=10.0))
        assert result.mu_hat == result.chosen_model.mu

    def test_composite_data_prefers_k2(self):
        # a clearly two-part kernel: exponential plus a long pulse
        model = HawkesModel(mu=0.5, kernel=Sum(Exp(0.3, 2.0), Sqr(0.08, 4.0)))
        events = simulate(model, 6000.0, seed=20)
        result = decompose(events, DecompositionConfig(tau_max=8.0))
        assert result.k2.residue < result.k1.residue
