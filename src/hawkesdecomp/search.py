"""Greedy two-level kernel decomposition with stationarity gating and a
gradient-based exponential baseline.

The pipeline: estimate the covariance grid, invert it to a nonparametric
kernel, fit the four base families (K1 = minimum residue), expand K1 by
the eight (operator, family) pairs (K2 = minimum residue), gate both on
their closed-form stationarity, regularize the level choice by ``eta``,
and finally keep whichever of the decomposition model and the directly
optimized exponential scores the higher log-likelihood.

The twelve fits run one after another.  A fit runs its 8-9 Nelder-Mead
starts in lock-step, so each step is a few dozen small numpy calls on
about 100 lags for all of its live starts at once.  Those calls hold the
interpreter lock for most of their time, so thread pools gave no overlap:
with them ``decompose`` measured slower than serial.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 -- the benchmark tracer patches this name
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .covariance import CovarianceGrid, covariance_grid, horizon_from_histogram
from .fit import FitResult, fit_expansion, fit_single
from .kernels import FAMILIES, Exp, Kernel
from .likelihood import log_likelihood
from .simulate import EventSequence, HawkesModel
from .spectral import KernelEstimate, invert_to_kernel

__all__ = [
    "DecompositionConfig",
    "DecompositionResult",
    "GdFit",
    "NoStationaryModelError",
    "AuditEntry",
    "decompose",
    "select_level",
    "fit_gd_exponential",
    "lag_grid",
    "train_test_split",
]


class NoStationaryModelError(RuntimeError):
    """Neither decomposition level is stationary and the GD baseline failed."""


@dataclass(frozen=True)
class DecompositionConfig:
    resolution: int = 100
    horizon_percentile: float = 0.95
    tau_max: float | None = None  # explicit lag horizon; histogram heuristic when None
    eta: float = 1.2
    holdout: float | None = None
    gd_restarts: int = 5


@dataclass(frozen=True)
class GdFit:
    """Directly optimized exponential Hawkes model and its log-likelihood."""

    model: HawkesModel
    llh: float


@dataclass(frozen=True)
class AuditEntry:
    label: str
    fit: FitResult


@dataclass(frozen=True)
class DecompositionResult:
    chosen: str  # "K1" | "K2" | "GD"
    k1: FitResult
    k2: FitResult
    gd: GdFit
    eta: float
    llh_k_chosen: float
    llh_k1: float
    llh_k2: float
    mu_hat: float
    audit: tuple[AuditEntry, ...]
    grid: CovarianceGrid
    estimate: KernelEstimate

    @property
    def chosen_kernel(self) -> Kernel:
        if self.chosen == "GD":
            return self.gd.model.kernel
        return (self.k1 if self.chosen == "K1" else self.k2).kernel

    @property
    def chosen_model(self) -> HawkesModel:
        if self.chosen == "GD":
            return self.gd.model
        return HawkesModel(mu=self.mu_hat_for(self.chosen), kernel=self.chosen_kernel)

    def mu_hat_for(self, level: str) -> float:
        fit = self.k1 if level == "K1" else self.k2
        return max(self.grid.lambda_hat * (1.0 - fit.verdict.norm_value), 1e-12)


def train_test_split(
    events: EventSequence, fraction: float, shift: bool = True
) -> tuple[EventSequence, EventSequence]:
    """First ``ceil(fraction * n)`` events for training, the rest held out.

    The training horizon ends at the split time (the last training event);
    the test sequence is time-shifted to start at 0 unless ``shift`` is
    false.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = len(events)
    n_train = math.ceil(fraction * n)
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"cannot split {n} events at fraction {fraction}")
    ts = events.timestamps
    split_time = float(ts[n_train - 1])
    train = EventSequence(ts[:n_train], split_time)
    rest = ts[n_train:]
    if shift:
        test = EventSequence(rest - split_time, events.horizon_T - split_time)
    else:
        test = EventSequence(rest, events.horizon_T)
    return train, test


def select_level(k1: FitResult, k2: FitResult, eta: float) -> str | None:
    """Stationarity-gated level choice between K1 and K2.

    Keeps K1 unless K2 is stationary and its residue improvement beats the
    regularization factor (``MR1 >= eta * MR2``); returns None when neither
    level is stationary.  ``eta >= 1`` biases toward the simpler K1.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    output = None
    if k1.verdict.stationary:
        output = "K1"
    if k2.verdict.stationary:
        if output is None:
            output = "K2"
        elif k1.residue >= eta * k2.residue:
            output = "K2"
    return output


def _exp_llh(params, ts: np.ndarray, T: float) -> float:
    """O(n) exponential-Hawkes log-likelihood via the standard recursion,
    evaluated in log-space to stay overflow-free."""
    mu, alpha, beta = params
    if mu <= 0 or alpha <= 0 or beta <= 0:
        return -math.inf
    bts = beta * ts
    cum = np.logaddexp.accumulate(bts)  # log sum_{j<=i} exp(beta t_j)
    r = np.empty_like(ts)
    r[0] = 0.0
    r[1:] = alpha * np.exp(cum[:-1] - bts[1:])
    total = float(np.sum(np.log(mu + r)))
    total -= mu * T
    total -= (alpha / beta) * float(np.sum(1.0 - np.exp(-beta * (T - ts))))
    return total


def _gd_starts(events: EventSequence, n_starts: int):
    """Deterministic restart ladder: a generic unit-scale start first, then
    data-scaled ones."""
    lam = len(events) / events.horizon_T
    dt = 1.0 / lam
    starts = [
        (lam, 1.0, 1.0),
        (0.5 * lam, 0.5 / dt, 1.0 / dt),
        (0.8 * lam, 0.2 / dt, 0.5 / dt),
        (0.2 * lam, 1.0 / dt, 1.6 / dt),
        (0.9 * lam, 2.0 / dt, 4.0 / dt),
    ]
    return starts[: max(1, min(n_starts, len(starts)))]


def fit_gd_exponential(events: EventSequence, restarts: int = 5) -> GdFit:
    """Maximum-likelihood exponential Hawkes fit by gradient-based ascent.

    Runs L-BFGS-B from a deterministic restart ladder; a non-stationary
    optimum (alpha >= beta) is reported with an ``-inf`` likelihood, like
    the unusable parameter combinations the direct method can get stuck in.
    """
    if len(events) < 2:
        raise ValueError("need at least two events")
    ts = events.timestamps
    T = events.horizon_T

    def negative(params):
        val = _exp_llh(params, ts, T)
        return -val if math.isfinite(val) else 1e30

    best = None
    best_val = math.inf
    for x0 in _gd_starts(events, restarts):
        res = minimize(
            negative,
            np.asarray(x0, dtype=float),
            method="L-BFGS-B",
            bounds=[(1e-10, None)] * 3,
        )
        if float(res.fun) < best_val:
            best_val = float(res.fun)
            best = res.x
    mu, alpha, beta = (float(x) for x in best)
    model = HawkesModel(mu=mu, kernel=Exp(alpha, beta))
    llh = -best_val if best_val < 1e29 else -math.inf
    if alpha >= beta:
        llh = -math.inf
    return GdFit(model=model, llh=llh)


def lag_grid(
    events: EventSequence, resolution: int, percentile: float, tau_max: float | None = None
) -> tuple[float, float]:
    """Lag horizon and grid step of the covariance grid.

    The horizon is ``tau_max`` when given, else the histogram heuristic at
    ``percentile``; either way at most half the observation window.  The
    step splits it into ``resolution`` bins.
    """
    if tau_max is not None:
        horizon = tau_max
    else:
        horizon = horizon_from_histogram(events, percentile)
    horizon = min(horizon, events.horizon_T / 2.0)
    return horizon, horizon / resolution


def decompose(events: EventSequence, config: DecompositionConfig = DecompositionConfig()) -> DecompositionResult:
    """Run the full decomposition pipeline on an event sequence."""
    if config.holdout is not None:
        train, test = train_test_split(events, config.holdout)
        eval_events = test
    else:
        train = events
        eval_events = events

    horizon, delta = lag_grid(train, config.resolution, config.horizon_percentile, config.tau_max)
    grid = covariance_grid(train, delta, horizon)
    estimate = invert_to_kernel(grid)

    # in FAMILIES order, which also breaks residue ties
    singles = [fit_single(estimate, tag) for tag in FAMILIES]
    k1 = min(singles, key=lambda f: f.residue)

    expansion_pairs = [(op, fam) for op in ("add", "multiply") for fam in FAMILIES]
    expansions = [fit_expansion(estimate, k1, op, fam) for op, fam in expansion_pairs]
    k2 = min(expansions, key=lambda f: f.residue)

    audit = tuple(
        [AuditEntry(label=f"single:{tag}", fit=f) for tag, f in zip(FAMILIES, singles)]
        + [
            AuditEntry(label=f"expand:{'+' if op == 'add' else 'x'}{fam}", fit=f)
            for (op, fam), f in zip(expansion_pairs, expansions)
        ]
    )

    level = select_level(k1, k2, config.eta)

    lam_hat = grid.lambda_hat

    def level_llh(fit: FitResult) -> float:
        if not fit.verdict.stationary:
            return -math.inf
        mu = max(lam_hat * (1.0 - fit.verdict.norm_value), 1e-12)
        return log_likelihood(HawkesModel(mu=mu, kernel=fit.kernel), eval_events).value

    llh_k1 = level_llh(k1)
    llh_k2 = level_llh(k2)
    llh_level = {"K1": llh_k1, "K2": llh_k2, None: -math.inf}[level]

    gd_train = fit_gd_exponential(train, config.gd_restarts)
    if math.isfinite(gd_train.llh):
        gd_llh = log_likelihood(gd_train.model, eval_events).value
    else:
        gd_llh = -math.inf
    gd = GdFit(model=gd_train.model, llh=gd_llh)

    if level is None and not math.isfinite(gd.llh):
        raise NoStationaryModelError("no stationary model found")

    chosen = level if level is not None else "GD"
    if gd.llh > llh_level:
        chosen = "GD"

    return DecompositionResult(
        chosen=chosen,
        k1=k1,
        k2=k2,
        gd=gd,
        eta=config.eta,
        llh_k_chosen=llh_level,
        llh_k1=llh_k1,
        llh_k2=llh_k2,
        mu_hat=max(lam_hat * (1.0 - (k1 if level != "K2" else k2).verdict.norm_value), 1e-12),
        audit=audit,
        grid=grid,
        estimate=estimate,
    )
