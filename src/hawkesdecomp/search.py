"""Greedy two-level kernel decomposition with stationarity gating and a
gradient-based exponential baseline.

The pipeline: estimate the covariance grid, invert it to a nonparametric
kernel, fit the four base families (K1 = minimum residue), expand K1 by
the eight (operator, family) pairs (K2 = minimum residue), gate both on
their closed-form stationarity, regularize the level choice by ``eta``,
and finally keep whichever of the decomposition model and the directly
optimized exponential scores the higher log-likelihood.  The exponential
baseline (GD) runs L-BFGS-B on the value and analytic gradient of
``likelihood.exp_log_likelihood``, the likelihood engine's own recursion.

The twelve fits are two searches, and a search spans sequences:
``decompose_batch`` runs the first stage of each sequence, then one
``fit.fit_batch`` search over the 32 Nelder-Mead starts of the four singles
of every sequence, in lock-step, then one over the 40-56 starts of each
K1's eight expansions, then each sequence's likelihoods, GD fit and level
choice.  ``decompose`` is the batch of one.  Each step is a few dozen small
numpy calls on about 100 lags for all of a level's live starts at once, so
a step's cost hardly grows with the starts it carries, and a batch of four
sequences costs far less than four fits.  Those calls hold the interpreter
lock for most of their time, so thread pools gave no overlap: with them
``decompose`` measured slower than serial.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 -- the benchmark tracer patches this name
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .covariance import CovarianceGrid, covariance_grid, horizon_from_histogram
from .fit import FitResult, fit_batch
from .fit import fit_expansion, fit_single  # noqa: F401 -- the benchmark tracer patches these names
from .kernels import FAMILIES, Exp, Kernel
from .likelihood import exp_log_likelihood, log_likelihood
from .simulate import EventSequence, HawkesModel
from .spectral import KernelEstimate, invert_to_kernel

__all__ = [
    "DecompositionConfig",
    "DecompositionResult",
    "GdFit",
    "NoStationaryModelError",
    "AuditEntry",
    "decompose",
    "decompose_batch",
    "select_level",
    "fit_gd_exponential",
    "kernel_estimate",
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

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0 < self.horizon_percentile < 1:
            raise ValueError(f"horizon_percentile must lie in (0, 1), got {self.horizon_percentile!r}")
        if not self.resolution >= 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution!r}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not 1 <= self.gd_restarts <= 5:  # the length of the GD restart ladder
            raise ValueError(f"gd_restarts must be between 1 and 5, got {self.gd_restarts!r}")


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
        return HawkesModel(self.mu_hat, self.chosen_kernel)

    def mu_hat_for(self, level: str) -> float:
        return _level_mu(self.k1 if level == "K1" else self.k2, self.grid.lambda_hat)


def _level_mu(fit: FitResult, lambda_hat: float) -> float:
    """Background rate of a decomposition level: the mean event rate times
    one minus the kernel's norm, floored at 1e-12."""
    return max(lambda_hat * (1.0 - fit.verdict.norm_value), 1e-12)


def train_test_split(events: EventSequence, fraction: float) -> tuple[EventSequence, EventSequence]:
    """First ``ceil(fraction * n)`` events for training, the rest held out.

    The training horizon ends at the split time (the last training event);
    the test sequence is time-shifted to start at 0 there, so its
    likelihood charges the background rate over the test window only.
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
    test = EventSequence(ts[n_train:] - split_time, events.horizon_T - split_time)
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


def _gd_objective(params, events: EventSequence):
    """Negative log-likelihood of an exponential Hawkes model and its
    gradient, for the minimizer; an unusable point scores 1e30."""
    value, grad = exp_log_likelihood(*params, events)
    if not math.isfinite(value):
        return 1e30, np.zeros(3)
    return -value, -grad


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

    Runs L-BFGS-B with the analytic gradient of ``exp_log_likelihood`` from
    a deterministic restart ladder; a non-stationary optimum
    (alpha >= beta) is reported with an ``-inf`` likelihood, like the
    unusable parameter combinations the direct method can get stuck in, and
    so is a fit where no restart ends at a finite point.
    """
    if len(events) < 2:
        raise ValueError("need at least two events")
    starts = _gd_starts(events, restarts)
    best_val, best_x = math.inf, None
    for x0 in starts:
        res = minimize(
            _gd_objective,
            np.asarray(x0, dtype=float),
            args=(events,),
            jac=True,
            method="L-BFGS-B",
            bounds=[(1e-10, None)] * 3,
        )
        if float(res.fun) < best_val and np.all(np.isfinite(res.x)):
            best_val, best_x = float(res.fun), res.x
    # when no restart ends at a finite point, report the first start, unusable
    mu, alpha, beta = (float(x) for x in (starts[0] if best_x is None else best_x))
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


def kernel_estimate(
    events: EventSequence, config: DecompositionConfig = DecompositionConfig()
) -> tuple[EventSequence, EventSequence, CovarianceGrid, KernelEstimate]:
    """The pipeline's first stage: ``(train, scored, grid, estimate)``.

    With ``config.holdout`` set, the first ``holdout`` share of the events
    trains and the rest is scored; without it the whole sequence does both.
    The covariance grid and its nonparametric kernel estimate come from the
    training part only.
    """
    train, scored = (events, events) if config.holdout is None else train_test_split(events, config.holdout)
    horizon, delta = lag_grid(train, config.resolution, config.horizon_percentile, config.tau_max)
    grid = covariance_grid(train, delta, horizon)
    return train, scored, grid, invert_to_kernel(grid)


# K1's eight expansions, in the order of the audit
EXPANSION_PAIRS = tuple((op, fam) for op in ("add", "multiply") for fam in FAMILIES)


def _decomposition(events: EventSequence, config: DecompositionConfig):
    """``decompose`` on one sequence as a generator: it yields its two
    ``fit_batch`` requests, the singles and then K1's expansions, is sent
    each answer, and returns the result."""
    train, scored, grid, estimate = kernel_estimate(events, config)

    # in FAMILIES order, which also breaks residue ties
    singles = yield estimate, None, FAMILIES
    k1 = min(singles, key=lambda f: f.residue)

    expansions = yield estimate, k1, EXPANSION_PAIRS
    k2 = min(expansions, key=lambda f: f.residue)

    audit = tuple(
        [AuditEntry(label=f"single:{tag}", fit=f) for tag, f in zip(FAMILIES, singles)]
        + [
            AuditEntry(label=f"expand:{'+' if op == 'add' else 'x'}{fam}", fit=f)
            for (op, fam), f in zip(EXPANSION_PAIRS, expansions)
        ]
    )

    level = select_level(k1, k2, config.eta)

    def level_llh(fit: FitResult) -> float:
        if not fit.verdict.stationary:
            return -math.inf
        model = HawkesModel(mu=_level_mu(fit, grid.lambda_hat), kernel=fit.kernel)
        return log_likelihood(model, scored).value

    llh_k1 = level_llh(k1)
    llh_k2 = level_llh(k2)
    llh_level = {"K1": llh_k1, "K2": llh_k2, None: -math.inf}[level]

    gd_train = fit_gd_exponential(train, config.gd_restarts)
    if math.isfinite(gd_train.llh):
        gd_llh = log_likelihood(gd_train.model, scored).value
    else:
        gd_llh = -math.inf
    gd = GdFit(model=gd_train.model, llh=gd_llh)

    if level is None and not math.isfinite(gd.llh):
        raise NoStationaryModelError("no stationary model found")

    chosen = level if level is not None else "GD"
    if gd.llh > llh_level:
        chosen = "GD"
    mu_hat = gd.model.mu if chosen == "GD" else _level_mu(k1 if chosen == "K1" else k2, grid.lambda_hat)

    return DecompositionResult(
        chosen=chosen,
        k1=k1,
        k2=k2,
        gd=gd,
        eta=config.eta,
        llh_k_chosen=llh_level,
        llh_k1=llh_k1,
        llh_k2=llh_k2,
        mu_hat=mu_hat,
        audit=audit,
        grid=grid,
        estimate=estimate,
    )


def decompose_batch(sequences, config: DecompositionConfig = DecompositionConfig()) -> list:
    """``decompose`` on each of ``sequences``, with one search per level
    over all of them: the first stage of each sequence, then the singles of
    all of them, then their expansions, then each sequence's likelihoods,
    GD fit and level choice.

    Gives per sequence its ``DecompositionResult``, or the ``ValueError``
    or ``NoStationaryModelError`` that ``decompose`` raises for it; a
    sequence that fails leaves the others' results unchanged.
    """
    pipelines = [_decomposition(events, config) for events in sequences]
    outcomes = [None] * len(pipelines)
    answers = dict.fromkeys(range(len(pipelines)))  # what each live pipeline is sent next
    while answers:
        requests = {}
        for i, answer in answers.items():
            try:
                if isinstance(answer, ValueError):
                    requests[i] = pipelines[i].throw(answer)
                else:
                    requests[i] = pipelines[i].send(answer)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except (ValueError, NoStationaryModelError) as exc:
                outcomes[i] = exc
        answers = dict(zip(requests, fit_batch(list(requests.values()))))
    return outcomes


def decompose(events: EventSequence, config: DecompositionConfig = DecompositionConfig()) -> DecompositionResult:
    """Run the full decomposition pipeline on an event sequence: the batch
    of one."""
    (outcome,) = decompose_batch([events], config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
