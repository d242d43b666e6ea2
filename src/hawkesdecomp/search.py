"""Greedy two-level kernel decomposition with stationarity gating and a
gradient-based exponential baseline.

The pipeline: estimate the covariance grid, invert it to a nonparametric
kernel, fit the four base families (K1 = minimum residue), expand K1 by
the eight (operator, family) pairs (K2 = minimum residue), gate both on
their closed-form stationarity, regularize the level choice by ``eta``,
and finally keep whichever of the decomposition model and the directly
optimized exponential scores the higher log-likelihood.

The exponential baseline (GD) is a maximum-likelihood fit on the profile
over the decay rate ``beta``.  At a fixed ``beta`` the optimum over the
background rate and the amplitude is one concave 1-D problem, solved by
Newton steps (``_gd_profile``).  The profile's slope is the likelihood's
``beta`` derivative there, and a bracketed root search over ``log beta``
from each rate of a fixed ladder finds the best rate
(``fit_gd_exponential``).  Each rate costs one pass of the likelihood
engine's Ozaki recursion, ``likelihood._exp_sums``.  No scipy optimizer
runs, so importing the package loads no ``scipy.optimize``; the
``minimize`` name that the benchmark tracer wraps resolves only when read.

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

import logging
import math
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 -- the benchmark tracer patches this name
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceGrid, covariance_grid, horizon_from_histogram
from .fit import FitResult, fit_batch
from .fit import fit_expansion, fit_single  # noqa: F401 -- the benchmark tracer patches these names
from .kernels import FAMILIES, Exp, Kernel
from .likelihood import _exp_sums, log_likelihood
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


_log = logging.getLogger(__name__)


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


# the GD search: the floor on alpha, the step of the bracketing walk and the
# tolerance of the root search, both in log beta, and the profile evaluations
# one start may make
_ALPHA_FLOOR = 1e-10
_GD_STEP = math.log(4.0)
_GD_XTOL = 1e-9
_GD_CAP = 60
# why a search ended short of a root, besides what the profile says
_JOINED, _CAPPED = "joined", "at its cap"


def _background_share(a: np.ndarray, b: np.ndarray, s: float, top: float):
    """The ``s`` in ``(0, top]`` that maximizes ``sum(log(a + s b))``, and
    ``a + s b`` there.

    The sum is concave in ``s`` and its slope falls from ``+inf`` at 0 (the
    first event has ``a = 0`` and ``b > 0``), so Newton steps from ``s`` are
    kept inside the bracket of the slope's root, and bisect it when they
    leave it; ``top`` is tried when a step passes it, and is the answer when
    the slope is still positive there.  Every ``a + s b`` stays positive.
    """
    lo, hi = 0.0, math.inf  # hi stays inf until a slope at or below 0 is seen
    for _ in range(100):
        d = a + s * b
        q = b / d
        slope = float(np.sum(q))
        if slope > 0:
            lo = s
            if s == top:
                break
        else:
            hi = s
        step = slope / float(np.sum(q * q))
        if abs(step) <= 1e-12 * s:
            break
        s += step
        if not lo < s < min(hi, top):
            s = top if s >= top and hi == math.inf else 0.5 * (lo + min(hi, top))
    else:
        d = a + s * b
    return s, d


def _gd_profile(beta: float, events: EventSequence, s: float):
    """The exponential model's log-likelihood at the rate ``beta``,
    maximized over ``mu`` and ``alpha``; its slope in ``log beta``; and the
    optimum's ``s`` and ``alpha``, searched from ``s``.

    Over ``(mu, alpha)`` the log-likelihood is concave, and its optimum lies
    on ``mu T + alpha M = n``.  With ``mu = n s / T`` and
    ``alpha = n (1 - s) / M`` it is
    ``n log n - n + max_s sum_i log(s / T + (1 - s) R_i / M)``, with
    ``alpha`` at least ``_ALPHA_FLOOR``.  The slope is ``dl/dbeta`` at that
    optimum, times ``beta``.
    """
    n, T = len(events), events.horizon_T
    r, dr, mass, dmass = _exp_sums(beta, events)
    top = 1.0 - _ALPHA_FLOOR * mass / n
    if not top > 0:  # alpha's floor alone gives n events: no rate is left for mu
        return -math.inf, math.nan, s, _ALPHA_FLOOR
    a = r / mass
    s, d = _background_share(a, 1.0 / T - a, min(s, top), top)
    alpha = _ALPHA_FLOOR if s == top else n * (1.0 - s) / mass
    value = n * math.log(n) - n + float(np.sum(np.log(d)))
    slope = -alpha * beta * (float(np.sum(dr / d)) / n + dmass)
    return value, slope, s, alpha


def _gd_starts(events: EventSequence, n_starts: int) -> list[float]:
    """Deterministic ladder of decay rates: a generic unit rate first, then
    data-scaled ones."""
    lam = len(events) / events.horizon_T
    return [1.0, lam, 0.5 * lam, 1.6 * lam, 4.0 * lam][: max(1, min(n_starts, 5))]


def _gd_search(profile, x: float, searched: list) -> tuple[float, int, str | None]:
    """One start's search for a root of the profile's slope, from
    ``log beta = x``.

    It walks ``log beta`` uphill in steps of ``_GD_STEP`` until the slope
    changes sign, appends that bracket to ``searched``, and narrows it by
    the Illinois method to ``_GD_XTOL``.  ``profile(x)`` gives the slope at
    ``x``, and why the search must end there if it must.  Gives the last
    ``x`` evaluated, the number of evaluations, and why the search ended
    short of a root, if it did: ``_JOINED`` when the walk reached a bracket
    of ``searched``, whose search climbed the same hill; ``_CAPPED`` after
    ``_GD_CAP`` evaluations; or what ``profile`` said.
    """
    h, why = profile(x)
    evals, side, lo, hi, walking = 1, 0, None, None, True
    while why is None and h != 0:
        if h > 0:
            if side > 0 and not walking:
                hhi *= 0.5
            lo, hlo, side = x, h, 1
        else:
            if side < 0 and not walking:
                hlo *= 0.5
            hi, hhi, side = x, h, -1
        if walking and lo is not None and hi is not None:
            walking = False
            searched.append((lo, hi))
        if not walking and hi - lo <= _GD_XTOL:
            break
        if evals == _GD_CAP:
            return x, evals, _CAPPED
        if walking:
            y = x + math.copysign(_GD_STEP, h)
            if any(min(x, y) <= end and start <= max(x, y) for start, end in searched):
                return x, evals, _JOINED
            x = y
        else:
            x = (lo * hhi - hi * hlo) / (hhi - hlo)
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        h, why = profile(x)
        evals += 1
    return x, evals, why


def fit_gd_exponential(events: EventSequence, restarts: int = 5) -> GdFit:
    """Maximum-likelihood exponential Hawkes fit on the profile likelihood
    over the decay rate ``beta``.

    ``_gd_profile`` maximizes over ``(mu, alpha)`` exactly at each rate.
    Each rate of the ``_gd_starts`` ladder that no earlier bracket holds
    starts a ``_gd_search``; every evaluation warm-starts its inner solve
    from the nearest rate evaluated so far, and the best rate evaluated
    wins.  Each search that ends at its cap, at the ``alpha`` floor, at no
    finite point or at a non-stationary root is logged at DEBUG.

    A non-stationary optimum (alpha >= beta) is reported with an ``-inf``
    likelihood, and so is a fit where no rate gives a finite point.
    """
    if len(events) < 2:
        raise ValueError("need at least two events")
    seen = {}  # log beta -> _gd_profile there

    def profile(x: float):
        if x not in seen:
            usable = [y for y in seen if math.isfinite(seen[y][0])]
            near = min(usable, key=lambda y: abs(y - x), default=None)
            seen[x] = _gd_profile(math.exp(x), events, 0.5 if near is None else seen[near][2])
        value, slope, _, alpha = seen[x]
        if not (math.isfinite(value) and math.isfinite(slope)):
            return slope, "at no finite point"
        return slope, "at the alpha floor" if alpha == _ALPHA_FLOOR else None

    searched = []
    for beta in _gd_starts(events, restarts):
        if any(start <= math.log(beta) <= end for start, end in searched):
            continue
        x, evals, why = _gd_search(profile, math.log(beta), searched)
        alpha = seen[x][3]
        if why is None and alpha >= math.exp(x):
            why = "non-stationary"
        if why not in (None, _JOINED):
            _log.debug(
                "GD search from beta=%.6g ended %s, at beta=%.6g and alpha=%.6g after %d profile evaluations",
                beta, why, math.exp(x), alpha, evals,
            )

    finite = [item for item in seen.items() if math.isfinite(item[1][0])]
    if not finite:
        # no rate gave a finite point: report the generic start, unusable
        return GdFit(model=HawkesModel(mu=len(events) / events.horizon_T, kernel=Exp(1.0, 1.0)), llh=-math.inf)
    x, (value, _, s, alpha) = max(finite, key=lambda item: item[1][0])
    beta = math.exp(x)
    model = HawkesModel(mu=len(events) * s / events.horizon_T, kernel=Exp(alpha, beta))
    return GdFit(model=model, llh=value if alpha < beta else -math.inf)


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


def __getattr__(name):
    """``minimize``, which only the benchmark tracer reads, is imported on
    first access, so that importing this module loads no ``scipy.optimize``."""
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
