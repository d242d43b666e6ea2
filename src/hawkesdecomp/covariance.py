"""Empirical mean rate and discretized covariance of an event sequence.

The covariance grid bins the counting process into adjacent windows of
width ``delta`` (the bandwidth is the grid step), centers each bin count by
``lambda_hat * delta``, and averages lagged products, one lag after another
in a single process.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .simulate import EventSequence

__all__ = ["CovarianceGrid", "estimate_lambda", "covariance_grid", "horizon_from_histogram"]


@dataclass(frozen=True)
class CovarianceGrid:
    """Covariance estimates at lags ``0, delta, 2*delta, ...``."""

    values: np.ndarray
    delta: float
    tau_max: float
    lambda_hat: float

    def __post_init__(self):
        if self.lambda_hat < 0:
            raise ValueError("lambda_hat must be nonnegative")

    @property
    def lags(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.delta


def estimate_lambda(events: EventSequence) -> float:
    """Empirical mean rate N(T) / T."""
    if len(events) == 0:
        raise ValueError("cannot estimate a rate from an empty sequence")
    return len(events) / events.horizon_T


def covariance_grid(events: EventSequence, delta: float, tau_max: float) -> CovarianceGrid:
    """Estimate the stationary covariance on a lag grid of step ``delta``.

    For lag ``k*delta`` the estimate is ``(1/T) * sum_i (C_i - L*d)(C_{i+k} - L*d)``
    over adjacent bin counts ``C_i`` in windows ``[i*delta, (i+1)*delta)``,
    with ``L = lambda_hat`` and ``d = delta``, for the lags below
    ``tau_max``.  Lags whose window would extend past the observation
    horizon are dropped.
    """
    T = events.horizon_T
    if not (0 < delta < tau_max <= T):
        raise ValueError("require 0 < delta < tau_max <= horizon_T")
    if len(events) < 2:
        raise ValueError("need at least two events to estimate covariance")

    lam = estimate_lambda(events)
    m = int(math.floor(T / delta))
    # delta = tau_max / resolution can leave the ratio a few ulps short of
    # resolution; those ulps must not drop the last lag
    n_lags = int(math.floor(tau_max / delta * (1.0 + 4.0 * sys.float_info.epsilon)))
    n_lags = min(n_lags, m)  # drop lags whose window exceeds T

    idx = np.floor(events.timestamps / delta).astype(int)
    counts = np.bincount(idx[idx < m], minlength=m).astype(float)
    centered = counts - lam * delta

    values = np.empty(n_lags, dtype=float)
    for k in range(n_lags):
        # each lag is an independent reduction over the same bin array
        values[k] = np.dot(centered[: m - k], centered[k:]) / T
    return CovarianceGrid(values=values, delta=delta, tau_max=tau_max, lambda_hat=lam)


def horizon_from_histogram(events: EventSequence, percentile: float = 0.95) -> float:
    """Scale-independent lag horizon from the inter-event interval histogram.

    Builds a 100-bin histogram of successive inter-event intervals and
    returns the upper edge of the first bin whose cumulative mass strictly
    exceeds ``percentile``.
    """
    if not (0.0 < percentile < 1.0):
        raise ValueError("percentile must lie strictly between 0 and 1")
    if len(events) < 2:
        raise ValueError("need at least two events")
    intervals = np.diff(events.timestamps)
    if np.all(intervals == 0):
        raise ValueError("degenerate sequence: all inter-event intervals are zero")
    hist, edges = np.histogram(intervals, bins=100)
    cum = np.cumsum(hist) / hist.sum()
    idx = int(np.argmax(cum > percentile))
    return float(edges[idx + 1])
