"""Empirical mean rate and discretized covariance of an event sequence.

The covariance grid bins the counting process into adjacent windows of
width ``delta`` (the bandwidth is the grid step), centers each bin count by
``lambda_hat * delta``, and averages lagged products.  It is computed in the
pair-count form of the second-order estimator (Bacry & Muzy 2016): the
lagged sums of bin-count products are exact integer counts taken over the
occupied bins only, and the centring terms are integer event counts, so the
work is O(occupied bins x lags), the memory O(n + lags), nothing is sized by
the horizon, and no BLAS call is made.
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

    For lag ``k*delta`` the estimate is ``(1/T) * sum_i (C_i - L)(C_{i+k} - L)``
    over the ``m = floor(T/delta)`` adjacent bin counts ``C_i`` in windows
    ``[i*delta, (i+1)*delta)``, ``i < m - k``, with ``L = lambda_hat * delta``,
    for the lags below ``tau_max``.  Lags whose window would extend past the
    observation horizon are dropped.

    Expanded, the sum is ``pairs_k - L * edge_k + (m - k) L^2``: ``pairs_k =
    sum_i C_i C_{i+k}`` is counted over the occupied bins that lie ``k`` apart,
    and ``edge_k`` is the number of events in bins ``[0, m - k)`` plus those
    in ``[k, m)``.  The work is O(occupied bins x lags) and the memory
    O(n + lags); no array is sized by ``T/delta`` and no BLAS call is made,
    so the values do not depend on the BLAS thread count.
    """
    T = events.horizon_T
    if not (0 < delta < tau_max <= T):
        raise ValueError("require 0 < delta < tau_max <= horizon_T")
    if not T / delta < 2.0**53:  # float bin indices are exact integers below 2^53
        raise ValueError(f"grid step {delta:g} (tau_max / resolution) splits horizon_T {T:g} into 2^53 bins"
                         " or more; raise tau_max or lower resolution")
    if len(events) < 2:
        raise ValueError("need at least two events to estimate covariance")

    lam = estimate_lambda(events)
    m = int(math.floor(T / delta))
    # delta = tau_max / resolution can leave the ratio a few ulps short of
    # resolution; those ulps must not drop the last lag
    n_lags = int(math.floor(tau_max / delta * (1.0 + 4.0 * sys.float_info.epsilon)))
    n_lags = min(n_lags, m)  # drop lags whose window exceeds T

    idx = np.floor(events.timestamps / delta).astype(np.int64)
    idx = idx[idx < m]  # events in the trailing partial bin are dropped
    bins, counts = np.unique(idx, return_counts=True)
    lags = np.arange(n_lags)
    # pairs[k] = sum_i C_i C_{i+k}: for each offset j between occupied bins,
    # the count products of the bin pairs fewer than n_lags bins apart.  The
    # bins are strictly increasing, so once an offset has no such pair no
    # larger one has; the float sums are exact integers below 2^53
    pairs = np.zeros(n_lags)
    for j in range(bins.size):
        gap = bins[j:] - bins[: bins.size - j]
        near = gap < n_lags
        if not near.any():
            break
        pairs += np.bincount(gap[near], weights=(counts[j:] * counts[: counts.size - j])[near], minlength=n_lags)
    # events in bins [0, m - k) and in bins [k, m)
    edge = np.searchsorted(idx, m - lags) + idx.size - np.searchsorted(idx, lags)
    L = lam * delta
    values = (pairs - L * edge + (m - lags) * L * L) / T
    return CovarianceGrid(values=values, delta=delta, tau_max=tau_max, lambda_hat=lam)


# the share of the inter-event intervals that the lag horizon covers
HORIZON_SHARE = 0.95


def horizon_from_histogram(events: EventSequence) -> float:
    """Scale-independent lag horizon from the inter-event interval histogram.

    Builds a 100-bin histogram of successive inter-event intervals and
    returns the upper edge of the first bin whose cumulative mass strictly
    exceeds ``HORIZON_SHARE``.  Intervals too close together for 100 bins
    (all equal, and so large that numpy's unit-wide range around them rounds
    away) raise ``ValueError``: such a sequence needs ``tau_max``.
    """
    if len(events) < 2:
        raise ValueError("need at least two events")
    intervals = np.diff(events.timestamps)
    try:
        hist, edges = np.histogram(intervals, bins=100)
    except ValueError:  # numpy cannot split the intervals' range into 100 bins
        low, high = intervals.min(), intervals.max()
        raise ValueError(f"the inter-event intervals ({low:g} to {high:g}) are all equal, or nearly: too close"
                         " together for 100 histogram bins; set tau_max (--tau-max)") from None
    cum = np.cumsum(hist) / hist.sum()
    idx = int(np.argmax(cum > HORIZON_SHARE))
    return float(edges[idx + 1])
