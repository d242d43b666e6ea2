"""Exact point-process log-likelihood for Hawkes models.

``l = sum_i log(lambda(t_i)) - integral_0^T lambda(u) du``.  One engine
computes the event intensities and the time-rescaling increments.  Each
addend of a kernel takes one of two routes, by its support:

* Infinite support: EXP, PWL, EXPxEXP, EXPxPWL and PWLxPWL are completely
  monotone, so each is written as J real terms ``sum_j w_j exp(-z_j t)``
  (``kernels._terms``).  EXP is one exact term.  PWL is the trapezoid rule in ``x = log s`` on its
  Laplace form ``(c+t)^-p = int s^(p-1) e^(-c s) e^(-t s) ds / Gamma(p)``
  (Beylkin & Monzon 2005, 2010).  EXPxPWL shifts every rate by beta.
  PWLxPWL uses one term set from the product's Laplace density, the
  convolution of the two gamma densities,
  ``e^(-c2 s) s^(p1+p2-1) 1F1(p1; p1+p2; (c2-c1) s) / Gamma(p1+p2)``.
  The step and the range of ``s`` are set so that a term set matches its
  kernel to about 1e-13 relative at every lag in ``[0, horizon]``.  Per
  term, ``R_i = sum_{k<i} exp(-z (t_i - t_k))`` follows Ozaki's (1979)
  recursion ``R_i = exp(-z d_i) (R_{i-1} + 1)`` on the event-time
  differences ``d_i``.  That recursion is a unit lower-bidiagonal solve,
  which BLAS ``dtbsv`` runs in compiled code, a few terms per call, so the
  cost is O(n J) and no (J, n) array is built.
* Finite support: any kernel with a SQR or SNS factor is summed exactly
  over the event pairs that lie within its support end, in O(n w), where
  w is the mean number of events in one support window.

Every compensator is the kernel's own closed form, ``compensator`` on its
class; a product's comes from the one pair table, ``Product.compensator``,
which for EXPxPWL, PWLxPWL and PWLxSNS runs on the same term sets.
Nothing is truncated or integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .kernels import _BLOCK, Kernel, Sum, _terms
from .simulate import EventSequence, HawkesModel

__all__ = [
    "LogLikelihood",
    "compensator",
    "log_likelihood",
    "compensator_increments",
    "exp_log_likelihood",
]


@dataclass(frozen=True)
class LogLikelihood:
    """Log-likelihood value in nats; ``-inf`` when any event intensity is
    nonpositive."""

    value: float
    n_events: int
    horizon_T: float


# ---------------------------------------------------------------------------
# exponential-sum recursion


def _split(kernel: Kernel, horizon: float):
    """The infinite-support addends of ``kernel`` as one term set ``(w, z)``
    on ``[0, horizon]``, and the list of its finite-support addends."""
    ws, zs, finite = [np.empty(0)], [np.empty(0)], []
    for part in (kernel.left, kernel.right) if isinstance(kernel, Sum) else (kernel,):
        terms = _terms(part, horizon)
        if terms is None:
            finite.append(part)
        else:
            ws.append(terms[0])
            zs.append(terms[1])
    return np.concatenate(ws), np.concatenate(zs), finite


def _recursion(decay: np.ndarray, rhs: np.ndarray, band: np.ndarray) -> np.ndarray:
    """``x_i = decay_i x_{i-1} + rhs_i`` along each row of (B, n) arrays,
    solved in place in ``rhs``; ``band`` is a (B n, 2) buffer for the matrix.

    ``decay[:, 0]`` must be 0, which starts every row afresh, so the rows
    run as one bidiagonal solve of length B n.
    """
    flat = decay.ravel()
    band[:-1, 1] = -flat[1:]
    return blas.dtbsv(1, band.T, rhs.ravel(), lower=1, diag=1, overwrite_x=1).reshape(decay.shape)


def _decay_sums(z: np.ndarray, gaps: np.ndarray):
    """Blocks ``(j, R)`` of ``R[j', i] = sum_{k<i} exp(-z_j' (t_i - t_k))``
    for the ``_BLOCK`` rates from ``z[j]`` on; ``gaps`` is
    ``diff(ts, prepend=-inf)``.

    Every block is solved in the same (B, n) and (B n, 2) buffers, kept for
    the whole pass, so each block's ``R`` overwrites the one before; fresh
    arrays per block would be mapped and faulted in again every time.
    """
    rows = min(_BLOCK, z.size)
    decay, band = np.empty((rows, gaps.size)), np.zeros((rows * gaps.size, 2))
    for j in range(0, z.size, _BLOCK):
        block = decay[: min(_BLOCK, z.size - j)]
        np.exp(np.multiply.outer(-z[j : j + _BLOCK], gaps, out=block), out=block)
        yield j, _recursion(block, block, band[: block.size])


# ---------------------------------------------------------------------------
# compensator


def compensator(kernel: Kernel, s) -> np.ndarray:
    """Kernel compensator ``Phi(s) = int_0^s phi(u) du``, vectorized in ``s``."""
    arr = np.asarray(s, dtype=float)
    scalar = np.isscalar(s) or arr.ndim == 0
    arr = np.maximum(np.atleast_1d(arr), 0.0)
    if arr.size == 0:
        return arr
    out = np.broadcast_to(kernel.compensator(arr), arr.shape).astype(float)
    if scalar:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# intensities, log-likelihood and rescaled increments


# lag pairs per chunk of the finite-support sums: a chunk's arrays stay
# small enough to be reused from the heap rather than mapped afresh
_PAIRS = 1 << 12


def _window_pairs(ts: np.ndarray, end: float, offset: int):
    """Chunks ``(rows, i, k)`` of the index pairs, ``k < i``, whose lag
    ``t_(i - offset) - t_k`` is at most ``end``, nearest ``k`` first; each
    chunk holds whole rows, the slice ``rows`` of ``i``, and about
    ``_PAIRS`` pairs.

    Each row also takes the one pair just past its window, so rounding at
    the window's edge drops none; a pair past the support adds exactly 0.
    The work is the number of pairs, which follows the mean event rate,
    not the densest window of the sequence.
    """
    n = ts.size
    first = np.maximum(np.searchsorted(ts, ts[: n - offset] - end) - 1, 0)
    counts = np.arange(offset, n) - first
    ends = np.cumsum(counts)
    start = 0
    while start < counts.size:
        budget = ends[start] - counts[start] + _PAIRS
        stop = max(int(np.searchsorted(ends, budget, "right")), start + 1)
        c = counts[start:stop]
        i = np.repeat(np.arange(start + offset, stop + offset), c)
        back = np.arange(i.size) - np.repeat(np.cumsum(c) - c, c)
        yield slice(start + offset, stop + offset), i, i - 1 - back
        start = stop


def _event_intensities(model: HawkesModel, events: EventSequence) -> np.ndarray:
    """Left-limit intensity at each event (event at t_i itself excluded)."""
    ts = events.timestamps
    lam = np.full(ts.size, model.mu, dtype=float)
    w, z, finite = _split(model.kernel, float(ts[-1] - ts[0]))
    gaps = np.diff(ts, prepend=-np.inf)
    for j, sums in _decay_sums(z, gaps):
        lam += w[j : j + _BLOCK] @ sums
    for part in finite:
        for rows, i, k in _window_pairs(ts, part.support_end(), 0):
            values = part.evaluate(ts[i] - ts[k])
            lam[rows] += np.bincount(i - rows.start, values, rows.stop - rows.start)
    return lam


def log_likelihood(model: HawkesModel, events: EventSequence) -> LogLikelihood:
    """Exact log-likelihood of ``events`` under ``model`` on ``[0, T]``."""
    ts = events.timestamps
    T = events.horizon_T
    n = ts.size
    if n == 0:
        return LogLikelihood(value=-model.mu * T, n_events=0, horizon_T=T)
    lam = _event_intensities(model, events)
    if np.any(lam <= 0):
        return LogLikelihood(value=-math.inf, n_events=n, horizon_T=T)
    total = float(np.sum(np.log(lam)))
    total -= model.mu * T
    total -= float(np.sum(compensator(model.kernel, T - ts)))
    return LogLikelihood(value=total, n_events=n, horizon_T=T)


def compensator_increments(model: HawkesModel, events: EventSequence) -> np.ndarray:
    """Time-rescaling increments ``Lambda(t_i) - Lambda(t_{i-1})``.

    For events drawn from ``model`` these are approximately i.i.d.
    unit-exponential, which is the basis of the Q-Q residual diagnostics.
    Each increment is summed from its own pieces, never as a difference of
    the running totals.
    """
    ts = events.timestamps
    n = ts.size
    if n == 0:
        return np.empty(0)
    inc = model.mu * np.diff(ts, prepend=0.0)
    w, z, finite = _split(model.kernel, float(ts[-1] - ts[0]))
    gaps = np.diff(ts, prepend=-np.inf)
    weights, steps, falls = w / z, gaps[1:], np.empty((min(_BLOCK, z.size), n - 1))
    for j, sums in _decay_sums(z, gaps):
        # the events k < i add w/z (R_{i-1} + 1) (1 - exp(-z (t_i - t_{i-1}))),
        # summed here as the negated exp(-z (t_i - t_{i-1})) - 1
        fall = falls[: sums.shape[0]]
        np.expm1(np.multiply.outer(-z[j : j + _BLOCK], steps, out=fall), out=fall)
        fall *= np.add(sums[:, :-1], 1.0, out=sums[:, :-1])
        inc[1:] -= weights[j : j + _BLOCK] @ fall
    for part in finite:
        integral = part.compensator_within(part.support_end())
        for rows, i, k in _window_pairs(ts, part.support_end(), 1):
            rise = integral(ts[i] - ts[k]) - integral(ts[i - 1] - ts[k])
            inc[rows] += np.bincount(i - rows.start, rise, rows.stop - rows.start)
    return inc


def _exp_sums(beta: float, events: EventSequence):
    """One pass of the rate-``beta`` recursion: ``R_i``, ``S_i``, the
    compensator of a unit amplitude,
    ``M = sum_i (1 - exp(-beta (T - t_i))) / beta``, and ``dM/dbeta``.

    ``R_i = sum_{k<i} exp(-beta (t_i - t_k))`` and
    ``S_i = sum_{k<i} (t_i - t_k) exp(-beta (t_i - t_k)) = -dR_i/dbeta``
    follow ``R_i = exp(-beta d_i) (R_{i-1} + 1)`` and
    ``S_i = exp(-beta d_i) (S_{i-1} + d_i (R_{i-1} + 1))``.
    """
    ts, T = events.timestamps, events.horizon_T
    gaps = np.diff(ts, prepend=-np.inf)
    decay = np.exp(-beta * gaps)[None, :]
    band = np.zeros((gaps.size, 2))
    r = _recursion(decay, decay.copy(), band)[0]
    drive = np.zeros_like(r)
    drive[1:] = decay[0, 1:] * gaps[1:] * (r[:-1] + 1.0)
    s = _recursion(decay, drive[None, :], band)[0]
    left = T - ts
    mass = float(np.sum(-np.expm1(-beta * left))) / beta
    return r, s, mass, (float(np.sum(left * np.exp(-beta * left))) - mass) / beta


def exp_log_likelihood(mu: float, alpha: float, beta: float, events: EventSequence):
    """Log-likelihood of the model ``mu + alpha exp(-beta t)`` and its
    gradient in ``(mu, alpha, beta)``, from one pass of ``_exp_sums``."""
    r, s, mass, dmass = _exp_sums(beta, events)
    lam = mu + alpha * r
    value = float(np.sum(np.log(lam))) - mu * events.horizon_T - alpha * mass
    grad = np.array(
        [
            float(np.sum(1.0 / lam)) - events.horizon_T,
            float(np.sum(r / lam)) - mass,
            -alpha * (float(np.sum(s / lam)) + dmass),
        ]
    )
    return value, grad


def __getattr__(name):
    """``quad``, which only the benchmark tracer reads, is imported on first
    access, so that importing this module loads no ``scipy.integrate``."""
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
