"""Exact point-process log-likelihood for Hawkes models.

``l = sum_i log(lambda(t_i)) - integral_0^T lambda(u) du``.  One engine
computes the event intensities and the time-rescaling increments.  Each
addend of a kernel takes one of two routes, by its support:

* Infinite support: EXP, PWL, EXPxEXP, EXPxPWL and PWLxPWL are completely
  monotone, so each is written as J real terms ``sum_j w_j exp(-z_j t)``.
  EXP is one exact term.  PWL is the trapezoid rule in ``x = log s`` on its
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
  over lag diagonals up to its support end, in O(n w), where w is the
  number of events in one support window.

Every compensator is closed form: the families' own, the product rows
below, and for EXPxPWL, PWLxPWL and PWLxSNS the same term sets.  Nothing
is truncated or integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special
from scipy.integrate import quad  # noqa: F401 -- the benchmark tracer patches this name
from scipy.linalg import blas

from .kernels import Exp, Kernel, Product, Pwl, Sns, Sqr, Sum, in_family_order
from .simulate import EventSequence, HawkesModel

__all__ = [
    "LogLikelihood",
    "compensator",
    "log_likelihood",
    "compensator_increments",
    "exp_log_likelihood",
]

# trapezoid error and cut-off tail mass of a term set, relative to the kernel
_TERM_TOL = 1e-13
_TAIL_TOL = 1e-14
# terms per recursion call: (_BLOCK, n) arrays bound the working set
_BLOCK = 4


@dataclass(frozen=True)
class LogLikelihood:
    """Log-likelihood value in nats; ``-inf`` when any event intensity is
    nonpositive."""

    value: float
    n_events: int
    horizon_T: float


# ---------------------------------------------------------------------------
# exponential-sum term sets


def _laplace_nodes(shape: float, c_lo: float, c_hi: float, horizon: float):
    """Trapezoid step ``h`` and nodes ``x = log s`` for a Laplace density
    below ``s^(shape-1) e^(-c_lo s) / Gamma(shape)`` whose transform falls
    no faster than ``(c_hi + t)^-shape``.

    The ends of the ``s`` range each cut off ``_TAIL_TOL`` of the mass at
    lags up to ``horizon``.  In ``x`` the integrand is analytic in the strip
    ``|Im x| < pi/2`` and grows there as ``cos(Im x)^-shape``, so the
    trapezoid error is about ``cos(d)^-shape exp(-2 pi d / h)`` for any
    ``d`` in the strip; ``h`` is the largest step that keeps it at
    ``_TERM_TOL``.
    """
    d = np.linspace(0.01, 1.56, 156)
    h = float(np.max(2.0 * np.pi * d / (-math.log(_TERM_TOL) - shape * np.log(np.cos(d)))))
    s_lo = special.gammaincinv(shape, _TAIL_TOL) / (c_hi + horizon)
    s_hi = special.gammainccinv(shape, _TAIL_TOL) / c_lo
    return h, np.arange(math.log(s_lo), math.log(s_hi) + h, h)


def _pwl_terms(kernel: Pwl, horizon: float):
    k, c, p = kernel.k, kernel.c, kernel.p
    h, x = _laplace_nodes(p, c, c, horizon)
    s = np.exp(x)
    return k * np.exp(math.log(h) + p * x - c * s - special.gammaln(p)), s


def _kummer_decay(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """``1F1(a; b; -x)`` for ``x >= 0`` and ``0 < a < b``.

    scipy's ``hyp1f1`` drifts and then returns NaN for large ``x`` (past
    about 1e10 when ``b - a`` is near 10), so from ``x = 1e5`` on this sums
    eight terms of the large-argument expansion (DLMF 13.7.2)
    ``Gamma(b) / Gamma(b-a) x^-a sum_s (a)_s (a-b+1)_s / s! x^-s``, which
    are exact to rounding there.
    """
    out = np.empty_like(x)
    big = x >= 1e5
    out[~big] = special.hyp1f1(a, b, -x[~big])
    xb = x[big]
    total, term = np.zeros_like(xb), np.ones_like(xb)
    for j in range(8):
        total += term
        term *= (a + j) * (a - b + 1.0 + j) / ((j + 1.0) * xb)
    out[big] = np.exp(special.gammaln(b) - special.gammaln(b - a) - a * np.log(xb)) * total
    return out


def _pwl_pwl_terms(a: Pwl, b: Pwl, horizon: float):
    # a is the factor with the larger c, so the 1F1 argument is <= 0
    if a.c < b.c:
        a, b = b, a
    shape = a.p + b.p
    h, x = _laplace_nodes(shape, b.c, a.c, horizon)
    s = np.exp(x)
    density = np.exp(math.log(h) + shape * x - b.c * s - special.gammaln(shape))
    return a.k * b.k * density * _kummer_decay(a.p, shape, (a.c - b.c) * s), s


def _terms(kernel: Kernel, horizon: float):
    """Weights and rates ``(w, z)`` with ``kernel(t) = sum_j w_j exp(-z_j t)``
    on ``[0, horizon]``, or None for a kernel with a finite support."""
    if isinstance(kernel, Exp):
        return np.array([kernel.alpha]), np.array([kernel.beta])
    if isinstance(kernel, Pwl):
        return _pwl_terms(kernel, horizon)
    if isinstance(kernel, Product):
        a, b = in_family_order(kernel.left, kernel.right)
        if isinstance(a, Pwl) and isinstance(b, Pwl):
            return _pwl_pwl_terms(a, b, horizon)
        if isinstance(a, Exp) and isinstance(b, (Exp, Pwl)):
            w, z = _terms(b, horizon)
            return a.alpha * w, z + a.beta
    return None


def _term_sum(integral, w: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_j w_j integral(z_j, s)`` at each ``s``, ``_BLOCK`` terms at a time."""
    out = np.zeros(s.shape)
    for j in range(0, z.size, _BLOCK):
        out += w[j : j + _BLOCK] @ integral(z[j : j + _BLOCK, None], s)
    return out


def _exp_integral(z, s):
    """``int_0^s exp(-z u) du``."""
    return -np.expm1(-z * s) / z


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


def _recursion(decay: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x_i = decay_i x_{i-1} + rhs_i`` along each row of (B, n) arrays.

    ``decay[:, 0]`` must be 0, which starts every row afresh, so the rows
    run as one bidiagonal solve of length B n.
    """
    flat = decay.ravel()
    band = np.zeros((flat.size, 2))
    band[:-1, 1] = -flat[1:]
    return blas.dtbsv(1, band.T, rhs.ravel(), lower=1, diag=1).reshape(decay.shape)


def _decay_sums(z: np.ndarray, gaps: np.ndarray):
    """``R[j, i] = sum_{k<i} exp(-z_j (t_i - t_k))`` for a block of rates,
    with the per-event decays ``exp(-z_j gaps_i)``; ``gaps`` is
    ``diff(ts, prepend=-inf)``."""
    decay = np.exp(np.multiply.outer(-z, gaps))
    return _recursion(decay, decay), decay


# ---------------------------------------------------------------------------
# compensator


def _sine_integral(sns: Sns, z, m):
    """``int_0^m exp(-z u) a sin(omega u) du`` for ``m`` within the half-wave."""
    w = sns.omega
    num = w - np.exp(-z * m) * (z * np.sin(w * m) + w * np.cos(w * m))
    return sns.a * num / (z * z + w * w)


def _compensator_product(a, b, s: np.ndarray) -> np.ndarray:
    """Truncated product integral ``int_0^s phi_a * phi_b`` for ``s >= 0``."""
    a, b = in_family_order(a, b)
    horizon = float(s.max())
    terms = _terms(Product(a, b), horizon)
    if terms is not None:  # EXPxEXP, EXPxPWL, PWLxPWL
        return _term_sum(_exp_integral, *terms, s)
    if isinstance(b, Sqr):  # the pulse is a constant on [0, l]
        return b.b * a.compensator(np.minimum(s, b.l))
    if isinstance(a, Sqr):  # SQRxSNS
        return a.b * b.compensator(np.minimum(s, a.l))
    if isinstance(a, Sns):  # SNSxSNS
        w1, w2 = a.omega, b.omega
        m = np.minimum(s, min(a.support_end(), b.support_end()))
        if math.isclose(w1, w2, rel_tol=1e-12):
            inner = m / 2.0 - np.sin(2.0 * w1 * m) / (4.0 * w1)
        else:
            inner = np.sin((w1 - w2) * m) / (2.0 * (w1 - w2)) - np.sin((w1 + w2) * m) / (
                2.0 * (w1 + w2)
            )
        return a.a * b.a * inner
    # EXPxSNS, PWLxSNS
    end = b.support_end()
    w, z = _terms(a, min(horizon, end))
    return _term_sum(partial(_sine_integral, b), w, z, np.minimum(s, end))


def compensator(kernel: Kernel, s) -> np.ndarray:
    """Kernel compensator ``Phi(s) = int_0^s phi(u) du``, vectorized in ``s``."""
    arr = np.asarray(s, dtype=float)
    scalar = np.isscalar(s) or arr.ndim == 0
    arr = np.maximum(np.atleast_1d(arr), 0.0)
    if arr.size == 0:
        return arr
    if isinstance(kernel, Product):
        out = _compensator_product(kernel.left, kernel.right, arr)
    else:
        out = kernel.compensator(arr)
    out = np.broadcast_to(out, arr.shape).astype(float)
    if scalar:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# intensities, log-likelihood and rescaled increments


def _diagonals(ts: np.ndarray, end: float, offset: int):
    """Lag diagonals ``d = 1, 2, ...``, while some pair of events
    ``(i - offset, i - d)`` lies at most ``end`` apart; past that, every
    pair of the diagonal and of all later ones lies farther apart."""
    n = ts.size
    for d in range(1, n):
        if np.min(ts[d - offset : n - offset] - ts[: n - d]) > end:
            return
        yield d


def _event_intensities(model: HawkesModel, events: EventSequence) -> np.ndarray:
    """Left-limit intensity at each event (event at t_i itself excluded)."""
    ts = events.timestamps
    lam = np.full(ts.size, model.mu, dtype=float)
    w, z, finite = _split(model.kernel, float(ts[-1] - ts[0]))
    gaps = np.diff(ts, prepend=-np.inf)
    for j in range(0, z.size, _BLOCK):
        lam += w[j : j + _BLOCK] @ _decay_sums(z[j : j + _BLOCK], gaps)[0]
    for part in finite:
        for d in _diagonals(ts, part.support_end(), 0):
            lam[d:] += part.evaluate(ts[d:] - ts[:-d])
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
    for j in range(0, z.size, _BLOCK):
        wb, zb = w[j : j + _BLOCK], z[j : j + _BLOCK]
        sums = _decay_sums(zb, gaps)[0]
        # the events k < i add w/z (R_{i-1} + 1) (1 - exp(-z (t_i - t_{i-1})))
        rise = -np.expm1(np.multiply.outer(-zb, gaps[1:]))
        inc[1:] += (wb / zb) @ ((1.0 + sums[:, :-1]) * rise)
    for part in finite:
        for d in _diagonals(ts, part.support_end(), 1):
            k = ts[: n - d]
            inc[d:] += compensator(part, ts[d:] - k) - compensator(part, ts[d - 1 : n - 1] - k)
    return inc


def exp_log_likelihood(mu: float, alpha: float, beta: float, events: EventSequence):
    """Log-likelihood of the model ``mu + alpha exp(-beta t)`` and its
    gradient in ``(mu, alpha, beta)``, from the same recursion.

    With ``R_i = sum_{k<i} exp(-beta (t_i - t_k))`` and
    ``S_i = sum_{k<i} (t_i - t_k) exp(-beta (t_i - t_k)) = -dR_i/dbeta``,
    ``S_i = exp(-beta d_i) (S_{i-1} + d_i (R_{i-1} + 1))``.
    """
    ts, T = events.timestamps, events.horizon_T
    gaps = np.diff(ts, prepend=-np.inf)
    sums, decay = _decay_sums(np.array([beta]), gaps)
    r = sums[0]
    drive = np.zeros_like(r)
    drive[1:] = decay[0, 1:] * gaps[1:] * (r[:-1] + 1.0)
    s = _recursion(decay, drive[None, :])[0]
    lam = mu + alpha * r
    left = T - ts
    mass = -np.expm1(-beta * left)  # 1 - exp(-beta (T - t_i))
    total_mass = float(np.sum(mass))
    value = float(np.sum(np.log(lam))) - mu * T - alpha / beta * total_mass
    grad = np.array(
        [
            float(np.sum(1.0 / lam)) - T,
            float(np.sum(r / lam)) - total_mass / beta,
            -alpha * float(np.sum(s / lam))
            + alpha / beta**2 * total_mass
            - alpha / beta * float(np.sum(left * np.exp(-beta * left))),
        ]
    )
    return value, grad
