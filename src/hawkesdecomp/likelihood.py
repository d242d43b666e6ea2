"""Exact point-process log-likelihood for Hawkes models.

``l = sum_i log(lambda(t_i)) - integral_0^T lambda(u) du`` with the
integral evaluated through closed-form kernel compensators wherever an
elementary antiderivative exists; only the PWLxPWL and PWLxSNS products
fall back to adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad

from .kernels import (
    Exp,
    Kernel,
    Product,
    Pwl,
    Sns,
    Sqr,
    effective_support,
    evaluate,
    in_family_order,
    support_end,
)
from .simulate import EventSequence, HawkesModel

__all__ = ["LogLikelihood", "compensator", "log_likelihood", "compensator_increments"]

_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class LogLikelihood:
    """Log-likelihood value in nats; ``-inf`` when any event intensity is
    nonpositive."""

    value: float
    n_events: int
    horizon_T: float


def _exp_pwl_tail(p: float, x) -> np.ndarray:
    # Gamma(1-p, x) for p > 1, elementwise via mpmath.
    flat = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([float(mpmath.gammainc(1.0 - p, xi)) for xi in flat])
    return out


def _compensator_product(a, b, s: np.ndarray) -> np.ndarray:
    """Truncated product integral ``int_0^s phi_a * phi_b``."""
    a, b = in_family_order(a, b)
    s = np.maximum(s, 0.0)
    if isinstance(a, Exp) and isinstance(b, Exp):
        return Exp(a.alpha * b.alpha, a.beta + b.beta).compensator(s)
    if isinstance(a, Exp) and isinstance(b, Pwl):
        scale = a.alpha * b.k * math.exp(a.beta * b.c) * a.beta ** (b.p - 1.0)
        lo = _exp_pwl_tail(b.p, a.beta * b.c)
        hi = _exp_pwl_tail(b.p, a.beta * (b.c + s))
        return scale * (lo - hi)
    if isinstance(a, Exp) and isinstance(b, Sqr):
        m = np.minimum(s, b.l)
        return (a.alpha * b.b / a.beta) * (1.0 - np.exp(-a.beta * m))
    if isinstance(a, Exp) and isinstance(b, Sns):
        w, bt = b.omega, a.beta
        m = np.minimum(s, math.pi / w)
        num = w - np.exp(-bt * m) * (bt * np.sin(w * m) + w * np.cos(w * m))
        return a.alpha * b.a * num / (bt * bt + w * w)
    if isinstance(a, Pwl) and isinstance(b, Sqr):
        m = np.minimum(s, b.l)
        q = a.p - 1.0
        return a.k * b.b * (a.c**-q - (a.c + m) ** -q) / q
    if isinstance(a, Sqr) and isinstance(b, Sqr):
        return a.b * b.b * np.minimum(s, min(a.l, b.l))
    if isinstance(a, Sqr) and isinstance(b, Sns):
        m = np.minimum(s, min(a.l, math.pi / b.omega))
        return (a.b * b.a / b.omega) * (1.0 - np.cos(b.omega * m))
    if isinstance(a, Sns) and isinstance(b, Sns):
        w1, w2 = a.omega, b.omega
        m = np.minimum(s, min(math.pi / w1, math.pi / w2))
        if math.isclose(w1, w2, rel_tol=1e-12):
            inner = m / 2.0 - np.sin(2.0 * w1 * m) / (4.0 * w1)
        else:
            inner = np.sin((w1 - w2) * m) / (2.0 * (w1 - w2)) - np.sin((w1 + w2) * m) / (
                2.0 * (w1 + w2)
            )
        return a.a * b.a * inner
    # PWL x PWL and PWL x SNS: no elementary truncated form.  Clamp to the
    # product support and seed the adaptive rule with log-spaced breakpoints
    # so heavy power-law tails over long horizons are not missed.
    prod = Product(a, b)
    end = support_end(prod)
    flat = np.atleast_1d(s)

    def truncated(si: float) -> float:
        upper = min(si, end)
        if upper <= 0:
            return 0.0
        pts = [p for p in np.geomspace(1e-3, upper, 24)[:-1] if p > 0]
        return quad(
            lambda u: evaluate(prod, u),
            0.0,
            upper,
            points=pts,
            epsabs=_QUAD_TOL,
            epsrel=_QUAD_TOL,
            limit=300,
        )[0]

    return np.array([truncated(float(si)) for si in flat])


def compensator(kernel: Kernel, s) -> np.ndarray:
    """Kernel compensator ``Phi(s) = int_0^s phi(u) du``, vectorized in ``s``."""
    arr = np.asarray(s, dtype=float)
    scalar = np.isscalar(s) or arr.ndim == 0
    arr = np.atleast_1d(arr)
    if isinstance(kernel, Product):
        out = _compensator_product(kernel.left, kernel.right, arr)
    else:
        out = kernel.compensator(np.maximum(arr, 0.0))
    out = np.broadcast_to(out, arr.shape).astype(float)
    if scalar:
        return float(out[0])
    return out


def _event_intensities(model: HawkesModel, events: EventSequence) -> np.ndarray:
    """Left-limit intensity at each event (event at t_i itself excluded)."""
    ts = events.timestamps
    n = ts.size
    lam = np.full(n, model.mu, dtype=float)
    window = effective_support(model.kernel)
    start = 0
    for i in range(n):
        while ts[i] - ts[start] > window:
            start += 1
        if start < i:
            lam[i] += float(np.sum(evaluate(model.kernel, ts[i] - ts[start:i])))
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
    """
    ts = events.timestamps
    n = ts.size
    if n == 0:
        return np.empty(0)
    window = effective_support(model.kernel)
    # beyond the truncation window an event contributes its (almost) full mass
    tail_mass = float(compensator(model.kernel, window))
    big_lambda = np.empty(n, dtype=float)
    start = 0
    for i in range(n):
        while ts[i] - ts[start] > window:
            start += 1
        big_lambda[i] = model.mu * ts[i] + start * tail_mass
        if start < i:
            big_lambda[i] += float(np.sum(compensator(model.kernel, ts[i] - ts[start:i])))
    return np.diff(np.concatenate(([0.0], big_lambda)))
