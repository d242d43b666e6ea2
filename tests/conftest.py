import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from hawkesdecomp.kernels import Product, Sns, Sqr, Sum, evaluate, support_end
from hawkesdecomp.likelihood import _exp_sums


def quad_norm(kernel, upper=None) -> float:
    """Independent quadrature of the kernel integral, splitting at
    discontinuity points so the adaptive rule converges tightly."""
    end = support_end(kernel) if upper is None else upper
    breakpoints = set()
    for part in _parts(kernel):
        e = support_end(part)
        if math.isfinite(e):
            breakpoints.add(e)
    points = sorted(b for b in breakpoints if 0 < b < end) if math.isfinite(end) else None
    if math.isfinite(end):
        val, _ = quad(
            lambda t: evaluate(kernel, t), 0.0, end, points=points, limit=200, epsabs=1e-12, epsrel=1e-12
        )
    else:
        val, _ = quad(lambda t: evaluate(kernel, t), 0.0, np.inf, limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def tied_product(left, right) -> Product:
    """``Product(left, right)``.  The pairs ``Product.TIED_SUPPORTS`` names
    must share a support end, so for those ``right``'s end is first moved to
    ``left``'s, as the fits tie them.  Nothing is drawn, so a random stream
    gives the same factors as before."""
    if (left.family, right.family) in Product.TIED_SUPPORTS:
        end = left.support_end()
        right = Sqr(right.b, end) if isinstance(right, Sqr) else Sns(right.a, math.pi / end)
    return Product(left, right)


def _parts(kernel):
    if isinstance(kernel, (Sum, Product)):
        return [kernel.left, kernel.right]
    return [kernel]


def intensity_at(model, history, t: float) -> float:
    """Conditional intensity ``mu + sum phi(t - t_i)`` over events strictly
    before ``t`` (left-continuity: an event at exactly ``t`` is excluded),
    one kernel evaluation per call."""
    ts = history.timestamps
    past = ts[ts < t]
    if past.size == 0:
        return float(model.mu)
    return float(model.mu + np.sum(evaluate(model.kernel, t - past)))


def bisect_compensator(kernel, horizon: float, targets: np.ndarray) -> np.ndarray:
    """The sampler's former lag inversion, kept as an oracle: 64 halvings of
    ``(0, horizon]`` give the lags where ``kernel.compensator`` crosses
    ``targets``, to a bracket of ``horizon 2^-64``; a flat stretch of the
    compensator maps to its left end."""
    integral = kernel.compensator_within(horizon)
    lo, hi = np.zeros(targets.shape), np.full(targets.shape, float(horizon))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = integral(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


def term_sum_by_lag(integral, w: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``kernels._term_sum`` one lag at a time, kept as an oracle: each lag
    evaluates its own integrals, and its weighted terms add in one pairwise
    sum."""
    return np.array([np.add.reduce(w * integral(z, np.array([[lag]]))[0]) for lag in s])


def exp_log_likelihood(mu: float, alpha: float, beta: float, events):
    """Log-likelihood of the model ``mu + alpha exp(-beta t)`` and its
    gradient in ``(mu, alpha, beta)``, from one pass of ``_exp_sums``; the
    objective of the L-BFGS-B reference that the GD fit is checked against."""
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


def dense_covariance(events, delta: float, n_lags: int):
    """The covariance grid by its dense definition, in exact rationals: bin
    counts ``C_i`` over all ``m = floor(T/delta)`` windows ``[i delta, (i+1)
    delta)``, centred by ``L = N(T) delta / T``, and ``nu_k = (1/T) sum_{i <
    m-k} (C_i - L)(C_{i+k} - L)``.  Returns ``(nu, scale)``, two lists of
    ``Fraction``; ``scale[k]`` is the summed magnitude of the three terms of
    ``nu_k = (sum C_i C_{i+k} - L (head + tail) + (m - k) L^2) / T``, against
    which a float evaluation's rounding is measured.  A bin index is the
    floor of the rounded quotient ``t / delta``, as ``covariance_grid``
    takes it: with ``delta = 0.1``, ``200 / delta`` rounds to 2000, one above
    its exact floor."""
    T, d = Fraction(events.horizon_T), Fraction(delta)
    m = math.floor(events.horizon_T / delta)
    counts = [0] * m
    for t in events.timestamps:
        i = math.floor(float(t) / delta)
        if i < m:
            counts[i] += 1
    L = len(events) * d / T
    nu, scale = [], []
    for k in range(n_lags):
        head, tail = counts[: m - k], counts[k:]
        nu.append(sum((a - L) * (b - L) for a, b in zip(head, tail)) / T)
        pairs = sum(a * b for a, b in zip(head, tail))
        scale.append((pairs + L * (sum(head) + sum(tail)) + (m - k) * L * L) / T)
    return nu, scale
