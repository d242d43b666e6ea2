import math

import numpy as np
from scipy.integrate import quad

from hawkesdecomp.kernels import Product, Sum, evaluate, support_end


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


def term_sum_blocks(integral, w: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The former ``kernels._term_sum``, kept as an oracle: each block of
    four terms evaluates its own integrals, and the blocks add in term
    order."""
    out = np.zeros(s.shape)
    for j in range(0, z.size, 4):
        out += w[j : j + 4] @ integral(z[j : j + 4, None], s)
    return out
