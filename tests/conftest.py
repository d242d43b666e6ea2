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
