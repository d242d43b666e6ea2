"""Parametric fits of base kernels and one-level compositions to a
nonparametric kernel estimate.

The objective is the grid-summed L1 residue ``sum |phi_hat(t_i) - phi(t_i)| * delta``,
minimized by Nelder-Mead from a fixed set of data-derived starts so that
identical inputs always produce identical fits.  Negative estimate samples
enter the objective as-is.  The simplex search handles the discontinuous
families (SQR, SNS) that rule out gradient methods.

The objective (``_objective``) works on the optimizer's raw parameter
vector and builds no kernel object.  A fit reads the grid lags once; each
evaluation clips the vector to the parameter bounds, computes the model
curve with the families' static ``curve`` functions and passes it to
``residue_of``.  An additive expansion adds the frozen K1 curve, computed
once per fit; a product multiplies the two factor curves.  ``evaluate`` is
built on the same curves and every grid lag is positive, so a fit reaches
the same floats, and the same kernel, as one that evaluates a kernel per
step.  Only the best vector of a fit is decoded into a kernel.

Each Nelder-Mead run that stops without converging (``maxiter``) is logged
at DEBUG on the ``hawkesdecomp.fit`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import minimize

from .kernels import (
    FAMILIES,
    Kernel,
    Product,
    Sns,
    Sqr,
    StationarityVerdict,
    Sum,
    evaluate,
    stationarity_norm,
)
from .spectral import KernelEstimate

__all__ = ["FitResult", "FitError", "fit_single", "fit_expansion", "residue_of"]

# parameter bounds, enforced by projection inside the objective
_P_LO, _P_HI = 1.0 + 1e-8, 10.0
_GEN_LO, _GEN_HI = 1e-8, 1e8

_NM_OPTIONS = {"maxiter": 600, "xatol": 1e-10, "fatol": 1e-12, "adaptive": False}

_log = logging.getLogger(__name__)


class FitError(RuntimeError):
    """Optimizer produced no finite residue; carries the best attempt."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class FitResult:
    kernel: Kernel
    residue: float
    verdict: StationarityVerdict


def _clip(x, lo=_GEN_LO, hi=_GEN_HI):
    return float(min(max(x, lo), hi))


def _clip_p(x):
    return float(min(max(x, _P_LO), _P_HI))


def _clipped(names, params) -> list:
    """``params`` clipped one by one to the bounds of the fields ``names``:
    ``p`` to the power-law exponent bounds, any other to the generic ones.
    A NaN raises ``ValueError``, as it does in the kernel constructors."""
    out = [_clip_p(x) if name == "p" else _clip(x) for name, x in zip(names, params)]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"non-finite parameter in {list(params)!r}")
    return out


def _family(tag: str):
    if tag not in FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}")
    return FAMILIES[tag]


def _make_kernel(tag: str, params) -> Kernel:
    """Kernel of family ``tag`` from its parameters in field order, each
    clipped to its bounds.  ``__match_args__`` is the field names in order."""
    cls = _family(tag)
    return cls(*_clipped(cls.__match_args__, params))


def residue_of(estimate: KernelEstimate, kernel) -> float:
    """Grid-summed L1 deviation between the estimate and a kernel.

    ``kernel`` is a kernel, or an array of its values on ``estimate.times[1:]``.
    The lag-0 sample is excluded: the symmetrized spectral reconstruction
    renders a jump at the origin at half height, which would bias every
    family with phi(0+) > 0.
    """
    phi = kernel if isinstance(kernel, np.ndarray) else evaluate(kernel, estimate.times[1:])
    return float(np.abs(estimate.values[1:] - phi).sum() * estimate.delta)


def _estimate_stats(estimate: KernelEstimate):
    """Deterministic shape statistics used to seed the optimizer starts."""
    v = estimate.values[1:] if len(estimate.values) > 1 else estimate.values
    t = estimate.times[1:] if len(estimate.values) > 1 else estimate.times
    peak = float(max(v.max(), 1e-8))
    i_peak = int(np.argmax(v))
    t_peak = float(max(t[i_peak], estimate.delta))
    below = np.nonzero(v[i_peak:] < peak / math.e)[0]
    if below.size:
        t_e = float(max(t[i_peak + below[0]], estimate.delta))
    else:
        t_e = float(max(estimate.tau_max / 2.0, estimate.delta))
    total = float(max(np.sum(np.clip(v, 0.0, None)) * estimate.delta, 1e-8))
    return peak, t_peak, t_e, total


def _starts(tag: str, estimate: KernelEstimate):
    """Eight deterministic starts per family, derived from estimate shape."""
    m, t_peak, t_e, total = _estimate_stats(estimate)
    tau = max(estimate.tau_max, estimate.delta)
    if tag == "EXP":
        return [
            (m, 1.0 / t_e),
            (m, 2.0 / t_e),
            (m / 2.0, 1.0 / t_e),
            (2.0 * m, 2.0 / t_e),
            (m, 0.5 / t_e),
            (total / t_e, 1.0 / t_e),
            (m, 4.0 / t_e),
            (m / 4.0, 0.25 / t_e),
        ]
    if tag == "PWL":
        starts = []
        for p in (1.5, 2.5):
            for c in (t_e / 2.0, t_e):
                for scale in (1.0, 0.5):
                    starts.append((scale * m * c**p, c, p))
        return starts
    if tag == "SQR":
        return [
            (m, t_e),
            (m / 2.0, t_e),
            (m, 2.0 * t_e),
            (total / t_e, t_e),
            (m, tau / 2.0),
            (m / 2.0, tau),
            (total / tau, tau),
            (m / 4.0, t_e / 2.0),
        ]
    if tag == "SNS":
        w_peak = math.pi / (2.0 * t_peak)
        w_e = math.pi / (2.0 * t_e)
        return [
            (m, w_peak),
            (m, w_e),
            (m / 2.0, w_peak),
            (m, 2.0 * w_peak),
            (m, 0.5 * w_peak),
            (2.0 * m, w_e),
            (m, math.pi / tau),
            (m / 2.0, 2.0 * math.pi / tau),
        ]
    raise ValueError(f"unknown family tag {tag!r}")


def _objective(estimate: KernelEstimate, family: str, op: str | None = None, base: Kernel | None = None):
    """The fit objective on raw parameter vectors: the residue of ``family``
    alone, or, with ``op``, of the base kernel ``base`` expanded by it.

    For ``"add"`` the vector is the addend's parameters; for ``"multiply"``
    it is the joint encoding of ``_factors``.  A vector that decodes to no
    kernel (a NaN) scores ``inf``, and every other evaluation calls
    ``residue_of`` once.
    """
    cls = _family(family)
    names = cls.__match_args__
    t = estimate.times[1:]
    if op is None:

        def curve(x):
            return cls.curve(t, *_clipped(names, x))

    elif op == "add":
        frozen = evaluate(base, t)

        def curve(x):
            return frozen + cls.curve(t, *_clipped(names, x))

    elif op == "multiply":
        tag1 = base.family

        def curve(x):
            (cls1, args1), (cls2, args2) = _factors(tag1, family, x)
            return cls1.curve(t, *args1) * cls2.curve(t, *args2)

    else:
        raise ValueError(f"op must be 'add' or 'multiply', got {op!r}")

    def objective(params):
        try:
            phi = curve(params.tolist())
        except ValueError:
            return math.inf
        return residue_of(estimate, phi)

    return objective


def _optimize(objective, starts, label: str):
    """Nelder-Mead over each start; returns (best_params, best_value).
    ``label`` names the fit in the log."""
    best = None
    best_val = math.inf
    for i, x0 in enumerate(starts):
        res = minimize(objective, np.asarray(x0, dtype=float), method="Nelder-Mead", options=_NM_OPTIONS)
        if not res.success:
            _log.debug("%s: Nelder-Mead start %d did not converge after %d iterations", label, i, res.nit)
        val = float(res.fun)
        if math.isfinite(val) and val < best_val:
            best_val = val
            best = res.x
    return best, best_val


def fit_single(estimate: KernelEstimate, family: str) -> FitResult:
    """Best-fitting single kernel of the given family (tag in
    EXP/PWL/SQR/SNS) under the grid L1 residue."""
    if not np.any(estimate.values != 0):
        raise ValueError("degenerate estimate: all samples are zero")
    objective = _objective(estimate, family)
    best, best_val = _optimize(objective, _starts(family, estimate), family)
    if best is None:
        raise FitError(f"no finite residue for family {family}")
    kernel = _make_kernel(family, best)
    return FitResult(kernel=kernel, residue=residue_of(estimate, kernel), verdict=stationarity_norm(kernel))


def _factors(tag1: str, tag2: str, params):
    """The two factors of a product, each as (class, clipped parameters),
    decoded from a flat parameter vector.

    SQRxSNS shares its support endpoint (L tied to pi/omega) and SNSxSNS
    shares omega, so those pairs carry one fewer free parameter.
    """
    if {tag1, tag2} == {"SQR", "SNS"}:
        b, a, omega = _clipped(("b", "a", "omega"), params)
        sqr, sns = (Sqr, (b, math.pi / omega)), (Sns, (a, omega))
        return (sqr, sns) if tag1 == "SQR" else (sns, sqr)
    if tag1 == "SNS" and tag2 == "SNS":
        a1, a2, omega = _clipped(("a", "a", "omega"), params)
        return (Sns, (a1, omega)), (Sns, (a2, omega))
    cls1, cls2 = FAMILIES[tag1], FAMILIES[tag2]
    n1 = len(cls1.__match_args__)
    left = (cls1, _clipped(cls1.__match_args__, params[:n1]))
    return left, (cls2, _clipped(cls2.__match_args__, params[n1:]))


def _product_from_params(tag1: str, tag2: str, params) -> Product:
    """Decode a product kernel from a flat parameter vector (see ``_factors``)."""
    (cls1, args1), (cls2, args2) = _factors(tag1, tag2, params)
    return Product(cls1(*args1), cls2(*args2))


def _product_start_vectors(tag1: str, params1, tag2: str, estimate) -> list:
    """Joint starts: fitted K1 parameters crossed with the new family's
    start set, encoded for `_product_from_params`."""
    starts2 = _starts(tag2, estimate)
    vectors = []
    if {tag1, tag2} == {"SQR", "SNS"}:
        if tag1 == "SQR":
            b0 = params1[0]
            for a, omega in starts2:
                vectors.append((b0, a, omega))
        else:
            a0, omega0 = params1
            for b, _l in starts2:
                vectors.append((b, a0, omega0))
    elif tag1 == "SNS" and tag2 == "SNS":
        a0, omega0 = params1
        for a, _omega in starts2:
            vectors.append((a0, a, omega0))
    else:
        for s2 in starts2:
            vectors.append(tuple(params1) + tuple(s2))
    return vectors


def fit_expansion(
    estimate: KernelEstimate, fixed: FitResult, op: str, family: str
) -> FitResult:
    """Expand a fitted single kernel by one addend or factor.

    Additive: the fitted kernel's parameters stay frozen and only the new
    addend is optimized (a near-zero-amplitude start guarantees the result
    never degrades the single-kernel residue).  Multiplicative: all
    parameters of both factors are re-optimized jointly, with the factor
    families fixed.
    """
    if isinstance(fixed.kernel, (Sum, Product)):
        raise ValueError("expansion requires a single-kernel fit to extend")
    tag1 = fixed.kernel.family
    objective = _objective(estimate, family, op, fixed.kernel)

    if op == "add":
        starts = list(_starts(family, estimate))
        # zero-amplitude addend: keeps the expansion no worse than K1
        null_start = [_GEN_LO] * len(FAMILIES[family].__match_args__)
        null_start[-1] = 1.0 / max(estimate.tau_max, estimate.delta)
        if family == "PWL":
            null_start[1] = 1.0
            null_start[2] = 2.0
        starts.append(tuple(null_start))
        best, _ = _optimize(objective, starts, f"{tag1}+{family}")
        if best is None:
            raise FitError(f"no finite residue for additive expansion +{family}")
        kernel: Kernel = Sum(fixed.kernel, _make_kernel(family, best))

    else:  # "multiply": _objective has rejected any other op
        starts = _product_start_vectors(tag1, astuple(fixed.kernel), family, estimate)
        best, _ = _optimize(objective, starts, f"{tag1}x{family}")
        if best is None:
            raise FitError(f"no finite residue for multiplicative expansion x{family}")
        kernel = _product_from_params(tag1, family, best)

    return FitResult(kernel=kernel, residue=residue_of(estimate, kernel), verdict=stationarity_norm(kernel))
