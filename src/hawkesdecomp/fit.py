"""Parametric fits of base kernels and one-level compositions to a
nonparametric kernel estimate.

The objective is the grid-summed L1 residue ``sum |phi_hat(t_i) - phi(t_i)| * delta``,
minimized by Nelder-Mead from a fixed set of data-derived starts so that
identical inputs always produce identical fits.  Negative estimate samples
enter the objective as-is.  The simplex search handles the discontinuous
families (SQR, SNS) that rule out gradient methods.

The objective (``_objective``) is batched: it maps an (M, N) matrix of raw
parameter vectors to M residues and builds no kernel object.  A fit reads
the grid lags once; each call clips the matrix to one per-field bound
vector, computes the model curves with the families' static ``curve``
functions, one row per vector, and passes them to ``residue_of``.  A row
with a NaN scores ``inf``.  An additive expansion adds the frozen K1 curve,
computed once per fit; a product multiplies the two factor curves.
``evaluate`` is built on the same curves and every grid lag is positive, so
a fit reaches the same floats, and the same kernel, as one that evaluates a
kernel per step.  One rule keeps the rows equal to one-at-a-time curves:
numpy squares ``x ** 2.0`` for a scalar exponent, which can differ in the
last bit from ``pow``, so ``Pwl.curve`` squares the rows whose exponent is
exactly 2 (the PWL null start of an additive expansion puts ``p = 2`` on a
simplex vertex).  Only the best vector of a fit is decoded into a kernel.

``_nelder_mead`` runs all the starts of one fit in lock-step: it holds a
(K, N+1, N) simplex array and makes one batched objective call per phase of
a step (reflect; then expand or contract; shrink only for the runs that
need it).  It is scipy's non-adaptive Nelder-Mead step for step, with its
initial simplex, convergence test, vertex sort, ``nit`` and ``success``, so
each run ends at the same ``x`` and ``fun`` as ``scipy.optimize.minimize``
from that start; the tests hold it to that.  A converged run leaves the
batch at once, so the batch shrinks as the runs finish.

Each Nelder-Mead run that stops without converging (``maxiter``) is logged
at DEBUG on the ``hawkesdecomp.fit`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401 -- the benchmark tracer patches this name

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

_NM_OPTIONS = {"maxiter": 600, "xatol": 1e-10, "fatol": 1e-12}

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


def _bounds(names):
    """Lower and upper bound vectors for the fields ``names``: ``p`` gets
    the power-law exponent bounds, every other field the generic ones."""
    lo = np.array([_P_LO if name == "p" else _GEN_LO for name in names])
    hi = np.array([_P_HI if name == "p" else _GEN_HI for name in names])
    return lo, hi


def _clipped(names, params) -> list:
    """``params`` clipped to the bounds of the fields ``names``, as floats.
    A NaN stays NaN, and the kernel constructors reject it."""
    return np.clip(np.asarray(params, dtype=float), *_bounds(names)).tolist()


def _family(tag: str):
    if tag not in FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}")
    return FAMILIES[tag]


def _make_kernel(tag: str, params) -> Kernel:
    """Kernel of family ``tag`` from its parameters in field order, each
    clipped to its bounds.  ``__match_args__`` is the field names in order.
    A NaN parameter raises ``ValueError``."""
    cls = _family(tag)
    return cls(*_clipped(cls.__match_args__, params))


def residue_of(estimate: KernelEstimate, kernel):
    """Grid-summed L1 deviation between the estimate and a kernel.

    ``kernel`` is a kernel, or an array of its values on ``estimate.times[1:]``;
    both give a float.  A 2-D array holds one curve per row and gives one
    residue per row.  The lag-0 sample is excluded: the symmetrized spectral
    reconstruction renders a jump at the origin at half height, which would
    bias every family with phi(0+) > 0.
    """
    phi = kernel if isinstance(kernel, np.ndarray) else evaluate(kernel, estimate.times[1:])
    deviation = np.abs(estimate.values[1:] - phi).sum(axis=-1) * estimate.delta
    return deviation if phi.ndim == 2 else float(deviation)


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
    """The batched fit objective: the residues of ``family`` alone, or, with
    ``op``, of the base kernel ``base`` expanded by it, for each row of an
    (M, N) parameter matrix.

    For ``"add"`` a row is the addend's parameters; for ``"multiply"`` it is
    the joint encoding of ``_factors``.  A row with a NaN scores ``inf``.
    Each call clips the matrix to the fields' bounds and calls
    ``residue_of`` once.
    """
    cls = _family(family)
    names = cls.__match_args__
    t = estimate.times[1:]
    if op is None:

        def curve(cols):
            return cls.curve(t, *cols)

    elif op == "add":
        frozen = evaluate(base, t)

        def curve(cols):
            return frozen + cls.curve(t, *cols)

    elif op == "multiply":
        tag1 = base.family
        names = _product_fields(tag1, family)

        def curve(cols):
            (cls1, args1), (cls2, args2) = _factors(tag1, family, cols)
            return cls1.curve(t, *args1) * cls2.curve(t, *args2)

    else:
        raise ValueError(f"op must be 'add' or 'multiply', got {op!r}")
    lo, hi = _bounds(names)

    def objective(params):
        x = np.minimum(np.maximum(params, lo), hi)
        # one (M, 1) column per field, so each curve broadcasts to (M, lags)
        values = residue_of(estimate, curve(x.T[:, :, None]))
        values[np.isnan(x).any(axis=1)] = math.inf
        return values

    return objective


def _nelder_mead(objective, starts):
    """Nelder-Mead from every start at once; returns ``(x, fun, nit,
    success)``, one entry per start.

    Each run takes the steps of scipy's non-adaptive Nelder-Mead with
    ``_NM_OPTIONS`` (reflection 1, expansion 2, contraction and shrink 0.5),
    so it ends where ``scipy.optimize.minimize`` from that start ends.  All
    live runs are at the same iteration, and each phase of a step is one
    objective call for all of them.
    """
    maxiter, xatol, fatol = _NM_OPTIONS["maxiter"], _NM_OPTIONS["xatol"], _NM_OPTIONS["fatol"]
    x0 = np.asarray(starts, dtype=float)
    k, n = x0.shape
    # vertex j + 1 scales coordinate j by 1.05, or sets it to 0.00025 if zero
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = objective(sim.reshape(-1, n)).reshape(k, n + 1)
    rows = np.arange(k)[:, None]
    for _ in range(2):  # as scipy does: argsort is unstable, so ties may move
        order = fsim.argsort()
        sim, fsim = sim[rows, order], fsim[rows, order]

    x, fun, nit = np.empty((k, n)), np.empty(k), np.empty(k, dtype=int)
    live = np.arange(k)
    iterations = 1
    while True:
        # scipy's stopping rule; it tests the values only where the vertices have met
        done = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol
        if iterations >= maxiter or done.any():
            if iterations >= maxiter:
                done[:] = True
            else:
                done[done] = np.abs(fsim[done, :1] - fsim[done, 1:]).max(axis=1) <= fatol
            ended = live[done]
            x[ended], fun[ended], nit[ended] = sim[done, 0], fsim[done].min(axis=1), iterations
            live, sim, fsim = live[~done], sim[~done], fsim[~done]
            if not len(live):
                return x, fun, nit, nit < maxiter
            rows = rows[: len(live)]

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst, fworst = sim[:, -1], fsim[:, -1]
        # scipy writes each point as c * xbar - d * worst; with its coefficients
        # these are the same floats (1 * w is w, and x - (-y) is x + y)
        xr = 2 * xbar - worst
        fxr = objective(xr)
        expand = fxr < fsim[:, 0]
        contract = ~expand & ~(fxr < fsim[:, -2])
        if not (expand | contract).any():
            sim[:, -1], fsim[:, -1] = xr, fxr
        else:
            # the trial point: expand, or contract outside or inside
            outside = fxr < fworst
            a = np.where(expand, 3.0, np.where(outside, 1.5, 0.5))[:, None]
            b = np.where(expand, 2.0, np.where(outside, 0.5, -0.5))[:, None]
            trial = a * xbar - b * worst
            ftrial = objective(trial)
            take = np.where(expand, ftrial < fxr, np.where(outside, ftrial <= fxr, ftrial < fworst))
            use = take & (expand | contract)
            shrink = contract & ~take
            sim[:, -1] = np.where(use[:, None], trial, np.where(contract[:, None], worst, xr))
            fsim[:, -1] = np.where(use, ftrial, np.where(contract, fworst, fxr))
            if shrink.any():
                s = np.flatnonzero(shrink)
                best = sim[s, :1]
                sim[s, 1:] = best + 0.5 * (sim[s, 1:] - best)
                fsim[s, 1:] = objective(sim[s, 1:].reshape(-1, n)).reshape(-1, n)
        iterations += 1
        order = fsim.argsort()
        sim, fsim = sim[rows, order], fsim[rows, order]


def _optimize(objective, starts, label: str):
    """Nelder-Mead over each start; returns (best_params, best_value), the
    first run with the lowest finite value.  ``label`` names the fit in the
    log."""
    x, fun, nit, success = _nelder_mead(objective, starts)
    for i in np.flatnonzero(~success):
        _log.debug("%s: Nelder-Mead start %d did not converge after %d iterations", label, int(i), int(nit[i]))
    i = int(np.argmin(fun))
    if not math.isfinite(fun[i]):
        return None, math.inf
    return x[i], float(fun[i])


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


def _product_fields(tag1: str, tag2: str) -> tuple:
    """Field names of a product's flat parameter vector (see ``_factors``)."""
    if {tag1, tag2} == {"SQR", "SNS"}:
        return ("b", "a", "omega")
    if tag1 == "SNS" and tag2 == "SNS":
        return ("a", "a", "omega")
    return FAMILIES[tag1].__match_args__ + FAMILIES[tag2].__match_args__


def _factors(tag1: str, tag2: str, params):
    """The two factors of a product, each as (class, parameters), decoded
    from a flat vector of clipped parameters, floats or one column each.

    SQRxSNS shares its support endpoint (L tied to pi/omega) and SNSxSNS
    shares omega, so those pairs carry one fewer free parameter.
    """
    if {tag1, tag2} == {"SQR", "SNS"}:
        b, a, omega = params
        sqr, sns = (Sqr, (b, math.pi / omega)), (Sns, (a, omega))
        return (sqr, sns) if tag1 == "SQR" else (sns, sqr)
    if tag1 == "SNS" and tag2 == "SNS":
        a1, a2, omega = params
        return (Sns, (a1, omega)), (Sns, (a2, omega))
    cls1, cls2 = FAMILIES[tag1], FAMILIES[tag2]
    n1 = len(cls1.__match_args__)
    return (cls1, params[:n1]), (cls2, params[n1:])


def _product_from_params(tag1: str, tag2: str, params) -> Product:
    """Decode a product kernel from a flat parameter vector (see ``_factors``)."""
    (cls1, args1), (cls2, args2) = _factors(tag1, tag2, _clipped(_product_fields(tag1, tag2), params))
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


def _addend_starts(family: str, estimate) -> list:
    """The family's start set plus a zero-amplitude addend, which keeps an
    additive expansion no worse than K1."""
    null_start = [_GEN_LO] * len(FAMILIES[family].__match_args__)
    null_start[-1] = 1.0 / max(estimate.tau_max, estimate.delta)
    if family == "PWL":
        null_start[1] = 1.0
        null_start[2] = 2.0
    return list(_starts(family, estimate)) + [tuple(null_start)]


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
        best, _ = _optimize(objective, _addend_starts(family, estimate), f"{tag1}+{family}")
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
