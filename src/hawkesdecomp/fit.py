"""Parametric fits of base kernels and one-level compositions to a
nonparametric kernel estimate.

The objective is the grid-summed L1 residue ``sum |phi_hat(t_i) - phi(t_i)| * delta``,
minimized by Nelder-Mead from a fixed set of data-derived starts so that
identical inputs always produce identical fits.  Negative estimate samples
enter the objective as-is.  The simplex search handles the discontinuous
families (SQR, SNS) that rule out gradient methods.

Each of the twelve fits (four singles, then K1 plus or times each family)
is one ``_candidate`` triple ``(starts, objective, decode)``, and
``fit_single`` and ``fit_expansion`` both run it through ``_fit``.  Inside
``_candidate`` a local ``parts`` reads a parameter vector as the families
the fit builds, each a class and its arguments; the objective multiplies
their curves (and, for a sum, adds the frozen K1 curve, computed once per
fit) and ``decode`` builds their kernel.  The two tied products are written
there and nowhere else: SQRxSNS is ``(b, a, omega)`` with the pulse length
``l = pi/omega``, and SNSxSNS is ``(a1, a2, omega)`` with one frequency, so
both factors share one support end.

The objective is batched: it maps an (M, N) matrix of raw parameter vectors
to M residues and builds no kernel object.  Each call clips the matrix to
one per-field bound vector, computes the model curves with the families'
static ``curve`` functions, one row per vector, and passes them to
``residue_of``.  A row with a NaN scores ``inf``.  ``evaluate`` is built on
the same curves and every grid lag is positive, so a fit reaches the same
floats, and the same kernel, as one that evaluates a kernel per step.  One
rule keeps the rows equal to one-at-a-time curves: numpy squares
``x ** 2.0`` for a scalar exponent, which can differ in the last bit from
``pow``, so ``Pwl.curve`` squares the rows whose exponent is exactly 2 (the
PWL null start of an additive expansion puts ``p = 2`` on a simplex
vertex).  Only the best vector of a fit is decoded into a kernel.

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
from functools import reduce

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
    """Optimizer produced no finite residue from any start."""


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


def _candidate(estimate: KernelEstimate, family: str, op: str | None = None, base: Kernel | None = None):
    """One of the twelve fits as ``(starts, objective, decode)``: ``family``
    alone, or, with ``op``, the base kernel ``base`` expanded by it.

    A parameter vector holds the fields of ``family``; a product's holds
    K1's fields, then the family's, except for the two tied pairs below.
    ``objective`` maps an (M, N) matrix of vectors to M residues, a row with
    a NaN scoring ``inf``, and ``decode`` maps one vector to its kernel.
    Both clip to the fields' bounds and read the factors from ``parts``, so
    a decoded kernel scores what its vector scored.
    """
    if op not in (None, "add", "multiply"):
        raise ValueError(f"op must be 'add' or 'multiply', got {op!r}")
    own = _starts(family, estimate)  # an unknown tag raises ValueError here
    cls = FAMILIES[family]
    tag1 = base.family if op == "multiply" else None
    fixed = astuple(base) if op == "multiply" else ()
    # parts(x): the (class, arguments) of each family the fit builds, from
    # clipped parameters, either floats or one column each
    if op != "multiply":
        names, starts = cls.__match_args__, own
        if op == "add":
            # a zero-amplitude addend keeps the sum no worse than K1
            tau = max(estimate.tau_max, estimate.delta)
            starts = own + [(_GEN_LO, 1.0, 2.0) if family == "PWL" else (_GEN_LO, 1.0 / tau)]

        def parts(x):
            return [(cls, x)]

    elif {tag1, family} == {"SQR", "SNS"}:
        # one support end: the pulse ends where the half-wave does, l = pi / omega
        names = ("b", "a", "omega")
        starts = [(fixed[0], a, omega) for a, omega in own] if tag1 == "SQR" else [(b, *fixed) for b, _ in own]

        def parts(x):
            b, a, omega = x
            sqr, sns = (Sqr, (b, math.pi / omega)), (Sns, (a, omega))
            return [sqr, sns] if tag1 == "SQR" else [sns, sqr]

    elif tag1 == family == "SNS":
        # one frequency, so one support
        names = ("a", "a", "omega")
        starts = [(fixed[0], a, fixed[1]) for a, _ in own]

        def parts(x):
            a1, a2, omega = x
            return [(Sns, (a1, omega)), (Sns, (a2, omega))]

    else:
        names, starts = FAMILIES[tag1].__match_args__ + cls.__match_args__, [fixed + s for s in own]

        def parts(x):
            return [(FAMILIES[tag1], x[: len(fixed)]), (cls, x[len(fixed) :])]

    lo, hi = _bounds(names)
    t = estimate.times[1:]
    frozen = evaluate(base, t) if op == "add" else None

    def objective(params):
        x = np.minimum(np.maximum(params, lo), hi)
        # one (M, 1) column per field, so each curve broadcasts to (M, lags)
        phi = reduce(np.multiply, [part.curve(t, *args) for part, args in parts(x.T[:, :, None])])
        values = residue_of(estimate, phi if frozen is None else frozen + phi)
        values[np.isnan(x).any(axis=1)] = math.inf
        return values

    def decode(x):
        kernels = [part(*args) for part, args in parts(np.minimum(np.maximum(x, lo), hi).tolist())]
        if op == "add":
            return Sum(base, *kernels)
        return Product(*kernels) if op == "multiply" else kernels[0]

    return starts, objective, decode


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


def _fit(estimate: KernelEstimate, candidate, label: str) -> FitResult:
    """Optimize a ``_candidate`` triple and decode its best vector.
    ``label`` names the fit in the log and in the error."""
    starts, objective, decode = candidate
    best, _ = _optimize(objective, starts, label)
    if best is None:
        raise FitError(f"no finite residue for {label}")
    kernel = decode(best)
    return FitResult(kernel=kernel, residue=residue_of(estimate, kernel), verdict=stationarity_norm(kernel))


def fit_single(estimate: KernelEstimate, family: str) -> FitResult:
    """Best-fitting single kernel of the given family (tag in
    EXP/PWL/SQR/SNS) under the grid L1 residue."""
    if not np.any(estimate.values != 0):
        raise ValueError("degenerate estimate: all samples are zero")
    return _fit(estimate, _candidate(estimate, family), family)


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
    candidate = _candidate(estimate, family, op, fixed.kernel)
    return _fit(estimate, candidate, f"{fixed.kernel.family}{'+' if op == 'add' else 'x'}{family}")
