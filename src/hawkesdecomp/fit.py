"""Parametric fits of base kernels and one-level compositions to a
nonparametric kernel estimate.

The objective is the grid-summed L1 residue ``sum |phi_hat(t_i) - phi(t_i)| * delta``,
minimized by Nelder-Mead from a fixed set of data-derived starts so that
identical inputs always produce identical fits.  Negative estimate samples
enter the objective as-is.  The simplex search handles the discontinuous
families (SQR, SNS) that rule out gradient methods.

Each of the twelve fits (four singles, then K1 plus or times each family)
is one ``_candidate`` tuple ``(starts, bounds, curves, decode, kind,
frozen)``.  Inside ``_candidate`` a local ``parts`` reads a parameter
vector as the families the fit builds, each a class and its arguments;
``curves`` multiplies their curves (and, for a sum, adds the frozen K1
curve, computed once per fit) and ``decode`` builds their kernel.  A
product's two amplitudes would enter only as their product, so the added
factor's amplitude is fixed at 1: its vector is K1's fields, then the added
family's other fields.  The one tied encoding is written there and nowhere
else: SQRxSNS, SNSxSQR and SNSxSNS are ``(K1 amplitude, omega)``, where
``omega`` sets both supports (the pulse length is ``l = pi/omega``), so
both factors end together.  ``curves`` takes the lags and the frozen curve
as arguments, so it depends only on the fit's ``kind``: the single family,
the addend family, or K1's family times the factor family.

The fits of one level (the four singles, or K1's eight expansions) are one
search, and one search spans the sequences of a batch: ``fit_batch`` takes
the level's fits of estimates of one lag count, and ``_level`` joins their
starts, ordered by kind, so the runs of one kind from every estimate are
adjacent.  A search states which rows it scores: ``bind(runs)`` takes the
start of each row and gathers, once, each row's bound vector, estimate,
lags and frozen curve, and returns ``score(params)``, which maps an (M, N)
matrix of raw parameter vectors, each padded with zeros to the level's
largest dimension N, to M residues.  ``score`` builds no kernel object.
It clips every row to its bounds, computes the model curves of each
kind's rows with one ``curves`` call, and passes all the curves to one
``residue_of``, looked up in this module on each call.  A row with a NaN
scores ``inf``.  Every row is scored on its own, so a fit ends where it
ends in a search of its own, whatever else the search holds.  ``evaluate``
is built on the same curves and every grid lag is positive, so a fit
reaches the same floats, and the same kernel, as one that evaluates a
kernel per step; its best value is its residue.  One rule keeps the rows
equal to one-at-a-time curves: numpy squares ``x ** 2.0`` for a scalar
exponent, which can differ in the last bit from ``pow``, so ``Pwl.curve``
squares the rows whose exponent is exactly 2 (the PWL null start of an
additive expansion puts ``p = 2`` on a simplex vertex).  Only the best
vector of a fit is decoded into a kernel.

``_nelder_mead`` runs all the starts of a level in lock-step: it holds a
(K, N+1, N) simplex array and makes one batched ``score`` call per phase of
a step (reflect; then expand or contract, scored for every live run; shrink
only for the runs that need it).  It binds the initial simplex, the live
runs each time a run ends, and each shrink's runs, so the reflections and
trial points of every step between two run ends share one binding.  It is
scipy's non-adaptive Nelder-Mead step for step, with its initial simplex,
convergence test, vertex sort, ``nit`` and ``success``, so each run ends at
the same ``x`` and ``fun`` as ``scipy.optimize.minimize`` from that start;
the tests hold it to that.  A run of dimension n < N keeps its padded
coordinates at exactly 0, since every step maps 0 to 0; its vertices past
n score ``inf``, are never evaluated, and enter neither its centroid, nor
its worst vertex, nor its convergence tests.  Its vertices are sorted with
the other runs of the same n, over the n + 1 real ones: numpy's argsort is
unstable, and the order it gives tied values (the plateaus of the SQR fits)
depends on the row length, so one sort over padded rows would leave scipy's
path.  A converged run leaves the batch at once, so the batch shrinks as
the runs finish.

Each Nelder-Mead run that stops without converging (``maxiter``) is logged
at DEBUG on the ``hawkesdecomp.fit`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

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

__all__ = [
    "FitResult",
    "FitError",
    "fit_batch",
    "fit_single",
    "fit_expansion",
    "residue_of",
]

# parameter bounds, enforced by projection inside the objective
_P_LO, _P_HI = 1.0 + 1e-8, 10.0
_GEN_LO, _GEN_HI = 1e-8, 1e8

_NM_OPTIONS = {"maxiter": 600, "xatol": 1e-10, "fatol": 1e-12}

_log = logging.getLogger(__name__)


class FitError(ValueError):
    """No start of a fit reached a finite residue: the estimate is one that
    no kernel of the family can be scored against.  A ``ValueError``, so the
    CLI reports it as invalid input (exit 2)."""


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
    residue per row; with it ``estimate`` may also hold one estimate per
    row, an (M, lags + 1) ``values`` and an (M,) ``delta``.  The lag-0
    sample is excluded: the symmetrized spectral reconstruction renders a
    jump at the origin at half height, which would bias every family with
    phi(0+) > 0.
    """
    phi = kernel if isinstance(kernel, np.ndarray) else evaluate(kernel, estimate.times[1:])
    deviation = np.abs(estimate.values[..., 1:] - phi).sum(axis=-1) * estimate.delta
    return deviation if phi.ndim == 2 else float(deviation)


def _estimate_stats(estimate: KernelEstimate):
    """Deterministic shape statistics used to seed the optimizer starts.

    They read the samples past lag 0, the ones ``residue_of`` scores, so an
    estimate needs at least two samples.
    """
    if len(estimate.values) < 2:
        raise ValueError("an estimate needs at least two samples to fit")
    v, t = estimate.values[1:], estimate.times[1:]
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
    """One of the twelve fits as ``(starts, bounds, curves, decode, kind,
    frozen)``: ``family`` alone, or, with ``op``, the base kernel ``base``
    expanded by it.

    A parameter vector holds the fields of ``family``.  A product's holds
    K1's fields, then the family's other than its amplitude, which is fixed
    at 1, so K1's amplitude alone scales the product; the tied products
    (SQRxSNS, SNSxSQR, SNSxSNS) hold ``(K1 amplitude, omega)`` instead.
    The starts are the family's with the fixed amplitude dropped, each
    distinct start once.  ``bounds`` is the pair of per-field bound
    vectors, ``curves(x, t, frozen)`` maps an (M, N) matrix of vectors,
    clipped to them, to their M model curves on the lags ``t``, one row of
    lags per vector, adding the rows ``frozen`` for a sum, and ``decode``
    maps one vector to its kernel, clipping it first.  Both read the factors
    from ``parts``, so a decoded kernel scores what its vector scored.
    ``curves`` depends on ``kind`` alone, ``(op, K1's family for a product,
    family)``, so one call serves the fits of one kind from every estimate.
    ``frozen`` is K1's curve on the estimate's lags for a sum, else None.
    """
    if op not in (None, "add", "multiply"):
        raise ValueError(f"op must be 'add' or 'multiply', got {op!r}")
    own = _starts(family, estimate)  # an unknown tag raises ValueError here
    cls = FAMILIES[family]
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

    elif {base.family, family} in ({"SQR", "SNS"}, {"SNS"}):
        # one support end: omega sets both, the pulse's as l = pi / omega
        names = ("amplitude", "omega")
        omegas = [base.omega] if isinstance(base, Sns) else [omega for _, omega in own]
        starts = [(astuple(base)[0], omega) for omega in omegas]

        def parts(x):
            amplitude, omega = x
            factors = ((type(base), amplitude), (cls, 1.0))
            return [(k, (a, math.pi / omega if k is Sqr else omega)) for k, a in factors]

    else:
        fixed = astuple(base)
        names, starts = base.__match_args__ + cls.__match_args__[1:], [fixed + s[1:] for s in own]

        def parts(x):
            return [(type(base), x[: len(fixed)]), (cls, (1.0, *x[len(fixed) :]))]

    lo, hi = _bounds(names)

    def curves(x, t, frozen):
        # one (M, 1) column per field, so each curve broadcasts to (M, lags)
        phi = reduce(np.multiply, [part.curve(t, *args) for part, args in parts(x.T[:, :, None])])
        return phi if frozen is None else frozen + phi

    def decode(x):
        kernels = [part(*args) for part, args in parts(np.minimum(np.maximum(x, lo), hi).tolist())]
        if op == "add":
            return Sum(base, *kernels)
        return Product(*kernels) if op == "multiply" else kernels[0]

    kind = (op, base.family if op == "multiply" else None, family)
    frozen = evaluate(base, estimate.times[1:]) if op == "add" else None
    return list(dict.fromkeys(starts)), (lo, hi), curves, decode, kind, frozen


class _Rows(NamedTuple):
    """One estimate per scored row, as ``residue_of`` reads it."""

    values: np.ndarray  # (M, lags + 1)
    delta: np.ndarray  # (M,)


def _level(fits):
    """The fits ``fits``, ``(estimate, _candidate tuple)`` pairs from one or
    more estimates of one lag count, as one search: ``(starts, spans,
    bind)``.

    The runs are ordered by fit kind, so that the runs of one kind are
    adjacent whatever estimate they fit.  ``starts`` holds every run's
    start, and fit ``f`` owns the runs ``spans[f]``, a slice.
    ``bind(runs)`` takes the ascending run of each row that a search will
    score, gathers those rows' bounds, estimates, lags and frozen curves,
    and returns ``score(params)``.  That maps an (M, N) matrix of vectors,
    zero-padded to the longest start, to M residues, a row with a NaN
    scoring ``inf``: one ``curves`` call per kind and one ``residue_of``
    call.  Each row is scored on its own, so its residue does not depend on
    the other rows.
    """
    by_kind = {}
    for f, (_, candidate) in enumerate(fits):
        by_kind.setdefault(candidate[4], []).append(f)
    starts, spans, edges, kinds, fit_of_run = [], [None] * len(fits), [], [], []
    for members in by_kind.values():
        _, (low, _), curves, _, kind, _ = fits[members[0]][1]
        edges.append(len(starts))
        kinds.append((low.size, curves, kind[0] == "add"))
        for f in members:
            spans[f] = slice(len(starts), len(starts) + len(fits[f][1][0]))
            starts += fits[f][1][0]
            fit_of_run += [f] * len(fits[f][1][0])
    edges.append(len(starts))
    fit_of_run = np.array(fit_of_run)
    # one row per fit: its estimate's samples, step and lags, and its frozen curve
    values = np.array([estimate.values for estimate, _ in fits])
    delta = np.array([estimate.delta for estimate, _ in fits])
    times = np.array([estimate.times[1:] for estimate, _ in fits])
    frozen = np.array([np.zeros(times.shape[1]) if candidate[5] is None else candidate[5] for _, candidate in fits])
    # each run's bounds; a padded coordinate is clipped to 0, which it is
    lo, hi = np.zeros((2, len(starts), max(map(len, starts))))
    for (_, (low, high), *_), span in zip((candidate for _, candidate in fits), spans):
        lo[span, : low.size], hi[span, : high.size] = low, high

    def bind(runs):
        cut, at = runs.searchsorted(edges), fit_of_run[runs]
        # per kind: (first row, end row, dimension, curves, lags, frozen curves)
        segments = [
            (first, end, n, curves, times[at[first:end]], frozen[at[first:end]] if add else None)
            for (n, curves, add), first, end in zip(kinds, cut, cut[1:])
            if first < end
        ]
        low, high, rows = lo[runs], hi[runs], _Rows(values[at], delta[at])

        def score(params):
            x = np.minimum(np.maximum(params, low), high)
            phi = np.concatenate([curves(x[a:b, :n], t, k1) for a, b, n, curves, t, k1 in segments])
            residues = residue_of(rows, phi)
            residues[np.isnan(x).any(axis=1)] = math.inf
            return residues

        return score

    return starts, spans, bind


def _nelder_mead(bind, starts):
    """Nelder-Mead from every start at once; returns ``(x, fun, nit,
    success)``, one entry per start, each ``x`` as long as its start.

    Each run takes the steps of scipy's non-adaptive Nelder-Mead with
    ``_NM_OPTIONS`` (reflection 1, expansion 2, contraction and shrink 0.5),
    so it ends where ``scipy.optimize.minimize`` from that start ends.
    Starts may differ in length; each is padded with zeros to the longest,
    N.  All live runs are at the same iteration, and each phase of a step is
    one call ``score(params)``, ``params`` holding one padded (M, N) row per
    vertex or trial point.  ``bind(runs)`` gives the ``score`` of the rows
    whose starts are ``runs``, ascending.  The search binds the initial
    simplex, the live runs each time a run ends, and the runs of each
    shrink: the reflection and the trial point are scored for every live
    run, so their binding serves every step until a run ends.
    """
    maxiter, xatol, fatol = _NM_OPTIONS["maxiter"], _NM_OPTIONS["xatol"], _NM_OPTIONS["fatol"]
    dims = np.array([len(start) for start in starts])
    k, n = dims.size, int(dims.max())
    x0 = np.zeros((k, n))
    for i, start in enumerate(starts):
        x0[i, : dims[i]] = start
    # vertex j + 1 scales coordinate j by 1.05, or sets it to 0.00025 if
    # zero; a padded vertex is the start itself
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    step = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    sim[:, diag + 1, diag] = np.where(diag < dims[:, None], step, 0.0)
    real = np.arange(n + 1) <= dims[:, None]
    fsim = np.full((k, n + 1), math.inf)
    fsim[real] = bind(np.nonzero(real)[0])(sim[real])
    slots = np.tile(np.arange(n + 1), (k, 1))

    def layout(live, dims):
        """What a step reads of the live runs ``live`` and their dimensions,
        rebuilt only when a run ends: their ``score``, row indices, the runs
        of each distinct dimension, a mask of the vertices 1..n that are
        real (the same mask picks out vertices 0..n-1 before the worst), and
        the dimensions as a float column."""
        groups = [(d, np.flatnonzero(dims == d)) for d in np.unique(dims)]
        real = np.arange(1, n + 1) <= dims[:, None]
        return bind(live), np.arange(dims.size), groups, real, dims[:, None].astype(float)

    def ordered(sim, fsim):
        """The vertices of each run sorted by value, as scipy sorts them: the
        real ones only, in one argsort per dimension; the padded ones keep
        their slots."""
        order = slots[: len(fsim)].copy()
        for d, g in groups:
            order[g, : d + 1] = fsim[g, : d + 1].argsort()
        return sim[rows[:, None], order], fsim[rows[:, None], order]

    live = np.arange(k)
    score, rows, groups, others, scale = layout(live, dims)
    for _ in range(2):  # as scipy does: argsort is unstable, so ties may move
        sim, fsim = ordered(sim, fsim)

    x, fun, nit = np.empty((k, n)), np.empty(k), np.empty(k, dtype=int)
    iterations = 1
    while True:
        # scipy's stopping rule; it tests the values only where the vertices have met
        spread = np.where(others[:, :, None], np.abs(sim[:, 1:] - sim[:, :1]), 0.0)
        done = spread.max(axis=(1, 2)) <= xatol
        if iterations >= maxiter or done.any():
            if iterations >= maxiter:
                done[:] = True
            else:
                gaps = np.where(others[done], np.abs(fsim[done, :1] - fsim[done, 1:]), 0.0)
                done[done] = gaps.max(axis=1) <= fatol
            if done.any():
                ended = live[done]
                x[ended], fun[ended], nit[ended] = sim[done, 0], fsim[done].min(axis=1), iterations
                live, sim, fsim, dims = live[~done], sim[~done], fsim[~done], dims[~done]
                if not live.size:
                    success = nit < maxiter
                    return [x[i, :d] for i, d in enumerate(map(len, starts))], fun, nit, success
                score, rows, groups, others, scale = layout(live, dims)

        below = np.where(others[:, :, None], sim[:, :-1], 0.0)
        xbar = np.add.reduce(below, 1) / scale
        worst, fworst, fsecond = sim[rows, dims], fsim[rows, dims], fsim[rows, dims - 1]
        # scipy writes each point as c * xbar - d * worst; with its coefficients
        # these are the same floats (1 * w is w, and x - (-y) is x + y)
        xr = 2 * xbar - worst
        fxr = score(xr)
        expand = fxr < fsim[:, 0]
        contract = ~(expand | (fxr < fsecond))
        trying = expand | contract
        if not trying.any():
            sim[rows, dims], fsim[rows, dims] = xr, fxr
        else:
            # the trial point: expand, or contract outside or inside
            outside = fxr < fworst
            a = np.where(expand, 3.0, np.where(outside, 1.5, 0.5))
            b = np.where(expand, 2.0, np.where(outside, 0.5, -0.5))
            trial = a[:, None] * xbar - b[:, None] * worst
            # every live run's, so it is scored with the reflection's binding
            ftrial = score(trial)
            take = np.where(expand, ftrial < fxr, np.where(outside, ftrial <= fxr, ftrial < fworst))
            use = take & trying
            shrink = contract & ~take
            sim[rows, dims] = np.where(use[:, None], trial, np.where(contract[:, None], worst, xr))
            fsim[rows, dims] = np.where(use, ftrial, np.where(contract, fworst, fxr))
            if shrink.any():
                s = np.flatnonzero(shrink)
                best = sim[s, :1]
                sim[s, 1:] = best + 0.5 * (sim[s, 1:] - best)
                shrunk = fsim[s, 1:]
                shrunk[others[s]] = bind(np.repeat(live[s], dims[s]))(sim[s, 1:][others[s]])
                fsim[s, 1:] = shrunk
        iterations += 1
        sim, fsim = ordered(sim, fsim)


def _fit_level(labelled) -> list:
    """Optimize the ``(estimate, label, _candidate tuple)`` triples
    ``labelled``, whose estimates share one lag count, in one search and
    decode each fit's best vector: the first run with the lowest finite
    value, which is the fit's residue.  Gives a ``FitResult`` per fit, or a
    ``FitError`` for a fit whose starts all score ``inf``.  A label names
    its fit in the log and in the error."""
    starts, spans, bind = _level([(estimate, candidate) for estimate, _, candidate in labelled])
    x, fun, nit, success = _nelder_mead(bind, starts)
    fits = []
    for (_, label, candidate), span in zip(labelled, spans):
        for i in np.flatnonzero(~success[span]).tolist():
            _log.debug("%s: Nelder-Mead start %d did not converge after %d iterations", label, i, int(nit[span][i]))
        best = span.start + int(np.argmin(fun[span]))
        if not math.isfinite(fun[best]):
            fits.append(FitError(f"no finite residue for {label}"))
            continue
        kernel = candidate[3](x[best])
        fits.append(FitResult(kernel=kernel, residue=float(fun[best]), verdict=stationarity_norm(kernel)))
    return fits


def _labelled(estimate: KernelEstimate, fixed: FitResult | None, specs):
    """The fits of one ``fit_batch`` request as ``(estimate, label,
    _candidate tuple)`` triples."""
    if fixed is None:
        if not np.any(estimate.values != 0):
            raise ValueError("degenerate estimate: all samples are zero")
        return [(estimate, family, _candidate(estimate, family)) for family in specs]
    base = fixed.kernel
    if isinstance(base, (Sum, Product)):
        raise ValueError("expansion requires a single-kernel fit to extend")
    return [
        (estimate, f"{base.family}{'+' if op == 'add' else 'x'}{family}", _candidate(estimate, family, op, base))
        for op, family in specs
    ]


def fit_batch(requests) -> list:
    """The fits that ``requests`` ask for, from estimates of one lag count,
    in one search.

    ``(estimate, None, families)`` asks for the best single kernel of each
    family in ``families``, as ``fit_single`` fits it, and ``(estimate,
    fixed, pairs)`` for the expansion of ``fixed`` by each ``(op, family)``
    in ``pairs``, as ``fit_expansion`` fits it.  The answer to each request
    is its list of ``FitResult``, or the ``ValueError`` that its fits raise:
    a ``FitError`` for the first of them without a finite residue.  Each fit
    ends where it ends in a search of its own.  A residue sums over its
    row's lags, so the estimates that reach the search must share their lag
    count, as the estimates of one ``DecompositionConfig`` do (its
    ``resolution``); else ``fit_batch`` raises ``ValueError``.
    """
    jobs = []
    for request in requests:
        try:
            jobs.append(_labelled(*request))
        except ValueError as exc:
            jobs.append(exc)
    fits = [fit for job in jobs if isinstance(job, list) for fit in job]
    lag_counts = {len(estimate.values) for estimate, _, _ in fits}
    if len(lag_counts) > 1:
        raise ValueError(f"the estimates of one fit_batch must share their lag count, got {sorted(lag_counts)}")
    results = iter(_fit_level(fits) if fits else [])
    answers = []
    for job in jobs:
        if isinstance(job, list):
            job = [next(results) for _ in job]
            job = next((fit for fit in job if isinstance(fit, FitError)), job)
        answers.append(job)
    return answers


def _fit_one(request) -> FitResult:
    """The one fit that the one ``fit_batch`` request ``request`` asks for,
    raised if an error."""
    (answer,) = fit_batch([request])
    if isinstance(answer, ValueError):
        raise answer
    return answer[0]


def fit_single(estimate: KernelEstimate, family: str) -> FitResult:
    """Best-fitting single kernel of the family ``family`` (a tag in
    EXP/PWL/SQR/SNS) under the grid L1 residue."""
    return _fit_one((estimate, None, [family]))


def fit_expansion(estimate: KernelEstimate, fixed: FitResult, op: str, family: str) -> FitResult:
    """Expand a fitted single kernel by one addend (``op`` "add") or factor
    (``op`` "multiply") of the family ``family``.

    Additive: the fitted kernel's parameters stay frozen and only the new
    addend is optimized (a near-zero-amplitude start guarantees the result
    never degrades the single-kernel residue).  Multiplicative: K1's
    parameters and the new factor's shape are re-optimized jointly, with
    the factor families fixed; the new factor, second in the product, has
    amplitude 1.  In SQRxSNS, SNSxSQR and SNSxSNS one ``omega`` sets both
    supports.
    """
    return _fit_one((estimate, fixed, [(op, family)]))


def __getattr__(name):
    """``minimize``, which only the benchmark tracer reads, is imported on
    first access, so that importing this module loads no ``scipy.optimize``."""
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
