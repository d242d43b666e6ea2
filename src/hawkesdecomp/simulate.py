"""Hawkes process simulation through the cluster representation.

A Hawkes process is a Poisson cluster process (Hawkes & Oakes 1974): the
immigrants are a Poisson(``mu``) stream, and every event, immigrant or
not, starts an independent Poisson process of children at rate
``phi(t - t_i)``.  The sampler draws it one generation at a time
(Møller & Rasmussen 2005), each generation in one numpy pass, so no step
scans the history and every kernel takes the same path.  A child's lag
comes from inverting the kernel's compensator: a table of the compensator
at lags a factor of two apart brackets each target, and a safeguarded
Newton iteration on the density narrows the bracket to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import STATIONARITY_MARGIN, Kernel, finite_positive, stationarity_norm


class NonStationaryError(ValueError):
    """Simulation requested for a model whose kernel norm is >= 1."""


class BlowUpError(ValueError):
    """The expected or realized event count exceeds ``max_events``: the
    model and horizon ask for more events than the cap allows.  A
    ``ValueError``, so the CLI reports it as invalid input (exit 2)."""


@dataclass(frozen=True)
class HawkesModel:
    """Background rate plus self-triggering kernel."""

    mu: float
    kernel: Kernel

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be strictly positive, got {self.mu!r}")


@dataclass(frozen=True)
class EventSequence:
    """Strictly increasing event timestamps on ``[0, horizon_T]``."""

    timestamps: np.ndarray
    horizon_T: float

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if not (np.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T!r}")
        # NaN fails every comparison below, so it must be caught here
        if not np.isfinite(ts).all():
            raise ValueError("timestamps must be finite")
        if ts.size:
            if np.any(np.diff(ts) <= 0):
                raise ValueError("timestamps must be strictly increasing (simple process)")
            if ts[0] < 0 or ts[-1] > self.horizon_T:
                raise ValueError("timestamps must lie within [0, horizon_T]")

    def __len__(self) -> int:
        return int(self.timestamps.size)


# the lags of the bracket table, in units of the horizon: 0 and 2^-k for
# k = 64..0, so every target lies between two knots a factor of two apart
_KNOTS = np.concatenate([[0.0], np.exp2(np.arange(-64.0, 1.0))])
# a target u is met at a lag s once |C(s) - u| <= _RESIDUAL (m + phi(s) s):
# the rounding of a compensator of mass m, plus that of the lag itself
_RESIDUAL = 2.0 * np.finfo(float).eps
# the largest last Newton correction taken, relative to the lag: a larger
# one at a met target is rounding noise on a nearly flat stretch
_LAST_STEP = 2.0**-20
# Newton steps at most.  Towards a zero of the density at a support end
# each step only halves the distance to that end; a target within 2^-53 of
# the mass lies about 2^-26 of the support from it, some 30 steps
_MAX_STEPS = 64


def _compensator_inverse(kernel: Kernel, horizon_T: float):
    """The kernel's mass on ``[0, horizon_T]`` and the map from targets in
    ``[0, mass)`` to lags ``s`` in ``(0, horizon_T]`` with
    ``compensator(s) == target`` to rounding.

    Both come from one ``compensator_within(horizon_T)``, so a product's term
    set is built once, for lags up to the horizon.  The map brackets each
    target between two knots of a table of the compensator, then takes
    Newton steps ``s - (C(s) - target) / phi(s)``; a step that would leave
    the bracket, or meets a zero density, halves the bracket instead.  Each
    target stops once it is met, so the evaluations follow the slowest
    target, not a fixed count.  A lag below the table's first knot,
    ``horizon_T 2^-64``, is raised to it.
    """
    integral = kernel.compensator_within(horizon_T)
    knots = horizon_T * _KNOTS
    # the running maximum keeps the table sorted through rounding
    table = np.maximum.accumulate(integral(knots))
    mass = float(table[-1])

    def invert(targets: np.ndarray) -> np.ndarray:
        # table[i - 1] < target <= table[i]; start at the linear interpolant
        i = np.clip(np.searchsorted(table, targets), 1, knots.size - 1)
        lo, hi = knots[i - 1], knots[i]
        rise = table[i] - table[i - 1]
        frac = np.divide(targets - table[i - 1], rise, out=np.ones(targets.shape), where=rise > 0)
        s, u = lo + frac * (hi - lo), targets
        lags, todo = np.empty(targets.shape), np.arange(targets.size)
        for _ in range(_MAX_STEPS):
            gap, density = integral(s) - u, kernel.evaluate(s)
            below = gap < 0
            lo, hi = np.where(below, s, lo), np.where(below, hi, s)
            # the Newton step lands strictly inside (lo, hi); tested without
            # dividing, so a zero or tiny density takes the halving
            inside = (density * (s - hi) < gap) & (gap < density * (s - lo))
            step = s - np.divide(gap, density, out=np.zeros(s.shape), where=inside)
            met = np.abs(gap) <= _RESIDUAL * (density * s + mass)
            last = inside & (np.abs(gap) <= _LAST_STEP * density * s)
            lags[todo[met]] = np.where(last, step, s)[met]
            s = np.where(inside, step, 0.5 * (lo + hi))
            keep = ~met
            todo, s, u, lo, hi = todo[keep], s[keep], u[keep], lo[keep], hi[keep]
            if not todo.size:
                break
        lags[todo] = s
        return np.maximum(lags, knots[1])

    return mass, invert


def simulate(
    model: HawkesModel,
    horizon_T: float,
    seed: int,
    max_events: int = 10**7,
) -> EventSequence:
    """Simulate an event sequence on ``[0, horizon_T]``, started empty at 0,
    one generation of the cluster representation at a time.

    Each event gets Poisson(``m``) children, where ``m`` is the kernel mass
    on ``[0, horizon_T]``, at lags drawn from the normalized compensator;
    children at or past the horizon are dropped.  Deterministic given
    ``seed``, a non-negative integer.  Rejects a horizon that is not finite
    and positive, and non-stationary models, and aborts when the expected
    (or realized) event count exceeds ``max_events``.
    """
    finite_positive("horizon_T", horizon_T)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    verdict = stationarity_norm(model.kernel)
    if not verdict.stationary:
        raise NonStationaryError(
            f"kernel norm {verdict.norm_value:.6g} is not in [0, 1 - {STATIONARITY_MARGIN:g}];"
            " steady-state simulation refused"
        )
    expected = model.mu * horizon_T / (1.0 - verdict.norm_value)
    if expected > max_events:
        raise BlowUpError(
            f"expected event count {expected:.3g} exceeds cap {max_events:.3g}"
        )

    rng = np.random.default_rng(seed)
    kernel, T = model.kernel, float(horizon_T)
    mass, invert = _compensator_inverse(kernel, T)
    generation = rng.uniform(0.0, T, rng.poisson(model.mu * T))
    # lags come from a pool sized from the model alone: the expected
    # offspring plus three standard deviations of the event count, capped
    # at the expected event count.  One inversion of that fixed size
    # usually serves every generation, so the number of inversions does
    # not follow the realization
    offspring = model.mu * T * mass / (1.0 - mass)
    spread = math.sqrt(model.mu * T / (1.0 - mass) ** 3)
    pool_size = int(min(offspring + 3.0 * spread, expected)) + 1
    pool = np.empty(0)
    generations, count = [generation], generation.size
    while generation.size:
        if count > max_events:
            raise BlowUpError(f"realized event count exceeds cap {max_events:.3g}")
        children = rng.poisson(mass, generation.size)
        need = int(children.sum())
        if need > pool.size:
            fresh = rng.uniform(size=max(need - pool.size, pool_size)) * mass
            pool = np.concatenate([pool, invert(fresh)])
        lags, pool = pool[:need], pool[need:]
        generation = np.repeat(generation, children) + lags
        generation = generation[generation < T]
        generations.append(generation)
        count += generation.size

    # exact arithmetic gives distinct times almost surely; a child whose
    # lag is below the spacing of floats at its parent's time rounds onto
    # the parent, and is dropped as a tie
    return EventSequence(np.unique(np.concatenate(generations)), T)
