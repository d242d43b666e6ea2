"""Hawkes process simulation through the cluster representation.

A Hawkes process is a Poisson cluster process (Hawkes & Oakes 1974): the
immigrants are a Poisson(``mu``) stream, and every event, immigrant or
not, starts an independent Poisson process of children at rate
``phi(t - t_i)``.  The sampler draws it one generation at a time
(Møller & Rasmussen 2005), each generation in one numpy pass, so no step
scans the history and every kernel takes the same path.  A child's lag
comes from inverting the kernel's compensator by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, stationarity_norm


class NonStationaryError(ValueError):
    """Simulation requested for a model whose kernel norm is >= 1."""


class BlowUpError(RuntimeError):
    """Expected or realized event count exceeds the configured cap."""


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


# bisection steps of the lag inversion: the bracket after them is below
# T * 2^-64, finer than the float spacing of times near T
_HALVINGS = 64


def _invert_compensator(kernel: Kernel, horizon_T: float, targets: np.ndarray) -> np.ndarray:
    """Lags ``s`` in ``(0, horizon_T]`` with ``kernel.compensator(s) == targets``,
    for targets below the mass on ``[0, horizon_T]``, by one vectorized
    bisection; a flat stretch of the compensator maps to its left end.

    A product's term set is built once, for lags up to ``horizon_T``, so
    every halving does the same work whatever lags the targets map to."""
    integral = kernel.compensator_within(horizon_T)
    lo, hi = np.zeros(targets.shape), np.full(targets.shape, float(horizon_T))
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = integral(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi


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
    ``seed``.  Rejects non-stationary models, and aborts when the expected
    (or realized) event count exceeds ``max_events``.
    """
    if horizon_T <= 0:
        raise ValueError("horizon_T must be positive")
    verdict = stationarity_norm(model.kernel)
    if not verdict.stationary:
        raise NonStationaryError(
            f"kernel norm {verdict.norm_value:.6g} >= 1; steady-state simulation refused"
        )
    expected = model.mu * horizon_T / (1.0 - verdict.norm_value)
    if expected > max_events:
        raise BlowUpError(
            f"expected event count {expected:.3g} exceeds cap {max_events:.3g}"
        )

    rng = np.random.default_rng(seed)
    kernel, T = model.kernel, float(horizon_T)
    mass = float(kernel.compensator(np.array([T]))[0])
    generation = rng.uniform(0.0, T, rng.poisson(model.mu * T))
    # lags come from a pool sized from the model alone: the expected
    # offspring plus three standard deviations of the event count, capped
    # at the expected event count.  One bisection of that fixed size
    # usually serves every generation, so its cost does not follow the
    # realization
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
            pool = np.concatenate([pool, _invert_compensator(kernel, T, fresh)])
        lags, pool = pool[:need], pool[need:]
        generation = np.repeat(generation, children) + lags
        generation = generation[generation < T]
        generations.append(generation)
        count += generation.size

    # exact arithmetic gives distinct times almost surely; a child whose
    # lag is below the spacing of floats at its parent's time rounds onto
    # the parent, and is dropped as a tie
    return EventSequence(np.unique(np.concatenate(generations)), T)
