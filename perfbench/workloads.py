"""Workload definitions: truths, kernel shapes and sizes.

Plain data, importable without the program, so the driver of the CLI
workload never loads hawkesdecomp itself.  Kernels are written in the
model-JSON form that ``kernel_from_dict`` reads.
"""

from __future__ import annotations

import math


def _exp(alpha, beta):
    return {"type": "EXP", "alpha": alpha, "beta": beta}


def _pwl(k, c, p):
    return {"type": "PWL", "k": k, "c": c, "p": p}


def _sqr(b, length):
    return {"type": "SQR", "b": b, "l": length}


def _sns(a, omega):
    return {"type": "SNS", "a": a, "omega": omega}


def _sum(left, right):
    return {"op": "sum", "left": left, "right": right}


def _product(left, right):
    return {"op": "product", "left": left, "right": right}


# The truths and DecompositionConfig fields of acceptance criteria 5-7.
# ``family`` is set where the truth is a single family, so K1 should be it.
DECOMPOSE_TRUTHS = [
    {"label": "exp", "family": "EXP", "mu": 0.5, "kernel": _exp(0.5, 1.0),
     "config": {"tau_max": 10.0}},
    {"label": "pwl", "family": "PWL", "mu": 0.5, "kernel": _pwl(0.15, 0.3, 2.0),
     "config": {"tau_max": 10.0}},
    {"label": "exp_plus_sqr", "family": None, "mu": 0.5,
     "kernel": _sum(_exp(0.4, 4.0), _sqr(0.2, 2.5)),
     "config": {"tau_max": 5.0, "holdout": 0.8}},
    {"label": "sns", "family": "SNS", "mu": 1.0, "kernel": _sns(0.4, 1.5),
     "config": {"tau_max": 4.0, "holdout": 0.8, "gd_restarts": 1}},
]

# One shape per likelihood path.  ``n`` is the number of events scored; it is
# sized so each shape's simulate + log_likelihood + compensator_increments
# pass costs about one second with the thinning sampler and the per-event
# likelihood loops (the n-squared and quadrature paths get few events).
LONG_HISTORY_SHAPES = [
    {"label": "exp", "mu": 0.5, "kernel": _exp(0.5, 1.0), "n": 12000},
    {"label": "pwl", "mu": 0.5, "kernel": _pwl(0.15, 0.3, 2.0), "n": 5500},
    {"label": "exp_plus_pwl", "mu": 0.5, "kernel": _sum(_exp(0.3, 1.0), _pwl(0.06, 0.3, 2.0)),
     "n": 3000},
    {"label": "exp_x_sns", "mu": 0.5, "kernel": _product(_exp(1.0, 0.5), _sns(0.6, 1.5)),
     "n": 7500},
    {"label": "exp_x_pwl", "mu": 0.5, "kernel": _product(_exp(1.0, 0.5), _pwl(0.3, 0.5, 2.0)),
     "n": 260},
    {"label": "pwl_x_sns", "mu": 0.5, "kernel": _product(_pwl(1.0, 0.5, 2.0), _sns(0.3, 1.5)),
     "n": 55},
    {"label": "pwl_x_pwl", "mu": 0.5, "kernel": _product(_pwl(0.2, 0.5, 2.0), _pwl(1.0, 0.5, 2.0)),
     "n": 17},
]
SHAPES = [s["label"] for s in LONG_HISTORY_SHAPES]

DECOMPOSE_EVENTS = 10_000
CLI_EVENTS = 2_000
# the CLI reports on the power-law sequence, whose Q-Q path scans the whole
# history (infinite truncation window)
CLI_REPORT_INDEX = 1
# tiny sizes for the harness self-test: two sequences, fewer events and a
# coarse lag grid
TINY_SEQUENCES = 2
TINY_EVENTS = 600
TINY_RESOLUTION = 20
TINY_SCORE_DIVISOR = 10


def count_moments(mu: float, horizon: float, norm: float) -> tuple[float, float]:
    """Stationary mean and standard deviation of the event count on
    ``[0, horizon]``: ``mu T / (1 - |phi|)`` and ``sqrt(mu T / (1 - |phi|)^3)``."""
    mean = mu * horizon / (1.0 - norm)
    return mean, math.sqrt(mu * horizon / (1.0 - norm) ** 3)


def horizon_for(mu: float, norm: float, n: int, margin_sd: float = 0.0) -> float:
    """Horizon whose expected count minus ``margin_sd`` standard deviations is ``n``."""
    a = 1.0 / (1.0 - norm)
    root = (margin_sd * a**1.5 + math.sqrt(margin_sd**2 * a**3 + 4.0 * a * n)) / (2.0 * a)
    return root * root / mu


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index
