"""Self-triggering kernels: four base families, one-level compositions,
their compensators and stationarity norms.

The four base families are

* ``Exp(alpha, beta)``   -- decaying exponential ``alpha * exp(-beta*t)``
* ``Pwl(k, c, p)``       -- power law ``k / (c + t)**p`` with ``p > 1``
* ``Sqr(b, l)``          -- rectangular pulse of height ``b`` on ``[0, l]``
* ``Sns(a, omega)``      -- sinusoidal half-wave ``a*sin(omega*t)`` on
  ``[0, pi/omega]``

A composite kernel is either a single base kernel, the sum of two base
kernels, or the product of two base kernels.  All kernel objects are
immutable values; every function in this module is pure.

Each family is one class, listed in ``FAMILIES`` under its tag.  The class
holds all of the family's one-kernel math: the static ``curve``, the
family's formula on raw parameters, and the methods ``compensator`` and
``support_end``; the one ``_Family.evaluate`` wraps ``curve``.  Its
dataclass fields, in order, are its parameters and its JSON keys.  The
integral of a product of two families is in one pair table,
``Product.compensator_within``, whose rows for the completely monotone pairs
(EXPxEXP, EXPxPWL, PWLxPWL) and the decaying sines (EXPxSNS, PWLxSNS) run
on the exponential-sum term sets of ``_terms``.  The stationarity norm of
every kernel is its compensator at the support end, so each norm is exact
to the term sets' tolerance.  ``compensator_within(horizon)`` gives
the same integral as a function of the lag, with a product's term set
built once for lags up to ``horizon``; the simulator draws its lags by
inverting it, so every kernel it accepts is sampled through that one
method.  The fits live in ``fit``: each of the twelve is one
``fit._candidate``, whose starts come from the family's rule in
``fit._starts``.  A fitted product is ``Product(K1, factor)``, and the
factor's amplitude (its first field) is 1, since the two amplitudes only
enter as their product; in SQRxSNS, SNSxSQR and SNSxSNS one ``omega`` also
sets both supports, a pulse's as ``l = pi/omega``.  A new family is a class
here with its amplitude as its first field, its
``Product.compensator_within`` rows (and its term set, when it is completely
monotone), a start rule in ``fit._starts``, and, only if its products with
another family must share a support end as SQR and SNS do, a place in the
tied encoding of ``fit._candidate``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from typing import Union

import numpy as np
from scipy import special

__all__ = [
    "Exp",
    "Pwl",
    "Sqr",
    "Sns",
    "Sum",
    "Product",
    "BaseKernel",
    "Kernel",
    "FAMILIES",
    "StationarityVerdict",
    "SupportMismatchError",
    "evaluate",
    "support_end",
    "stationarity_norm",
    "kernel_to_dict",
    "kernel_from_dict",
]


class SupportMismatchError(ValueError):
    """Raised when a product of two discontinuous kernels (SQRxSNS, SNSxSNS)
    does not share its support endpoint.  Its norm is exact either way; the
    check restricts the model to products whose factors end together."""


class _Family:
    """Behaviour shared by the base kernel classes.

    Every field must be finite and above its floor: 0, unless ``_floors``
    names another.  ``compensator`` takes elapsed times already clamped at
    0.  The static ``curve(t, *params)`` is the family's formula for lags
    ``t >= 0``, from the fields in order; ``evaluate`` is built on it, and
    the fit objective calls it with one (M, 1) column per field, which
    gives M curves, one per row.  A dataclass's ``__match_args__`` is its
    field names in order.
    """

    _floors: dict = {}

    def __post_init__(self):
        for name in self.__match_args__:
            value, floor = getattr(self, name), self._floors.get(name, 0.0)
            if not (math.isfinite(value) and value > floor):
                raise ValueError(f"{name} must be finite and > {floor:g}, got {value!r}")

    def evaluate(self, t):
        # the curve is 0 past the support end, so lags clamp to twice that
        # end, which keeps sin off infinite lags
        end = 2.0 * self.support_end()
        return np.where(t >= 0, self.curve(np.minimum(np.maximum(t, 0.0), end), *astuple(self)), 0.0)

    def compensator_within(self, horizon: float):
        """``compensator`` for lags up to ``horizon``; a base family's needs
        nothing built first."""
        return self.compensator

    @property
    def family(self) -> str:
        """The tag this kernel's class is listed under in ``FAMILIES``."""
        return type(self).__name__.upper()


@dataclass(frozen=True)
class Exp(_Family):
    """Exponential kernel ``alpha * exp(-beta * t)``."""

    alpha: float
    beta: float

    @staticmethod
    def curve(t, alpha, beta):
        return alpha * np.exp(-beta * t)

    def compensator(self, s):
        return (self.alpha / self.beta) * -np.expm1(-self.beta * s)

    def support_end(self) -> float:
        return math.inf


@dataclass(frozen=True)
class Pwl(_Family):
    """Power-law kernel ``k / (c + t)**p`` with ``p > 1``."""

    k: float
    c: float
    p: float
    _floors = {"p": 1.0}

    @staticmethod
    def curve(t, k, c, p):
        base = c + t
        power = base**p
        if isinstance(p, np.ndarray):
            # a column of exponents, one per row: numpy squares for a scalar
            # 2.0, which can differ from pow in the last bit, so do the same
            two = p[:, 0] == 2.0
            if two.any():
                power[two] = np.square(base[two])
        return k / power

    def compensator(self, s):
        # k (c^-q - (c+s)^-q) / q without cancellation at small q or s
        q = self.p - 1.0
        return self.k * self.c**-q * -np.expm1(-q * np.log1p(s / self.c)) / q

    def support_end(self) -> float:
        return math.inf


@dataclass(frozen=True)
class Sqr(_Family):
    """Pulse kernel of height ``b`` supported on ``[0, l]``."""

    b: float
    l: float

    @staticmethod
    def curve(t, b, l):
        return np.where(t <= l, b, 0.0)

    def compensator(self, s):
        return self.b * np.minimum(s, self.l)

    def support_end(self) -> float:
        return self.l


@dataclass(frozen=True)
class Sns(_Family):
    """Half-wave sinusoid ``a * sin(omega * t)`` supported on ``[0, pi/omega]``."""

    a: float
    omega: float

    @staticmethod
    def curve(t, a, omega):
        return np.where(t <= math.pi / omega, a * np.sin(omega * t), 0.0)

    def compensator(self, s):
        # (a/omega)(1 - cos(omega m)) without cancellation at small lags
        m = np.minimum(s, math.pi / self.omega)
        return 2.0 * self.a / self.omega * np.sin(0.5 * self.omega * m) ** 2

    def support_end(self) -> float:
        return math.pi / self.omega


BaseKernel = Union[Exp, Pwl, Sqr, Sns]

# Tag -> class.  The order is the fixed tie-break order wherever two
# candidates have equal residue, and the canonical operand order of the pair
# table.
FAMILIES = {"EXP": Exp, "PWL": Pwl, "SQR": Sqr, "SNS": Sns}


def in_family_order(a: BaseKernel, b: BaseKernel) -> tuple[BaseKernel, BaseKernel]:
    """The two factors of a product in ``FAMILIES`` order, and two of one
    family in the order of their parameters, so that the pair table lists
    each unordered pair of families once and gives both operand orders the
    same bits."""
    order = list(FAMILIES.values())
    key_a, key_b = (order.index(type(a)), astuple(a)), (order.index(type(b)), astuple(b))
    return (b, a) if key_a > key_b else (a, b)


@dataclass(frozen=True)
class Sum:
    """Pointwise sum of two base kernels."""

    left: BaseKernel
    right: BaseKernel

    def evaluate(self, t):
        return self.left.evaluate(t) + self.right.evaluate(t)

    def compensator(self, s):
        return self.left.compensator(s) + self.right.compensator(s)

    def compensator_within(self, horizon: float):
        left, right = self.left.compensator_within(horizon), self.right.compensator_within(horizon)
        return lambda s: left(s) + right(s)

    def support_end(self) -> float:
        return max(self.left.support_end(), self.right.support_end())


@dataclass(frozen=True)
class Product:
    """Pointwise product of two base kernels; support is the intersection of
    the factor supports."""

    left: BaseKernel
    right: BaseKernel

    def evaluate(self, t):
        return self.left.evaluate(t) * self.right.evaluate(t)

    def compensator(self, s):
        """``int_0^s`` of the product for an array ``s >= 0``."""
        return self.compensator_within(float(s.max()))(s)

    def compensator_within(self, horizon: float):
        """``s -> int_0^s`` of the product for lags ``s`` in ``[0, horizon]``,
        one row per unordered pair of families; a term set is built here,
        once, for lags up to ``horizon``."""
        a, b = in_family_order(self.left, self.right)
        terms = _terms(self, horizon)
        if terms is not None:  # EXPxEXP, EXPxPWL, PWLxPWL
            return partial(_term_sum, _exp_integral, *terms)
        if isinstance(b, Sqr):  # the pulse is a constant on [0, l]
            return lambda s: b.b * a.compensator(np.minimum(s, b.l))
        if isinstance(a, Sqr):  # SQRxSNS
            return lambda s: a.b * b.compensator(np.minimum(s, a.l))
        if isinstance(a, Sns):  # SNSxSNS
            return partial(_sine_sine_integral, a, b, self.support_end())
        # EXPxSNS, PWLxSNS
        end = b.support_end()
        sine_sum = partial(_term_sum, partial(_sine_integral, b), *_terms(a, min(horizon, end)))
        return lambda s: sine_sum(np.minimum(s, end))

    def support_end(self) -> float:
        return min(self.left.support_end(), self.right.support_end())


Kernel = Union[BaseKernel, Sum, Product]


@dataclass(frozen=True)
class StationarityVerdict:
    """Value of the kernel norm ``int_0^inf phi``.

    ``stationary`` is true exactly when ``norm_value`` lies in ``[0, 1)``;
    the boundary value 1 is rejected because the steady arrival rate
    ``mu / (1 - norm)`` diverges there.
    """

    norm_value: float
    stationary: bool


# ---------------------------------------------------------------------------
# evaluation


def evaluate(kernel: Kernel, t):
    """Evaluate the kernel at time(s) ``t``.

    Returns 0 for negative ``t`` and outside the kernel support.  Accepts a
    scalar or an array; the result matches the input shape.
    """
    arr = np.asarray(t, dtype=float)
    out = kernel.evaluate(arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def support_end(kernel: Kernel) -> float:
    """Right endpoint of the kernel support (``inf`` for EXP/PWL)."""
    return kernel.support_end()


# ---------------------------------------------------------------------------
# exponential-sum term sets

# trapezoid error and cut-off tail mass of a term set, relative to the kernel
_TERM_TOL = 1e-13
_TAIL_TOL = 1e-14
# terms per block, in the sums here and in each likelihood recursion call:
# (_BLOCK, n) arrays bound the working set
_BLOCK = 4


def _laplace_nodes(shape: float, c_lo: float, c_hi: float, horizon: float):
    """Trapezoid step ``h`` and nodes ``x = log s`` for a Laplace density
    below ``s^(shape-1) e^(-c_lo s) / Gamma(shape)`` whose transform falls
    no faster than ``(c_hi + t)^-shape``.

    The ends of the ``s`` range each cut off ``_TAIL_TOL`` of the mass at
    lags up to ``horizon``.  At ``horizon = inf`` the terms are only
    integrated, to ``sum_j w_j / z_j``, which weighs ``s^(shape-2)``, so the
    lower end cuts ``_TAIL_TOL`` of that mass instead.  In ``x`` the
    integrand is analytic in the strip ``|Im x| < pi/2`` and grows there as
    ``cos(Im x)^-shape``, so the trapezoid error is about
    ``cos(d)^-shape exp(-2 pi d / h)`` for any ``d`` in the strip; ``h`` is
    the largest step that keeps it at ``_TERM_TOL``.
    """
    d = np.linspace(0.01, 1.56, 156)
    h = float(np.max(2.0 * np.pi * d / (-math.log(_TERM_TOL) - shape * np.log(np.cos(d)))))
    if math.isinf(horizon):
        s_lo = special.gammaincinv(shape - 1.0, _TAIL_TOL) / c_hi
    else:
        s_lo = special.gammaincinv(shape, _TAIL_TOL) / (c_hi + horizon)
    s_hi = special.gammainccinv(shape, _TAIL_TOL) / c_lo
    return h, np.arange(math.log(s_lo), math.log(s_hi) + h, h)


def _pwl_terms(kernel: Pwl, horizon: float):
    k, c, p = kernel.k, kernel.c, kernel.p
    h, x = _laplace_nodes(p, c, c, horizon)
    s = np.exp(x)
    return k * np.exp(math.log(h) + p * x - c * s - special.gammaln(p)), s


def _kummer_decay(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """``1F1(a; b; -x)`` for ``x >= 0`` and ``0 < a < b``.

    scipy's ``hyp1f1`` drifts and then returns NaN for large ``x`` (past
    about 1e10 when ``b - a`` is near 10), so from ``x = 1e5`` on this sums
    eight terms of the large-argument expansion (DLMF 13.7.2)
    ``Gamma(b) / Gamma(b-a) x^-a sum_s (a)_s (a-b+1)_s / s! x^-s``, which
    are exact to rounding there.
    """
    out = np.empty_like(x)
    big = x >= 1e5
    out[~big] = special.hyp1f1(a, b, -x[~big])
    xb = x[big]
    total, term = np.zeros_like(xb), np.ones_like(xb)
    for j in range(8):
        total += term
        term *= (a + j) * (a - b + 1.0 + j) / ((j + 1.0) * xb)
    out[big] = np.exp(special.gammaln(b) - special.gammaln(b - a) - a * np.log(xb)) * total
    return out


def _pwl_pwl_terms(a: Pwl, b: Pwl, horizon: float):
    # a is the factor with the larger c, so the 1F1 argument is <= 0
    if a.c < b.c:
        a, b = b, a
    shape = a.p + b.p
    h, x = _laplace_nodes(shape, b.c, a.c, horizon)
    s = np.exp(x)
    density = np.exp(math.log(h) + shape * x - b.c * s - special.gammaln(shape))
    return a.k * b.k * density * _kummer_decay(a.p, shape, (a.c - b.c) * s), s


def _terms(kernel: Kernel, horizon: float):
    """Weights and rates ``(w, z)`` with ``kernel(t) = sum_j w_j exp(-z_j t)``
    on ``[0, horizon]``, or None for a kernel with a finite support."""
    if isinstance(kernel, Exp):
        return np.array([kernel.alpha]), np.array([kernel.beta])
    if isinstance(kernel, Pwl):
        return _pwl_terms(kernel, horizon)
    if isinstance(kernel, Product):
        a, b = in_family_order(kernel.left, kernel.right)
        if isinstance(a, Pwl) and isinstance(b, Pwl):
            return _pwl_pwl_terms(a, b, horizon)
        if isinstance(a, Exp) and isinstance(b, (Exp, Pwl)):
            w, z = _terms(b, horizon)
            return a.alpha * w, z + a.beta
    return None


def _term_sum(integral, w: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_j w_j integral(z_j, s)`` at each ``s``, ``_BLOCK`` terms at a time."""
    out = np.zeros(s.shape)
    for j in range(0, z.size, _BLOCK):
        out += w[j : j + _BLOCK] @ integral(z[j : j + _BLOCK, None], s)
    return out


def _exp_integral(z, s):
    """``int_0^s exp(-z u) du``."""
    return -np.expm1(-z * s) / z


def _sine_sine_integral(a: Sns, b: Sns, end: float, s):
    """``int_0^s`` of ``a sin(w1 u) b sin(w2 u)`` on the shared half-wave."""
    w1, w2 = a.omega, b.omega
    m = np.minimum(s, end)
    if math.isclose(w1, w2, rel_tol=1e-12):
        inner = m / 2.0 - np.sin(2.0 * w1 * m) / (4.0 * w1)
    else:
        inner = np.sin((w1 - w2) * m) / (2.0 * (w1 - w2)) - np.sin((w1 + w2) * m) / (
            2.0 * (w1 + w2)
        )
    return a.a * b.a * inner


def _sine_integral(sns: Sns, z, m):
    """``int_0^m exp(-z u) a sin(omega u) du`` for ``m`` within the half-wave."""
    w = sns.omega
    num = w - np.exp(-z * m) * (z * np.sin(w * m) + w * np.cos(w * m))
    return sns.a * num / (z * z + w * w)


# ---------------------------------------------------------------------------
# stationarity norms


# the relative gap allowed between the support ends of a SQRxSNS or SNSxSNS
# product; the fits tie them exactly
_SUPPORT_TOL = 0.05


def _check_shared_support(end1: float, end2: float) -> None:
    ref = max(abs(end1), abs(end2))
    if abs(end1 - end2) > _SUPPORT_TOL * ref:
        raise SupportMismatchError(
            f"discontinuous-kernel product requires matching support endpoints "
            f"(got {end1:g} and {end2:g}, tolerance {_SUPPORT_TOL:.0%})"
        )


def stationarity_norm(kernel: Kernel) -> StationarityVerdict:
    """Stationarity norm ``int_0^inf phi``, the kernel's compensator at its
    support end.

    A product with an EXP factor is integrated to ``min(end, 40/beta)``: it
    decays at least as fast as ``exp(-beta t)``, and ``exp(-40) < 5e-18``
    leaves the rest at rounding level.  Every other kernel is integrated
    to its support end, ``inf`` for PWL and PWLxPWL, so no norm is a bound.
    A product of two discontinuous kernels (SQRxSNS, SNSxSNS) raises
    :class:`SupportMismatchError` when its support endpoints differ by more
    than ``_SUPPORT_TOL`` relative.
    """
    end = kernel.support_end()
    if isinstance(kernel, Product):
        a, b = in_family_order(kernel.left, kernel.right)
        if isinstance(a, (Sqr, Sns)) and isinstance(b, Sns):
            _check_shared_support(a.support_end(), b.support_end())
        if isinstance(a, Exp):
            end = min(end, 40.0 / a.beta)
    norm = float(kernel.compensator(np.array([end]))[0])
    return StationarityVerdict(norm_value=norm, stationary=0.0 <= norm < 1.0)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def kernel_to_dict(kernel: Kernel) -> dict:
    if isinstance(kernel, (Sum, Product)):
        return {
            "op": "sum" if isinstance(kernel, Sum) else "product",
            "left": kernel_to_dict(kernel.left),
            "right": kernel_to_dict(kernel.right),
        }
    return {"type": kernel.family, **asdict(kernel)}


def _entry(d: dict, key: str, owner: str):
    try:
        return d[key]
    except KeyError:
        raise ValueError(f"{owner} is missing {key!r}") from None


def number_entry(d: dict, key: str, owner: str) -> float:
    """``d[key]`` as a float; a missing key, or a value that is not a JSON
    number or is too large for a float, raises ``ValueError`` naming
    ``owner`` and the key."""
    value = _entry(d, key, owner)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{owner} field {key!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{owner} field {key!r} is too large for a float") from None


def kernel_from_dict(d: dict) -> Kernel:
    """Inverse of ``kernel_to_dict``; a kernel that is not a JSON object, or
    a missing, unknown or non-numeric entry, raises ``ValueError`` naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"kernel must be a JSON object, got {type(d).__name__}: {d!r}")
    if "op" in d:
        ops = {"sum": Sum, "product": Product}
        op = d["op"]
        if not isinstance(op, str) or op not in ops:
            raise ValueError(f"unknown op {op!r}")
        owner = f"{op} kernel"
        left = kernel_from_dict(_entry(d, "left", owner))
        right = kernel_from_dict(_entry(d, "right", owner))
        return ops[op](left, right)
    tag = d.get("type")
    if not isinstance(tag, str) or tag not in FAMILIES:
        raise ValueError(f"unknown kernel type {tag!r}")
    cls = FAMILIES[tag]
    return cls(*[number_entry(d, f.name, f"{tag} kernel") for f in fields(cls)])
