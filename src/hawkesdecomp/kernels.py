"""Self-triggering kernels: four base families, one-level compositions,
their compensators and stationarity norms.

The four base families are

* ``Exp(alpha, beta)``   -- decaying exponential ``alpha * exp(-beta*t)``
* ``Pwl(k, c, p)``       -- power law ``k / (c + t)**p`` with ``p > 1``
* ``Sqr(b, l)``          -- rectangular pulse of height ``b`` on ``[0, l]``
* ``Sns(a, omega)``      -- sinusoidal half-wave ``a*sin(omega*t)`` on
  ``[0, pi/omega]``

A composite kernel is either a single base kernel, the sum of two base
kernels, or the product of two base kernels.  ``Sum`` and ``Product``
hold that grammar: each raises ``ValueError`` when it is built with an
operand that is not a base kernel, so no nested model can be built, read
or scored.  All kernel objects are immutable values; every function in
this module is pure.

Each family is one class, listed in ``FAMILIES`` under its tag.  The class
holds all of the family's one-kernel math: the static ``curve``, the
family's formula on raw parameters, and the methods ``compensator``,
``terms`` and ``support_end``; the one ``_Family.evaluate`` wraps ``curve``.
Its dataclass fields, in order, are its parameters and its JSON keys.
``terms(horizon)`` is a kernel's exponential-sum term set on
``[0, horizon]``: one term for EXP, the Laplace set for PWL, the pair rows
of ``Product.terms`` for EXPxEXP, EXPxPWL and PWLxPWL, and None for every
kernel with a finite support.  Every kernel integrates through one
method, ``compensator_within(horizon)``, which gives ``s -> int_0^s`` for
lags up to ``horizon``; a product's is one pair table, whose rows for the
completely monotone pairs and the decaying sines (EXPxSNS, PWLxSNS) run on
those term sets, built once per call.  The stationarity norm of every
kernel is that integral at the support end, so each norm is exact to the
term sets' tolerance.  The simulator draws its lags by inverting the same
integral, so every kernel it accepts is sampled through that one method.
The fits live in ``fit``: each of the twelve is one
``fit._candidate``, whose starts come from the family's rule in
``fit._starts``.  A fitted product is ``Product(K1, factor)``, and the
factor's amplitude (its first field) is 1, since the two amplitudes only
enter as their product; in SQRxSNS, SNSxSQR and SNSxSNS one ``omega`` also
sets both supports, a pulse's as ``l = pi/omega``.  A new family is a class
here with its amplitude as its first field, its
``Product.compensator_within`` rows (and its ``terms``, when it is completely
monotone), a start rule in ``fit._starts``, and, only if its products with
another family must share a support end as SQR and SNS do, its pairs in
``Product.TIED_SUPPORTS``, which the product's support rule and the tied
encoding of ``fit._candidate`` both read.  Every stationarity verdict, GD's
included, reads the one rule ``is_stationary``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
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
    "STATIONARITY_MARGIN",
    "is_stationary",
    "evaluate",
    "support_end",
    "stationarity_norm",
    "kernel_to_dict",
    "kernel_from_dict",
    "number_entry",
    "finite_positive",
]


class SupportMismatchError(ValueError):
    """Raised when a product of two discontinuous kernels (SQRxSNS, SNSxSNS)
    is built whose support endpoints differ by more than ``_SUPPORT_TOL``
    relative.  Its norm would be exact either way; the rule restricts the
    model to products whose factors end together."""


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
        # the instance dict holds the fields in order; dataclasses.astuple
        # would deep-copy them, in every Newton step and pair chunk
        return np.where(t >= 0, self.curve(np.maximum(t, 0.0), *vars(self).values()), 0.0)

    def compensator_within(self, horizon: float):
        """``compensator`` for lags up to ``horizon``; a base family's needs
        nothing built first."""
        return self.compensator

    def terms(self, horizon: float):
        """Weights and rates ``(w, z)`` with ``kernel(t) = sum_j w_j exp(-z_j t)``
        on ``[0, horizon]``, or None for a kernel with a finite support."""
        return None

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

    def terms(self, horizon: float):
        return np.array([self.alpha]), np.array([self.beta])

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

    def terms(self, horizon: float):
        # (c + t)^-p is the Laplace transform of the gamma density
        w, z = _gamma_terms(self.p, self.c, self.c, horizon)
        return self.k * w, z

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
        # sin runs only on the half-wave, so it never sees a lag past it, inf included
        x = omega * t
        return a * np.sin(x, out=np.zeros_like(x), where=t <= math.pi / omega)

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


def _in_family_order(a: BaseKernel, b: BaseKernel) -> tuple[BaseKernel, BaseKernel]:
    """The two factors of a product in ``FAMILIES`` order, and two of one
    family in the order of their parameters, so that the pair table lists
    each unordered pair of families once and gives both operand orders the
    same bits."""
    return tuple(sorted((a, b), key=lambda k: (list(FAMILIES).index(k.family), *vars(k).values())))


@dataclass(frozen=True)
class _Pair:
    """The two operands of a ``Sum`` or ``Product``, and the kernel grammar,
    which raises ``ValueError`` unless both are base kernels.  Each subclass
    inherits the fields, so its repr, equality, hash and ``__match_args__``
    read ``(left, right)`` under its own name, and a ``Sum`` never equals a
    ``Product``."""

    left: BaseKernel
    right: BaseKernel

    def __post_init__(self):
        for side in ("left", "right"):
            if not isinstance(getattr(self, side), _Family):
                raise ValueError(f"the {side} operand of a {type(self).__name__.lower()} must be a base kernel "
                                 f"({', '.join(FAMILIES)}), got {getattr(self, side)!r}")


class Sum(_Pair):
    """Pointwise sum of two base kernels; any other operand raises
    ``ValueError``."""

    def evaluate(self, t):
        return self.left.evaluate(t) + self.right.evaluate(t)

    def compensator_within(self, horizon: float):
        left, right = self.left.compensator_within(horizon), self.right.compensator_within(horizon)
        return lambda s: left(s) + right(s)

    def support_end(self) -> float:
        return max(self.left.support_end(), self.right.support_end())


# the relative gap allowed between the support ends of a SQRxSNS or SNSxSNS
# product; the fits tie them exactly
_SUPPORT_TOL = 0.05


class Product(_Pair):
    """Pointwise product of two base kernels; support is the intersection of
    the factor supports.  Any other operand raises ``ValueError``.  A
    product of two families that ``TIED_SUPPORTS`` names raises
    :class:`SupportMismatchError` when its support ends differ by more than
    ``_SUPPORT_TOL`` relative."""

    # the (left, right) family pairs of two discontinuous kernels, whose
    # support ends must meet; the fits tie them with one omega
    TIED_SUPPORTS = (("SQR", "SNS"), ("SNS", "SQR"), ("SNS", "SNS"))

    def __post_init__(self):
        super().__post_init__()
        if (self.left.family, self.right.family) in self.TIED_SUPPORTS:
            end1, end2 = self.left.support_end(), self.right.support_end()
            if abs(end1 - end2) > _SUPPORT_TOL * max(end1, end2):
                raise SupportMismatchError(f"discontinuous-kernel product requires matching support endpoints "
                                           f"(got {end1:g} and {end2:g}, tolerance {_SUPPORT_TOL:.0%})")

    def evaluate(self, t):
        return self.left.evaluate(t) * self.right.evaluate(t)

    def compensator_within(self, horizon: float):
        """``s -> int_0^s`` of the product for lags ``s`` in ``[0, horizon]``,
        one row per unordered pair of families; a term set is built here,
        once, for lags up to ``horizon``."""
        a, b = _in_family_order(self.left, self.right)
        terms = self.terms(horizon)
        if terms is not None:  # EXPxEXP, EXPxPWL, PWLxPWL
            return partial(_term_sum, _exp_integral, *terms)
        pulse, other = (b, a) if isinstance(b, Sqr) else (a, b)
        if isinstance(pulse, Sqr):  # the pulse is a constant on [0, l], on either side
            return lambda s: pulse.b * other.compensator(np.minimum(s, pulse.l))
        if isinstance(a, Sns):  # SNSxSNS
            return partial(_sine_sine_integral, a, b, self.support_end())
        # EXPxSNS, PWLxSNS
        return partial(_term_sum, partial(_sine_integral, b), *a.terms(min(horizon, b.support_end())))

    def terms(self, horizon: float):
        """The term set ``(w, z)`` of a completely monotone product (EXPxEXP,
        EXPxPWL, PWLxPWL) on ``[0, horizon]``, or None for any other pair."""
        a, b = _in_family_order(self.left, self.right)
        if isinstance(a, Pwl) and isinstance(b, Pwl):
            return _pwl_pwl_terms(a, b, horizon)
        if isinstance(a, Exp) and isinstance(b, (Exp, Pwl)):
            w, z = b.terms(horizon)
            return a.alpha * w, z + a.beta
        return None

    def support_end(self) -> float:
        return min(self.left.support_end(), self.right.support_end())


Kernel = Union[BaseKernel, Sum, Product]


# the stationary verdict's margin below 1: the steady arrival rate
# ``mu / (1 - norm)`` diverges as the norm nears 1, so a norm above
# ``1 - STATIONARITY_MARGIN`` is refused; the margin lies far above the
# norms' error of about 1e-13
STATIONARITY_MARGIN = 1e-9


def is_stationary(norm: float) -> bool:
    """The one stationarity rule: ``0 <= norm <= 1 - STATIONARITY_MARGIN``."""
    return 0.0 <= norm <= 1.0 - STATIONARITY_MARGIN


@dataclass(frozen=True)
class StationarityVerdict:
    """Value of the kernel norm ``int_0^inf phi``.

    ``stationary`` is ``is_stationary(norm_value)``: the norm lies in
    ``[0, 1 - STATIONARITY_MARGIN]``.
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
# the elements of one chunk of ``_term_sum``'s integrals, at most
_CHUNK = 2**16


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


def _gamma_terms(shape: float, c: float, c_hi: float, horizon: float):
    """Trapezoid weights ``w`` and rates ``z`` of the density
    ``s^(shape-1) e^(-c s) / Gamma(shape)`` on the nodes of
    ``_laplace_nodes(shape, c, c_hi, horizon)``, so that ``sum_j w_j
    exp(-z_j t)`` is its Laplace transform ``(c + t)^-shape``."""
    h, x = _laplace_nodes(shape, c, c_hi, horizon)
    s = np.exp(x)
    return np.exp(math.log(h) + shape * x - c * s - special.gammaln(shape)), s


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
    w, z = _gamma_terms(shape, b.c, a.c, horizon)
    return a.k * b.k * w * _kummer_decay(a.p, shape, (a.c - b.c) * z), z


def _term_sum(integral, w: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_j w_j integral(z_j, s)`` at each lag of the 1-D ``s``.

    The integrals are evaluated a chunk of lags at a time, as many as fit
    their (lags, terms) values in ``_CHUNK`` elements (at least one).  Each
    lag's weighted terms add in one pairwise sum along that contiguous
    axis, so its bits do not depend on the other lags of the call, and the
    rounding grows as ``log J``.
    """
    out, step = np.empty(s.shape), max(_CHUNK // z.size, 1)
    for c in range(0, s.size, step):
        values = integral(z, s[c : c + step, None])
        values *= w
        values.sum(axis=1, out=out[c : c + step])
    return out


def _exp_integral(z, s):
    """``int_0^s exp(-z u) du``."""
    return -np.expm1(-z * s) / z


def _sine_sine_integral(a: Sns, b: Sns, end: float, s):
    """``int_0^s`` of ``a sin(w1 u) b sin(w2 u)`` on the shared half-wave.

    That is ``(m/2) (sin(|w1-w2| m)/(|w1-w2| m) - sin((w1+w2) m)/((w1+w2) m))``
    for ``m = min(s, end)``, written as a difference of ``1 - sinc``, whose
    second term is at most ``((w1-w2)/(w1+w2))^2`` of the first, so the
    integral keeps its relative precision at lags far below the half-wave.
    """
    m = np.minimum(s, end)
    inner = _one_minus_sinc((a.omega + b.omega) * m) - _one_minus_sinc(abs(a.omega - b.omega) * m)
    return a.a * b.a * 0.5 * m * inner


def _one_minus_sinc(x):
    """``1 - sin(x)/x`` for ``x >= 0``; below 1 from nine terms of its Taylor
    series, which are exact to rounding there, since the closed form
    cancels."""
    small, x2, series = x < 1.0, x * x, 0.0
    for k in range(9, 0, -1):
        series = x2 * (1.0 / math.factorial(2 * k + 1) - series)
    return np.where(small, series, 1.0 - np.sin(x) / np.where(small, 1.0, x))


# 1/k! for k = 19 down to 1: the small-lag series of ``_sine_integral``
_SINE_SERIES = [1.0 / math.factorial(k) for k in range(19, 0, -1)]


def _sine_integral(sns: Sns, z, m):
    """``int_0^m exp(-z u) a sin(omega u) du`` for the (J,) rates ``z`` and
    the (L, 1) lags ``m``, clamped to the half-wave.

    That is ``a m Im(sum_k v^k / (k+1)!)`` for ``v = (i omega - z) m``.
    Where ``|v| < 1`` it is 19 terms of that series, which are exact to
    rounding there, since the closed form cancels."""
    w, m = sns.omega, np.minimum(m, math.pi / sns.omega)
    num = w - np.exp(-z * m) * (z * np.sin(w * m) + w * np.cos(w * m))
    out = sns.a * num / (z * z + w * w)
    small = (z * z + w * w) * (m * m) < 1.0
    if small.any():
        zs, ms = (np.broadcast_to(x, small.shape)[small] for x in (z, m))
        out[small] = sns.a * ms * np.polyval(_SINE_SERIES, (1j * w - zs) * ms).imag
    return out


# ---------------------------------------------------------------------------
# stationarity norms


def stationarity_norm(kernel: Kernel) -> StationarityVerdict:
    """Stationarity norm ``int_0^inf phi``, the kernel's compensator at its
    support end.

    A product with an EXP factor is integrated to ``min(end, 40/beta)``: it
    decays at least as fast as ``exp(-beta t)``, and ``exp(-40) < 5e-18``
    leaves the rest at rounding level.  Every other kernel is integrated
    to its support end, ``inf`` for PWL and PWLxPWL, so no norm is a bound.
    """
    end = kernel.support_end()
    if isinstance(kernel, Product):
        a, _ = _in_family_order(kernel.left, kernel.right)
        if isinstance(a, Exp):
            end = min(end, 40.0 / a.beta)
    norm = float(kernel.compensator_within(end)(np.array([end]))[0])
    return StationarityVerdict(norm_value=norm, stationary=is_stationary(norm))


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


def finite_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is finite and
    positive; written so that NaN fails."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
