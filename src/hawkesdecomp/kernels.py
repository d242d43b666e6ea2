"""Self-triggering kernels: four base families, one-level compositions,
and closed-form stationarity norms.

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
holds all of the family's one-kernel math as methods: ``evaluate``,
``sup_after``, ``norm``, ``compensator``, ``support_end`` and
``effective_support``, plus the static ``curve``, the family's formula on
raw parameters, which ``evaluate`` and ``sup_after`` wrap.  Its dataclass
fields, in order, are its parameters and its JSON keys.  The math of a
product of two families is in two pair tables: ``_norm_product`` here, and
``likelihood._compensator_product``, whose rows for the completely monotone
pairs (EXPxEXP, EXPxPWL, PWLxPWL) and the decaying sines (EXPxSNS, PWLxSNS)
run on the exponential-sum term sets of ``likelihood._terms``.  The
optimizer's starts for a family come from ``fit._starts``.  A new family is
a class here, its rows in both pair tables (and its term set, when it is
completely monotone) and a start rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Union

import mpmath
import numpy as np

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
    "effective_support",
    "sup_after",
    "stationarity_norm",
    "kernel_to_dict",
    "kernel_from_dict",
    "kernel_to_json",
    "kernel_from_json",
]


class SupportMismatchError(ValueError):
    """Raised when a product of discontinuous kernels does not share its
    support endpoint (the closed forms assume L = pi/omega)."""


class _Family:
    """Behaviour shared by the base kernel classes.

    Every field must be finite and above its floor: 0, unless ``_floors``
    names another.  ``sup_after`` and ``compensator`` take elapsed times
    already clamped at 0.  The static ``curve(t, *params)`` is the family's
    formula for lags ``t >= 0``, from the fields in order; ``evaluate`` and
    ``sup_after`` are built on it, and the fit objective calls it with one
    (M, 1) column per field, which gives M curves, one per row.  A
    dataclass's ``__match_args__`` is its field names in order.
    """

    _floors: dict = {}

    def __post_init__(self):
        for name in self.__match_args__:
            value, floor = getattr(self, name), self._floors.get(name, 0.0)
            if not (math.isfinite(value) and value > floor):
                raise ValueError(f"{name} must be finite and > {floor:g}, got {value!r}")

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

    def evaluate(self, t):
        return np.where(t >= 0, self.curve(np.maximum(t, 0.0), self.alpha, self.beta), 0.0)

    def sup_after(self, s):
        return self.curve(s, self.alpha, self.beta)

    def norm(self) -> float:
        return self.alpha / self.beta

    def compensator(self, s):
        return (self.alpha / self.beta) * (1.0 - np.exp(-self.beta * s))

    def support_end(self) -> float:
        return math.inf

    def effective_support(self, eps: float) -> float:
        if self.alpha <= eps:
            return 0.0
        return math.log(self.alpha / eps) / self.beta


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

    def evaluate(self, t):
        return np.where(t >= 0, self.curve(np.maximum(t, 0.0), self.k, self.c, self.p), 0.0)

    def sup_after(self, s):
        return self.curve(s, self.k, self.c, self.p)

    def norm(self) -> float:
        return self.k * self.c ** (1.0 - self.p) / (self.p - 1.0)

    def compensator(self, s):
        q = self.p - 1.0
        return self.k * (self.c**-q - (self.c + s) ** -q) / q

    def support_end(self) -> float:
        return math.inf

    def effective_support(self, eps: float) -> float:
        edge = (self.k / eps) ** (1.0 / self.p) - self.c
        return max(edge, 0.0)


@dataclass(frozen=True)
class Sqr(_Family):
    """Pulse kernel of height ``b`` supported on ``[0, l]``."""

    b: float
    l: float

    @staticmethod
    def curve(t, b, l):
        return np.where(t <= l, b, 0.0)

    def evaluate(self, t):
        return np.where(t >= 0, self.curve(t, self.b, self.l), 0.0)

    def sup_after(self, s):
        return self.curve(s, self.b, self.l)

    def norm(self) -> float:
        return self.b * self.l

    def compensator(self, s):
        return self.b * np.minimum(s, self.l)

    def support_end(self) -> float:
        return self.l

    def effective_support(self, eps: float) -> float:
        return self.support_end()


@dataclass(frozen=True)
class Sns(_Family):
    """Half-wave sinusoid ``a * sin(omega * t)`` supported on ``[0, pi/omega]``."""

    a: float
    omega: float

    @staticmethod
    def curve(t, a, omega):
        return np.where(t <= math.pi / omega, a * np.sin(omega * t), 0.0)

    def evaluate(self, t):
        # the curve is 0 at lag 0 and past pi/omega, so negative lags clamp
        # to 0 and long ones to 2*pi/omega, which keeps sin off infinite lags
        end = math.pi / self.omega
        return self.curve(np.minimum(np.maximum(t, 0.0), 2.0 * end), self.a, self.omega)

    def sup_after(self, s):
        peak = math.pi / (2.0 * self.omega)
        return np.where(s <= peak, self.a, self.curve(s, self.a, self.omega))

    def norm(self) -> float:
        return 2.0 * self.a / self.omega

    def compensator(self, s):
        m = np.minimum(s, math.pi / self.omega)
        return (self.a / self.omega) * (1.0 - np.cos(self.omega * m))

    def support_end(self) -> float:
        return math.pi / self.omega

    def effective_support(self, eps: float) -> float:
        return self.support_end()


BaseKernel = Union[Exp, Pwl, Sqr, Sns]

# Tag -> class.  The order is the fixed tie-break order wherever two
# candidates have equal residue, and the canonical operand order of the pair
# tables.
FAMILIES = {"EXP": Exp, "PWL": Pwl, "SQR": Sqr, "SNS": Sns}


def in_family_order(a: BaseKernel, b: BaseKernel) -> tuple[BaseKernel, BaseKernel]:
    """The two factors of a product in ``FAMILIES`` order, so that a pair
    table lists each unordered pair of families once."""
    order = list(FAMILIES.values())
    return (b, a) if order.index(type(a)) > order.index(type(b)) else (a, b)


@dataclass(frozen=True)
class Sum:
    """Pointwise sum of two base kernels."""

    left: BaseKernel
    right: BaseKernel

    def evaluate(self, t):
        return self.left.evaluate(t) + self.right.evaluate(t)

    def sup_after(self, s):
        return self.left.sup_after(s) + self.right.sup_after(s)

    def norm(self) -> float:
        return self.left.norm() + self.right.norm()

    def compensator(self, s):
        return self.left.compensator(s) + self.right.compensator(s)

    def support_end(self) -> float:
        return max(self.left.support_end(), self.right.support_end())

    def effective_support(self, eps: float) -> float:
        return max(self.left.effective_support(eps), self.right.effective_support(eps))


@dataclass(frozen=True)
class Product:
    """Pointwise product of two base kernels; support is the intersection of
    the factor supports.  Its norm and compensator come from the pair tables."""

    left: BaseKernel
    right: BaseKernel

    def evaluate(self, t):
        return self.left.evaluate(t) * self.right.evaluate(t)

    def sup_after(self, s):
        return self.left.sup_after(s) * self.right.sup_after(s)

    def support_end(self) -> float:
        return min(self.left.support_end(), self.right.support_end())

    def effective_support(self, eps: float) -> float:
        return min(self.left.effective_support(eps), self.right.effective_support(eps))


Kernel = Union[BaseKernel, Sum, Product]


@dataclass(frozen=True)
class StationarityVerdict:
    """Closed-form value of the kernel norm (or its upper bound).

    ``stationary`` is true exactly when ``norm_value`` lies in ``[0, 1)``;
    the boundary value 1 is rejected because the steady arrival rate
    ``mu / (1 - norm)`` diverges there.
    """

    norm_value: float
    is_bound: bool
    stationary: bool


def _verdict(norm_value: float, is_bound: bool = False) -> StationarityVerdict:
    return StationarityVerdict(
        norm_value=float(norm_value),
        is_bound=is_bound,
        stationary=bool(0.0 <= norm_value < 1.0),
    )


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


def effective_support(kernel: Kernel, eps: float = 1e-12) -> float:
    """Lag beyond which the kernel contributes less than ``eps``.

    Exact support end for SQR/SNS; for EXP and PWL the point where the tail
    drops below ``eps``.  Used for history truncation in simulation; the
    likelihood truncates nothing.
    """
    return kernel.effective_support(eps)


def sup_after(kernel: Kernel, s):
    """Upper bound on ``evaluate(kernel, u)`` over all ``u >= s``.

    Exact for base kernels; for sums and products the bound composes the
    factor suprema, which dominates the true supremum.  Nonincreasing in
    ``s``, which is what the thinning sampler needs.  Accepts a scalar or
    an array of elapsed times.
    """
    arr = np.asarray(s, dtype=float)
    out = kernel.sup_after(np.maximum(arr, 0.0))
    if np.isscalar(s) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# stationarity norms


def _exp_pwl_norm(e: Exp, w: Pwl) -> float:
    # alpha*K*beta^(p-1)*exp(beta*c)*Gamma(1-p, beta*c); the incomplete gamma
    # has a negative first argument, so evaluate through mpmath.
    x = mpmath.mpf(e.beta) * mpmath.mpf(w.c)
    val = (
        mpmath.mpf(e.alpha)
        * mpmath.mpf(w.k)
        * mpmath.power(e.beta, w.p - 1.0)
        * mpmath.exp(x)
        * mpmath.gammainc(1.0 - w.p, x)
    )
    return float(val)


def _check_shared_support(end1: float, end2: float, tol: float) -> None:
    ref = max(abs(end1), abs(end2))
    if abs(end1 - end2) > tol * ref:
        raise SupportMismatchError(
            f"discontinuous-kernel product requires matching support endpoints "
            f"(got {end1:g} and {end2:g}, tolerance {tol:.0%})"
        )


def _norm_product(a: BaseKernel, b: BaseKernel, support_tol: float):
    """Closed-form norm (or upper bound) of a two-factor product.

    Returns ``(value, is_bound)``.  Dispatch is on the unordered type pair.
    """
    a, b = in_family_order(a, b)
    if isinstance(a, Exp) and isinstance(b, Exp):
        return a.alpha * b.alpha / (a.beta + b.beta), False
    if isinstance(a, Exp) and isinstance(b, Pwl):
        return _exp_pwl_norm(a, b), False
    if isinstance(a, Exp) and isinstance(b, Sqr):
        return a.alpha * b.b * (1.0 - math.exp(-a.beta * b.l)) / a.beta, False
    if isinstance(a, Exp) and isinstance(b, Sns):
        w, bt = b.omega, a.beta
        return b.a * a.alpha * w * (1.0 + math.exp(-bt * math.pi / w)) / (w * w + bt * bt), False
    if isinstance(a, Pwl) and isinstance(b, Pwl):
        q = a.p + b.p - 1.0
        return a.k * b.k / (q * min(a.c, b.c) ** q), True
    if isinstance(a, Pwl) and isinstance(b, Sqr):
        q = a.p - 1.0
        return a.k * b.b * (a.c ** -q - (a.c + b.l) ** -q) / q, False
    if isinstance(a, Pwl) and isinstance(b, Sns):
        q = 1.0 - a.p
        return a.k * b.a * ((a.c + math.pi / b.omega) ** q - a.c ** q) / q, True
    if isinstance(a, Sqr) and isinstance(b, Sqr):
        return a.b * b.b * min(a.l, b.l), False
    if isinstance(a, Sqr) and isinstance(b, Sns):
        _check_shared_support(a.l, math.pi / b.omega, support_tol)
        return 2.0 * b.a * a.b / b.omega, False
    if isinstance(a, Sns) and isinstance(b, Sns):
        _check_shared_support(math.pi / a.omega, math.pi / b.omega, support_tol)
        return math.pi * a.a * b.a / (2.0 * a.omega), False
    raise TypeError(f"not base kernels: {a!r}, {b!r}")


def stationarity_norm(kernel: Kernel, support_tol: float = 0.05) -> StationarityVerdict:
    """Closed-form stationarity norm of a composite kernel.

    Singles use the per-family closed forms, sums add them (exact), and
    products use the pairwise closed forms; the PWLxPWL and PWLxSNS rows are
    upper bounds and are flagged ``is_bound``.  Products of two discontinuous
    kernels (SQRxSNS, SNSxSNS) assume a shared support endpoint and raise
    :class:`SupportMismatchError` when the endpoints differ by more than
    ``support_tol`` relative.
    """
    if isinstance(kernel, Product):
        value, is_bound = _norm_product(kernel.left, kernel.right, support_tol)
        return _verdict(value, is_bound)
    return _verdict(kernel.norm())


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


def kernel_to_json(kernel: Kernel) -> str:
    return json.dumps(kernel_to_dict(kernel), sort_keys=True)


def kernel_from_json(text: str) -> Kernel:
    return kernel_from_dict(json.loads(text))
