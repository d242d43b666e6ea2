import itertools
import json
import math
import warnings
from dataclasses import fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quad_norm, term_sum_by_lag, tied_product
from hawkesdecomp import kernels
from hawkesdecomp.kernels import (
    FAMILIES,
    Exp,
    STATIONARITY_MARGIN,
    Product,
    Pwl,
    Sns,
    Sqr,
    Sum,
    SupportMismatchError,
    evaluate,
    is_stationary,
    kernel_from_dict,
    kernel_to_dict,
    stationarity_norm,
    support_end,
)

positive = st.floats(min_value=0.05, max_value=20.0)
exponent = st.floats(min_value=1.1, max_value=6.0)


def random_base(rng, family=None):
    fam = family or rng.choice(["EXP", "PWL", "SQR", "SNS"])
    if fam == "EXP":
        return Exp(rng.uniform(0.1, 5), rng.uniform(0.1, 5))
    if fam == "PWL":
        return Pwl(rng.uniform(0.1, 5), rng.uniform(0.1, 5), rng.uniform(1.1, 6))
    if fam == "SQR":
        return Sqr(rng.uniform(0.1, 5), rng.uniform(0.1, 5))
    return Sns(rng.uniform(0.1, 5), rng.uniform(0.1, 5))


class TestEvaluate:
    def test_exp_at_zero(self):
        assert evaluate(Exp(1, 1), 0.0) == pytest.approx(1.0)

    def test_sns_outside_support(self):
        assert evaluate(Sns(1, 1), math.pi + 0.1) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(Sns(1, 1), [1e300, math.inf]).tolist() == [0.0, 0.0]

    def test_product_sqr_exp(self):
        k = Product(Sqr(2, 1), Exp(1, 1))
        assert evaluate(k, 0.5) == pytest.approx(2 * math.exp(-0.5))

    def test_negative_time_zero(self):
        for k in (Exp(1, 1), Pwl(1, 1, 2), Sqr(1, 1), Sns(1, 1)):
            assert evaluate(k, -0.5) == 0.0

    def test_vectorized_matches_scalar(self):
        k = Sum(Exp(1, 2), Sns(0.5, 3))
        ts = np.linspace(-1, 3, 50)
        vec = evaluate(k, ts)
        assert vec == pytest.approx([evaluate(k, float(t)) for t in ts])

    @given(
        a=positive, b=positive, c=positive, d=positive,
        t=st.floats(min_value=-1.0, max_value=30.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_sum_and_product_pointwise(self, a, b, c, d, t):
        k1, k2 = Exp(a, b), Sqr(c, d)
        assert evaluate(Sum(k1, k2), t) == pytest.approx(evaluate(k1, t) + evaluate(k2, t))
        assert evaluate(Product(k1, k2), t) == pytest.approx(evaluate(k1, t) * evaluate(k2, t))

    def test_signed_zero_and_far_lags(self):
        # sin runs only on the half-wave, so no lag past it, inf included,
        # reaches it (a RuntimeWarning is an error in this suite)
        t = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, 1e12, np.inf])
        for k in (Exp(1, 1), Pwl(1, 1, 2), Sqr(1, 1), Sns(1, 1), Product(Exp(1, 0.5), Sns(0.6, 1.5))):
            values = evaluate(k, t)
            assert np.array_equal(values[[0, 1, 6]], np.zeros(3)) and 0.0 <= values[5] < 1e-23
            assert values[2] == values[3] == evaluate(k, 0.0)
        on_and_past = evaluate(Sns(2.0, 1.0), np.array([1.0, math.pi, 3.2]))
        assert on_and_past.tolist() == [2.0 * math.sin(1.0), 2.0 * math.sin(math.pi), 0.0]

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        ts = np.linspace(0, 20, 400)
        for _ in range(50):
            k = tied_product(random_base(rng), random_base(rng))
            assert np.all(evaluate(k, ts) >= 0)


class TestInvariants:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Exp(-1, 1)
        with pytest.raises(ValueError):
            Sqr(1, 0)

    def test_pwl_requires_p_above_one(self):
        with pytest.raises(ValueError):
            Pwl(1, 1, 1.0)

    @pytest.mark.parametrize("tag", FAMILIES)
    def test_every_field_validated(self, tag):
        cls = FAMILIES[tag]
        good = [1.5 + i for i in range(len(fields(cls)))]
        for i in range(len(good)):
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError):
                    cls(*good[:i], bad, *good[i + 1:])

    def test_supports(self):
        assert support_end(Sqr(1, 2.5)) == 2.5
        assert support_end(Sns(1, 2)) == pytest.approx(math.pi / 2)
        assert support_end(Product(Sqr(1, math.pi / 2), Sns(1, 2))) == pytest.approx(math.pi / 2)
        assert support_end(Sum(Sqr(1, 2.5), Sns(1, 2))) == 2.5
        assert math.isinf(support_end(Exp(1, 1)))


class TestGrammar:
    """A sum or product holds two base kernels."""

    @pytest.mark.parametrize("build", [
        lambda: Sum(Sum(Exp(1, 1), Exp(1, 2)), Exp(1, 3)),
        lambda: Product(Sum(Exp(1, 1), Exp(1, 2)), Exp(1, 3)),
        lambda: Sum(Product(Exp(1, 1), Exp(1, 2)), Exp(1, 3)),
        lambda: Product(Exp(1, 3), Product(Exp(1, 1), Exp(1, 2))),
        lambda: Sum(Exp(1, 1), 0.5),
    ], ids=["sum-of-sum", "product-of-sum", "sum-of-product", "product-of-product", "number"])
    def test_grammar_rejects_non_base_operands(self, build):
        # the model is a base kernel, or a sum or product of two of them
        with pytest.raises(ValueError, match="operand of a (sum|product) must be a base kernel"):
            build()

    def test_nested_model_file_rejected(self):
        # score used to exit 1 on this model with an AttributeError
        inner = {"op": "sum", "left": kernel_to_dict(Exp(1, 1)), "right": kernel_to_dict(Exp(1, 2))}
        doc = {"op": "product", "left": inner, "right": kernel_to_dict(Exp(1, 3))}
        with pytest.raises(ValueError, match="the left operand of a product must be a base kernel"):
            kernel_from_dict(doc)


class TestStationarityNorm:
    def test_exp(self):
        v = stationarity_norm(Exp(0.5, 1.0))
        assert v.norm_value == pytest.approx(0.5)
        assert v.stationary

    def test_margin_boundary(self):
        # the one rule: 0 <= norm <= 1 - STATIONARITY_MARGIN, exactly
        edge = 1.0 - STATIONARITY_MARGIN
        at, above = stationarity_norm(Exp(edge, 1.0)), stationarity_norm(Exp(np.nextafter(edge, 2.0), 1.0))
        assert at.norm_value == edge and at.stationary
        assert above.norm_value == np.nextafter(edge, 2.0) and not above.stationary
        assert is_stationary(0.0) and not is_stationary(-1e-300) and not is_stationary(math.nan)

    def test_sqr_boundary_not_stationary(self):
        v = stationarity_norm(Sqr(1, 1))
        assert v.norm_value == pytest.approx(1.0)
        assert not v.stationary

    def test_product_exp_exp(self):
        v = stationarity_norm(Product(Exp(1, 1), Exp(1, 1)))
        assert v.norm_value == pytest.approx(0.5)

    def test_product_exp_sqr(self):
        v = stationarity_norm(Product(Exp(1, 1), Sqr(1, 1)))
        assert v.norm_value == pytest.approx(1 - math.exp(-1))

    def test_sum_additivity(self):
        a, b = Exp(0.3, 1.0), Sqr(0.2, 1.5)
        total = stationarity_norm(Sum(a, b)).norm_value
        assert total == pytest.approx(
            stationarity_norm(a).norm_value + stationarity_norm(b).norm_value
        )

    def test_support_mismatch_rejected(self):
        # the rule is the type's: no such product can be built, let alone
        # scored or simulated
        with pytest.raises(SupportMismatchError):
            Product(Sqr(1, 2.0), Sns(1, 1.0))  # pi vs 2.0
        with pytest.raises(SupportMismatchError):
            Product(Sns(1, 1.0), Sns(1, 1.2))
        doc = {"op": "product", "left": kernel_to_dict(Sns(1, 1.0)), "right": kernel_to_dict(Sns(1, 1.2))}
        with pytest.raises(ValueError, match="matching support endpoints"):
            kernel_from_dict(doc)
        # SQRxSQR and a pulse or a half-wave with a decay have no such rule
        Product(Sqr(1, 1.0), Sqr(1, 5.0))
        Product(Exp(1, 1.0), Sns(1, 0.1))
        # matching endpoints pass
        stationarity_norm(Product(Sqr(1, math.pi), Sns(1, 1.0)))
        # ends within the 5% tolerance pass (pi and pi / 1.04, 3.8% apart)
        stationarity_norm(Product(Sns(1, 1.0), Sns(1, 1.04)))

    def test_exact_rows_match_quadrature(self):
        rng = np.random.default_rng(11)
        pairs = [
            ("EXP", "EXP"), ("EXP", "PWL"), ("EXP", "SQR"), ("EXP", "SNS"),
            ("PWL", "SQR"), ("SQR", "SQR"),
        ]
        for f1, f2 in pairs:
            for _ in range(20):
                k = Product(random_base(rng, f1), random_base(rng, f2))
                v = stationarity_norm(k)
                assert v.norm_value == pytest.approx(quad_norm(k), rel=1e-6), (f1, f2)

    def test_shared_support_rows_match_quadrature(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            omega = rng.uniform(0.2, 4)
            sqr_sns = Product(Sqr(rng.uniform(0.1, 3), math.pi / omega), Sns(rng.uniform(0.1, 3), omega))
            assert stationarity_norm(sqr_sns).norm_value == pytest.approx(quad_norm(sqr_sns), rel=1e-6)
            sns_sns = Product(Sns(rng.uniform(0.1, 3), omega), Sns(rng.uniform(0.1, 3), omega))
            assert stationarity_norm(sns_sns).norm_value == pytest.approx(quad_norm(sns_sns), rel=1e-6)

    def test_bound_rows_dominate_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pp = Product(random_base(rng, "PWL"), random_base(rng, "PWL"))
            assert quad_norm(pp) <= stationarity_norm(pp).norm_value + 1e-9
            ps = Product(random_base(rng, "PWL"), random_base(rng, "SNS"))
            assert quad_norm(ps) <= stationarity_norm(ps).norm_value + 1e-9


# fit-bound corners and a few interior values (``fit._GEN_LO/_GEN_HI``,
# ``fit._P_LO/_P_HI``)
SCALES = (1e-8, 1e-3, 1.0, 1e3, 1e8)
EXPONENTS = (1.0 + 1e-8, 1.5, 2.0, 10.0)


def mp_relative_error(value, exact) -> float:
    return float(abs((mpmath.mpf(value) - exact) / exact))


def mp_sine_term(w, z, s):
    """``w int_0^s exp(-z u) sin(u) du`` in mpmath's precision."""
    w, z, m = mpmath.mpf(w), mpmath.mpf(z), mpmath.mpf(s)
    return w * (1 - mpmath.exp(-z * m) * (z * mpmath.sin(m) + mpmath.cos(m))) / (z * z + 1)


class TestNormsAtFitBounds:
    """Product norms against 40-digit closed forms or quadrature, with unit
    amplitudes."""

    def test_exp_sqr(self):
        with mpmath.workdps(40):
            for beta, l in itertools.product(SCALES, SCALES):
                exact = -mpmath.expm1(-mpmath.mpf(beta) * l) / beta
                value = stationarity_norm(Product(Exp(1.0, beta), Sqr(1.0, l))).norm_value
                assert mp_relative_error(value, exact) <= 1e-12, (beta, l)

    def test_pwl_sqr(self):
        with mpmath.workdps(40):
            for c, l, p in itertools.product(SCALES, SCALES, EXPONENTS):
                q = mpmath.mpf(p) - 1
                exact = (mpmath.mpf(c) ** -q - (mpmath.mpf(c) + l) ** -q) / q
                value = stationarity_norm(Product(Pwl(1.0, c, p), Sqr(1.0, l))).norm_value
                assert mp_relative_error(value, exact) <= 1e-12, (c, l, p)

    def test_exp_pwl(self):
        # int_0^inf e^(-beta t) (c+t)^-p dt = beta^(p-1) e^(beta c) Gamma(1-p, beta c)
        with mpmath.workdps(40):
            cases = itertools.product(SCALES, SCALES, EXPONENTS)
            for beta, c, p in itertools.chain(cases, [(8.8e6, 9.5e-6, 10.0)]):
                x = mpmath.mpf(beta) * c
                exact = mpmath.mpf(beta) ** (p - 1) * mpmath.exp(x) * mpmath.gammainc(1 - mpmath.mpf(p), x)
                value = stationarity_norm(Product(Exp(1.0, beta), Pwl(1.0, c, p))).norm_value
                assert mp_relative_error(value, exact) <= 1e-12, (beta, c, p)

    def test_pwl_pwl(self):
        # with c1 >= c2, u = c2 / (c2 + t) turns the integral into Euler's,
        # c2^-q / q 2F1(p1, q; q + 1; -(c1 - c2) / c2) with q = p1 + p2 - 1
        with mpmath.workdps(40):
            for c1, c2, p1, p2 in itertools.product(SCALES, SCALES, EXPONENTS, EXPONENTS):
                if c1 < c2:
                    continue  # the other operand order is the same norm
                q = mpmath.mpf(p1) + p2 - 1
                z = -(mpmath.mpf(c1) - c2) / c2
                exact = mpmath.mpf(c2) ** -q / q * mpmath.hyp2f1(p1, q, q + 1, z)
                value = stationarity_norm(Product(Pwl(1.0, c1, p1), Pwl(1.0, c2, p2))).norm_value
                assert mp_relative_error(value, exact) <= 1e-12, (c1, c2, p1, p2)

    def test_pwl_sns(self):
        # with z = -i omega, int_0^L (c+t)^-p e^(i omega t) dt
        # = e^(z c) z^(p-1) Gamma(1-p; z c, z (c+L)); the norm is its
        # imaginary part at L = pi/omega
        with mpmath.workdps(40):
            for c, omega, p in itertools.product(SCALES, SCALES, EXPONENTS):
                z, q = -1j * mpmath.mpf(omega), mpmath.mpf(p) - 1
                gamma = mpmath.gammainc(-q, z * c, z * (c + mpmath.pi / omega))
                exact = mpmath.im(mpmath.exp(z * c) * z**q * gamma)
                value = stationarity_norm(Product(Pwl(1.0, c, p), Sns(1.0, omega))).norm_value
                assert mp_relative_error(value, exact) <= 1e-12, (c, omega, p)


def log_uniform(rng, lo=1e-8, hi=1e8):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def draw_in_fit_bounds(rng, family):
    cls = FAMILIES[family]
    return cls(*[1.0 + log_uniform(rng, 1e-8, 9.0) if f.name == "p" else log_uniform(rng)
                 for f in fields(cls)])


def closed_form_norm(kernel) -> float:
    """Each family's norm in closed form; a sum adds its two."""
    if isinstance(kernel, Sum):
        return closed_form_norm(kernel.left) + closed_form_norm(kernel.right)
    if isinstance(kernel, Exp):
        return kernel.alpha / kernel.beta
    if isinstance(kernel, Pwl):
        return kernel.k * kernel.c ** (1.0 - kernel.p) / (kernel.p - 1.0)
    if isinstance(kernel, Sqr):
        return kernel.b * kernel.l
    return 2.0 * kernel.a / kernel.omega


class TestNormIsCompensatorAtSupportEnd:
    def test_singles_and_sums_match_closed_forms_exactly(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            for family in FAMILIES:
                k = draw_in_fit_bounds(rng, family)
                assert stationarity_norm(k).norm_value == closed_form_norm(k), k
            for f1, f2 in itertools.combinations_with_replacement(FAMILIES, 2):
                k = Sum(draw_in_fit_bounds(rng, f1), draw_in_fit_bounds(rng, f2))
                assert stationarity_norm(k).norm_value == closed_form_norm(k), k

    @pytest.mark.parametrize(
        "f1, f2", itertools.product(FAMILIES, FAMILIES), ids=[f"{a}x{b}" for a in FAMILIES for b in FAMILIES])
    def test_products_do_not_depend_on_operand_order(self, f1, f2):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = random_base(rng, f1), random_base(rng, f2)
            if f1 in ("SQR", "SNS") and f2 in ("SQR", "SNS"):
                # support ends 4% apart, inside the default tolerance
                end = 1.04 * a.support_end()
                b = Sqr(b.b, end) if f2 == "SQR" else Sns(b.a, math.pi / end)
            assert stationarity_norm(Product(a, b)) == stationarity_norm(Product(b, a)), (a, b)

    def test_sns_sns_off_support_is_exact(self):
        k = Product(Sns(0.3, 1.0), Sns(0.3, 1.04))
        assert stationarity_norm(k).norm_value == pytest.approx(quad_norm(k), rel=1e-12)


class TestCompensatorWithin:
    HORIZON = 300.0
    LAGS = np.concatenate(([0.0], np.geomspace(1e-6, HORIZON, 400)))

    @staticmethod
    def kernels(rng):
        yield from (random_base(rng, f) for f in FAMILIES)
        for f1, f2 in itertools.combinations_with_replacement(FAMILIES, 2):
            a, b = random_base(rng, f1), random_base(rng, f2)
            yield Sum(a, b)
            if f1 in ("SQR", "SNS") and f2 in ("SQR", "SNS"):
                b = Sqr(b.b, a.support_end()) if f2 == "SQR" else Sns(b.a, math.pi / a.support_end())
            yield Product(a, b)

    def test_matches_compensator(self):
        rng = np.random.default_rng(43)
        for k in self.kernels(rng):
            within = k.compensator_within(self.HORIZON)(self.LAGS)
            longer = k.compensator_within(10.0 * self.HORIZON)(self.LAGS)
            np.testing.assert_allclose(within, longer, rtol=1e-12, atol=0, err_msg=str(k))

    def test_does_not_depend_on_the_lags_asked(self):
        # the term set is fixed by the horizon, so a lag's value is the same
        # bits whichever other lags share the call
        rng = np.random.default_rng(44)
        for k in self.kernels(rng):
            integral = k.compensator_within(self.HORIZON)
            full = integral(self.LAGS)
            np.testing.assert_array_equal(integral(self.LAGS[:50]), full[:50], err_msg=str(k))


class TestTermSumChunks:
    # the term-set products; EXPxSNS has one term
    PRODUCTS = [
        Product(Exp(1.0, 0.5), Pwl(0.3, 0.5, 2.0)),
        Product(Pwl(0.2, 0.5, 2.0), Pwl(1.0, 0.5, 2.0)),
        Product(Exp(1.0, 0.5), Sns(0.6, 1.5)),
        Product(Pwl(1.0, 0.5, 2.0), Sns(0.3, 1.5)),
    ]
    HORIZON = 50.0

    @pytest.mark.parametrize("size", [1, 7, 4097, 2**16 + 3])
    @pytest.mark.parametrize("kernel", PRODUCTS, ids=str)
    def test_same_bits_as_one_lag_at_a_time(self, kernel, size, monkeypatch):
        # a chunk holds 720-978 lags of the 67-91-term sets, so at 4097 lags
        # the last chunk is partial; past 2^16 lags even the one-term set
        # takes two chunks
        s = np.random.default_rng(size).uniform(0.0, self.HORIZON, size)
        chunked = kernel.compensator_within(self.HORIZON)(s)
        monkeypatch.setattr(kernels, "_term_sum", term_sum_by_lag)
        assert np.array_equal(chunked, kernel.compensator_within(self.HORIZON)(s))


class TestCompensatorAtSmallLags:
    def test_sns(self):
        # a (1 - cos(omega s)) / omega cancels for omega s << 1
        k = Sns(1.0, 1.0)
        with mpmath.workdps(40):
            for s in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
                exact = 1 - mpmath.cos(mpmath.mpf(s))
                value = k.compensator(np.array([s]))[0]
                assert mp_relative_error(value, exact) <= 1e-14, s

    @pytest.mark.parametrize("omegas", [(1.0, 1.0), (1.0, 1.0 + 1e-13), (1.5, 1.45), (1.0, 1.05)])
    def test_sns_sns(self, omegas):
        # m/2 - sin(2 omega m)/(4 omega), and its unequal-frequency form,
        # cancel for omega m << 1: at m = 1e-8 the old forms gave 0
        w1, w2 = omegas
        k = Product(Sns(1.0, w1), Sns(1.0, w2))
        with mpmath.workdps(40):
            for s in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, k.support_end()):
                exact = mpmath.quad(lambda u: mpmath.sin(w1 * u) * mpmath.sin(w2 * u), [0, s])
                value = k.compensator_within(s)(np.array([s]))[0]
                assert mp_relative_error(value, exact) <= 1e-14, s

    @pytest.mark.parametrize("decay", [Exp(1.0, 1.0), Pwl(1.0, 1.0, 2.0)], ids=str)
    def test_decaying_sine(self, decay):
        # each term's closed form cancels for |z - i omega| s << 1: at s = 1e-6
        # it lost 9e-5.  The exact value is that of the product's own term
        # set, the EXP itself or the PWL's to the term-set tolerance (3e-14 at
        # lag 0 here), so the cancellation is measured apart from that
        k = Product(decay, Sns(1.0, 1.0))
        with mpmath.workdps(50):
            for s in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, k.support_end()):
                exact = sum(mp_sine_term(w, z, s) for w, z in zip(*decay.terms(s)))
                value = k.compensator_within(s)(np.array([s]))[0]
                assert mp_relative_error(value, exact) <= 1e-14, s


class TestSerialization:
    def test_field_names(self):
        assert kernel_to_dict(Exp(1, 2)) == {"type": "EXP", "alpha": 1, "beta": 2}
        assert kernel_to_dict(Pwl(1, 2, 3)) == {"type": "PWL", "k": 1, "c": 2, "p": 3}
        assert kernel_to_dict(Sqr(1, 2)) == {"type": "SQR", "b": 1, "l": 2}
        assert kernel_to_dict(Sns(1, 2)) == {"type": "SNS", "a": 1, "omega": 2}

    @pytest.mark.parametrize("tag", FAMILIES)
    def test_family_round_trip(self, tag):
        cls = FAMILIES[tag]
        kernel = cls(*[1.5 + i for i in range(len(fields(cls)))])
        d = kernel_to_dict(kernel)
        assert d["type"] == tag
        assert kernel_from_dict(d) == kernel

    def test_composite_round_trip(self):
        for k in (Sum(Exp(0.5, 1.5), Sqr(0.25, 2.0)), Product(Pwl(1, 0.5, 2.5), Sns(0.3, 0.7))):
            assert kernel_from_dict(json.loads(json.dumps(kernel_to_dict(k)))) == k

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_dict({"type": "GAUSS", "sigma": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="EXP kernel is missing 'beta'"):
            kernel_from_dict({"type": "EXP", "alpha": 1})

    def test_missing_operand_rejected(self):
        with pytest.raises(ValueError, match="sum kernel is missing 'right'"):
            kernel_from_dict({"op": "sum", "left": {"type": "EXP", "alpha": 1, "beta": 2}})

    @pytest.mark.parametrize("d", [[1, 2], "EXP", None])
    def test_not_an_object_rejected(self, d):
        with pytest.raises(ValueError, match="kernel must be a JSON object"):
            kernel_from_dict(d)

    def test_operand_not_an_object_rejected(self):
        with pytest.raises(ValueError, match="kernel must be a JSON object, got int"):
            kernel_from_dict({"op": "product", "left": {"type": "EXP", "alpha": 1, "beta": 2}, "right": 3})

    @pytest.mark.parametrize("value", [None, "0.5", True, [1]])
    def test_non_numeric_field_rejected(self, value):
        with pytest.raises(ValueError, match="EXP kernel field 'alpha' must be a number"):
            kernel_from_dict({"type": "EXP", "alpha": value, "beta": 2})

    def test_field_too_large_rejected(self):
        with pytest.raises(ValueError, match="EXP kernel field 'beta' is too large"):
            kernel_from_dict({"type": "EXP", "alpha": 1, "beta": 10**400})

    @pytest.mark.parametrize("d", [{"op": ["sum"]}, {"type": ["EXP"]}])
    def test_unhashable_tag_rejected(self, d):
        with pytest.raises(ValueError, match="unknown"):
            kernel_from_dict(d)
