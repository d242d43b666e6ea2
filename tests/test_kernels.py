import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quad_norm
from hawkesdecomp.kernels import (
    FAMILIES,
    Exp,
    Product,
    Pwl,
    Sns,
    Sqr,
    Sum,
    SupportMismatchError,
    evaluate,
    kernel_from_dict,
    kernel_from_json,
    kernel_to_dict,
    kernel_to_json,
    stationarity_norm,
    sup_after,
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

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        ts = np.linspace(0, 20, 400)
        for _ in range(50):
            k = Product(random_base(rng), random_base(rng))
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
        assert support_end(Product(Sqr(1, 2.5), Sns(1, 2))) == pytest.approx(math.pi / 2)
        assert support_end(Sum(Sqr(1, 2.5), Sns(1, 2))) == 2.5
        assert math.isinf(support_end(Exp(1, 1)))


class TestStationarityNorm:
    def test_exp(self):
        v = stationarity_norm(Exp(0.5, 1.0))
        assert v.norm_value == pytest.approx(0.5)
        assert v.stationary and not v.is_bound

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

    def test_bound_rows_flagged(self):
        assert stationarity_norm(Product(Pwl(1, 1, 2), Pwl(1, 1, 2))).is_bound
        assert stationarity_norm(Product(Pwl(1, 1, 2), Sns(1, 1))).is_bound
        assert not stationarity_norm(Product(Exp(1, 1), Pwl(1, 1, 2))).is_bound

    def test_support_mismatch_rejected(self):
        with pytest.raises(SupportMismatchError):
            stationarity_norm(Product(Sqr(1, 2.0), Sns(1, 1.0)))  # pi vs 2.0
        with pytest.raises(SupportMismatchError):
            stationarity_norm(Product(Sns(1, 1.0), Sns(1, 1.2)))
        # matching endpoints pass
        stationarity_norm(Product(Sqr(1, math.pi), Sns(1, 1.0)))
        # configurable tolerance
        stationarity_norm(Product(Sns(1, 1.0), Sns(1, 1.2)), support_tol=0.25)

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


class TestSupAfter:
    def test_dominates_future_values(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = random_base(rng)
            for s in rng.uniform(0, 8, size=5):
                u = np.linspace(s, s + 20, 400)
                assert sup_after(k, float(s)) >= float(evaluate(k, u).max()) - 1e-12

    def test_nonincreasing(self):
        k = Sns(2.0, 1.3)
        ss = np.linspace(0, 4, 100)
        vals = sup_after(k, ss)
        assert np.all(np.diff(vals) <= 1e-12)


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
        k = Sum(Exp(0.5, 1.5), Sqr(0.25, 2.0))
        assert kernel_from_json(kernel_to_json(k)) == k
        k = Product(Pwl(1, 0.5, 2.5), Sns(0.3, 0.7))
        assert kernel_from_json(kernel_to_json(k)) == k

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_json('{"type": "GAUSS", "sigma": 1}')

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
