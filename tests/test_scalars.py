"""Exact scalar layer: brackets, factorials, binomials, parameter guards."""

import math
import random

import pytest

from pqcalc.errors import (
    DegenerateRegimeError,
    NegativeArgumentError,
    NonPositiveBaseError,
    OutOfRangeError,
)
from pqcalc.scalars import (
    FloatScalar,
    PqParams,
    Rat,
    Regime,
    bracket,
    bracket_alpha,
    bracket_falling,
    pq_binomial,
    pq_factorial,
    rat,
    rat_str,
)


class TestRatLiterals:
    def test_parse_forms(self):
        assert rat("3/2") == rat(3) / 2
        assert rat("-1") == -1
        assert rat("7") == 7
        assert rat(5) == 5

    def test_round_trip_strings(self):
        for text in ("7", "-1", "3/2", "-5/8", "0"):
            assert rat_str(rat(text)) == text

    def test_lowest_terms(self):
        assert rat_str(rat(6) / 4) == "3/2"

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat(1) / rat(0)


class TestPqParams:
    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            PqParams(2, 2)

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0)])
    def test_rejects_zero(self, p, q):
        with pytest.raises(ValueError):
            PqParams(p, q)

    def test_regime_classification(self):
        assert PqParams(2, 1).regime is Regime.RATIO_LT_ONE
        assert PqParams(1, 2).regime is Regime.RATIO_GT_ONE
        assert PqParams(2, -2).regime is Regime.DEGENERATE
        # negative ratio still classifies by absolute value
        assert PqParams(2, -1).regime is Regime.RATIO_LT_ONE

    def test_swapped(self):
        params = PqParams(rat("3/2"), rat("1/3"))
        assert params.swapped() == PqParams(rat("1/3"), rat("3/2"))

    def test_fields_coerced_to_rat(self):
        params = PqParams("1/2", 2)
        assert type(params.p) is Rat and type(params.q) is Rat
        assert params.p == rat("1/2") and params.q == 2

    @pytest.mark.parametrize("p,q", [(0.5, 2), (2, 0.5)])
    def test_float_rejected(self, p, q):
        with pytest.raises(TypeError):
            PqParams(p, q)

    @pytest.mark.parametrize(
        "p,q,message",
        [
            (2, 2, "p and q must differ (p - q appears in every denominator)"),
            (0, 1, "p and q must be nonzero"),
            (1, 0, "p and q must be nonzero"),
        ],
    )
    def test_error_messages(self, p, q, message):
        with pytest.raises(ValueError) as info:
            PqParams(p, q)
        assert str(info.value) == message

    def test_value_semantics(self):
        params = PqParams(1, "1/2")
        assert PqParams(q=rat("1/2"), p=rat(1)) == params
        assert hash(PqParams("2/2", "2/4")) == hash(params)
        assert repr(params) == f"PqParams(p={rat(1)!r}, q={rat('1/2')!r})"
        with pytest.raises(AttributeError):
            params.p = rat(2)


class TestBracket:
    def test_zero_and_one(self):
        for params in (PqParams(2, 1), PqParams(rat("3/2"), rat("-1/3"))):
            assert bracket(0, params) == 0
            assert bracket(1, params) == 1

    def test_example_values(self):
        assert bracket(3, PqParams(2, 1)) == 7
        # oracle: literal (p^-2 - q^-2)/(p - q) = (1/4 - 4)/(3/2)
        assert bracket(-2, PqParams(2, rat("1/2"))) == rat("-5/2")

    def test_sum_form(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rat(rng.randint(1, 9)) / rng.randint(1, 4)
            q = rat(rng.randint(-9, 9)) / rng.randint(1, 4)
            if q == 0 or p == q:
                continue
            params = PqParams(p, q)
            n = rng.randint(1, 9)
            assert bracket(n, params) == sum(p ** (n - 1 - k) * q**k for k in range(n))

    def test_symmetry_in_p_q(self):
        params = PqParams(rat("5/2"), rat("-1/3"))
        for n in range(-5, 9):
            assert bracket(n, params) == bracket(n, params.swapped())

    def test_q_reduction_at_p_one(self):
        q = rat("2/7")
        params = PqParams(1, q)
        for n in range(1, 8):
            assert bracket(n, params) == (1 - q**n) / (1 - q)

    def test_negative_index_identity(self):
        # [-n] = -[n] / (p q)^n
        params = PqParams(rat("3/2"), rat("2/3"))
        for n in range(1, 6):
            assert bracket(-n, params) == -bracket(n, params) / (params.p * params.q) ** n


class TestBracketAlpha:
    def test_integer_agreement(self):
        params = PqParams(2, 1)
        assert bracket_alpha(2.0, params).close_to(3.0)
        assert bracket_alpha(1.0, params).close_to(1.0)

    def test_half_power(self):
        # (sqrt(4) - sqrt(1)) / (4 - 1) = 1/3
        value = bracket_alpha(0.5, PqParams(4, 1))
        assert math.isclose(value.value, 1 / 3, rel_tol=1e-12)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(NonPositiveBaseError):
            bracket_alpha(0.5, PqParams(-2, 1))

    def test_float_scalar_guards(self):
        with pytest.raises(ValueError, match=r"^FloatScalar must be finite, got nan$"):
            FloatScalar(float("nan"))
        with pytest.raises(ValueError, match=r"^FloatScalar must be finite, got inf$"):
            FloatScalar(float("inf"))
        assert float(FloatScalar(1.5)) == 1.5

    def test_float_scalar_value_semantics(self):
        x = FloatScalar(value=0.25)
        assert x == FloatScalar(0.25) and hash(x) == hash(FloatScalar(0.25))
        assert repr(x) == "FloatScalar(value=0.25)"
        with pytest.raises(AttributeError):
            x.value = 0.5


class TestFactorialAndBinomial:
    def test_factorial_base_cases(self):
        params = PqParams(rat("7/3"), rat("1/5"))
        assert pq_factorial(0, params) == 1
        assert pq_factorial(1, params) == 1

    def test_factorial_example(self):
        assert pq_factorial(4, PqParams(2, 1)) == 315  # 1*3*7*15

    def test_factorial_negative_rejected(self):
        with pytest.raises(NegativeArgumentError):
            pq_factorial(-1, PqParams(2, 1))

    def test_binomial_examples(self):
        assert pq_binomial(5, 0, PqParams(3, 2)) == 1
        assert pq_binomial(4, 2, PqParams(2, 1)) == 35
        params = PqParams(rat("5/3"), rat("1/2"))
        assert pq_binomial(3, 1, params) == bracket(3, params)

    def test_binomial_range_errors(self):
        with pytest.raises(OutOfRangeError):
            pq_binomial(3, -1, PqParams(2, 1))
        with pytest.raises(OutOfRangeError):
            pq_binomial(3, 4, PqParams(2, 1))

    def test_binomial_symmetry(self):
        params = PqParams(rat("3/2"), rat("-2/3"))
        for n in range(8):
            for k in range(n + 1):
                assert pq_binomial(n, k, params) == pq_binomial(n, n - k, params)

    def test_binomial_homogenization(self):
        params = PqParams(rat("5/2"), rat("1/3"))
        scaled = PqParams(1, params.q / params.p)
        for n in range(8):
            for k in range(n + 1):
                lhs = pq_binomial(n, k, params)
                assert lhs == params.p ** (k * (n - k)) * pq_binomial(n, k, scaled)

    def test_degenerate_binomial_rejected(self):
        # [2] = p + q = 0 makes the defining ratio 0/0
        with pytest.raises(DegenerateRegimeError):
            pq_binomial(4, 2, PqParams(2, -2))

    def test_falling_product_matches_factorial_ratio(self):
        params = PqParams(rat("4/3"), rat("1/2"))
        for n in range(8):
            for k in range(n + 1):
                expected = pq_factorial(n, params) / pq_factorial(n - k, params)
                assert bracket_falling(n, k, params) == expected
