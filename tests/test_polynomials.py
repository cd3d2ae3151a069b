"""Polynomial arithmetic and both (p,q)-derivative paths."""

import math

import pytest

from pqcalc.errors import MissingDerivativeAtZeroError
from pqcalc.polynomials import (
    NumericFn,
    Polynomial,
    eval_poly,
    pq_derive_fn,
    pq_derive_poly,
    pq_derive_poly_k,
    pq_difference_quotient,
)
from pqcalc.scalars import PqParams, Rat, bracket, rat


class TestPolynomialBasics:
    def test_trailing_zeros_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == Polynomial([1, 2]).coeffs
        assert Polynomial([0, 0]).is_zero()

    def test_zero_coefficients_of_either_type_are_trimmed(self):
        assert Polynomial([Rat(0), 0, Rat(0, 5)]).is_zero()
        assert Polynomial([Rat(1, 2), Rat(0), 0]).coeffs == (Rat(1, 2),)

    def test_rat_coefficients_are_kept_and_others_coerced(self):
        half = Rat(1, 2)
        f = Polynomial([half, 3, "-2/4"])
        assert f.coeffs[0] is half
        assert f.coeffs == (half, Rat(3), Rat(-1, 2)) and all(type(c) is Rat for c in f.coeffs)
        with pytest.raises(TypeError, match="refusing to coerce float"):
            Polynomial([half, 0.5])

    def test_degree(self):
        assert Polynomial([3, 0, 5]).degree == 2
        assert Polynomial([]).degree == float("-inf")

    def test_parse_and_format(self):
        f = Polynomial.from_string("0, 0, 1")
        assert f == Polynomial.monomial(2)
        assert f.to_string() == "0,0,1"
        assert Polynomial.zero().to_string() == "0"
        assert Polynomial.from_string("3/2,-1").to_string() == "3/2,-1"

    @pytest.mark.parametrize("bad", ["x", "1/0", ""])
    def test_from_string_names_the_bad_coefficient(self, bad):
        with pytest.raises(ValueError) as exc:
            Polynomial.from_string(f"0, 1,{bad}", "f")
        assert str(exc.value) == f"coefficient 2 of f must be a rational such as 3/2, got {bad!r}"
        with pytest.raises(ValueError, match="^coefficient 0 of poly must be"):
            Polynomial.from_string(bad)
        assert Polynomial.from_string("0, 0, 1", "f") == Polynomial.monomial(2)

    def test_arithmetic(self):
        f = Polynomial([1, 1])
        g = Polynomial([-1, 1])
        assert f * g == Polynomial([-1, 0, 1])
        assert f + g == Polynomial([0, 2])
        assert f - f == Polynomial.zero()
        assert 3 * f == Polynomial([3, 3])
        assert Polynomial([1]) != (rat(1),)  # a tuple of the same coefficients is no polynomial

    def test_eval_exact_and_float(self):
        f = Polynomial([1, 0, 1])  # x^2 + 1
        assert eval_poly(f, rat("3/2")) == rat("13/4")
        assert eval_poly(f, 0.5) == pytest.approx(1.25)
        assert eval_poly(Polynomial.zero(), rat("9/7")) == 0
        x0 = rat("22/7")
        assert eval_poly(Polynomial.monomial(1), x0) == x0

    def test_immutability(self):
        f = Polynomial([1, 2])
        with pytest.raises(AttributeError):
            f.coeffs = ()


class TestNumericFnValue:
    def test_default_and_call(self):
        f = NumericFn(abs)
        assert f.deriv_at_zero is None
        assert f(-2.5) == 2.5
        assert NumericFn(fn=abs, deriv_at_zero=None) == f
        assert repr(f) == f"NumericFn(fn={abs!r}, deriv_at_zero=None, components=0)"

    def test_polynomial_counts_its_components(self):
        # d + 1 for degree d; the zero polynomial floats to the constant 0.0
        for coeffs, count in (([], 1), ([5], 1), ([4, 7, -2], 3), ([0, 0, 0, rat("1/3")], 4)):
            assert NumericFn.from_polynomial(Polynomial(coeffs)).components == count

    def test_immutability(self):
        f = NumericFn(abs, 1.0)
        with pytest.raises(AttributeError):
            f.deriv_at_zero = 2.0


class TestExactDerivative:
    def test_constant_goes_to_zero(self):
        assert pq_derive_poly(Polynomial([rat("5/3")]), PqParams(3, 2)).is_zero()

    def test_square_example(self):
        # D x^2 = [2] x with [2]_{2,1} = 3
        assert pq_derive_poly(Polynomial.monomial(2), PqParams(2, 1)) == Polynomial([0, 3])

    def test_cubic_example(self):
        # D (x^3 + 2x) = [3] x^2 + 2 with [3]_{3,2} = 19
        f = Polynomial([0, 2, 0, 1])
        assert pq_derive_poly(f, PqParams(3, 2)) == Polynomial([2, 0, 19])

    def test_monomial_rule(self):
        params = PqParams(rat("5/2"), rat("-1/3"))
        for n in range(1, 9):
            derived = pq_derive_poly(Polynomial.monomial(n), params)
            assert derived == Polynomial.monomial(n - 1, bracket(n, params))

    def test_k_fold(self):
        params = PqParams(rat("4/3"), rat("1/2"))
        f = Polynomial([1, -2, 0, 5, 1])
        assert pq_derive_poly_k(f, 0, params) == f
        step = pq_derive_poly(pq_derive_poly(f, params), params)
        assert pq_derive_poly_k(f, 2, params) == step
        assert pq_derive_poly_k(f, len(f.coeffs), params).is_zero()
        # cube collapses to [3]! after three derivatives
        cube = Polynomial.monomial(3)
        result = pq_derive_poly_k(cube, 3, params)
        fact3 = bracket(1, params) * bracket(2, params) * bracket(3, params)
        assert result == Polynomial([fact3])

    def test_k_negative_rejected(self):
        with pytest.raises(ValueError):
            pq_derive_poly_k(Polynomial([1]), -1, PqParams(2, 1))

    def test_exact_quotient_agrees_with_poly_path(self):
        params = PqParams(rat("7/4"), rat("2/3"))
        f = Polynomial([1, -3, 0, 2])
        x = rat("5/6")
        direct = pq_difference_quotient(lambda t: eval_poly(f, t), x, params)
        assert direct == eval_poly(pq_derive_poly(f, params), x)

    def test_quotient_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            pq_difference_quotient(lambda t: t, 0, PqParams(2, 1))


class TestNumericDerivative:
    def test_square_at_one(self):
        f = NumericFn(lambda x: x * x)
        assert pq_derive_fn(f, 1.0, PqParams(2, 1)) == pytest.approx(3.0)

    def test_constant(self):
        f = NumericFn(lambda x: 4.25)
        assert pq_derive_fn(f, 0.7, PqParams(2, 1)) == 0.0

    def test_log_closed_form(self):
        # (ln p - ln q) / ((p - q) x) at p=2, q=1/2, x=2 is ln(4)/3
        params = PqParams(2, rat("1/2"))
        value = pq_derive_fn(NumericFn(math.log), 2.0, params)
        assert value == pytest.approx(math.log(4.0) / 3.0, rel=1e-12)

    def test_agrees_with_exact_path(self):
        params = PqParams(rat("5/3"), rat("1/4"))
        poly = Polynomial([2, -1, 0, rat("1/3"), 5])
        f = NumericFn.from_polynomial(poly)
        derived = pq_derive_poly(poly, params)
        for x in (0.35, 1.0, -2.25, 7.5):
            assert pq_derive_fn(f, x, params) == pytest.approx(
                eval_poly(derived, x), rel=1e-12
            )

    def test_supplied_derivative_at_zero(self):
        f = NumericFn(lambda x: x * x, deriv_at_zero=0.0)
        assert pq_derive_fn(f, 0.0, PqParams(3, 1)) == 0.0
        g = NumericFn.from_polynomial(Polynomial([4, 7, -2]))
        assert pq_derive_fn(g, 0.0, PqParams(3, 1)) == 7.0

    def test_fallback_probe_settles(self):
        params = PqParams(2, rat("1/3"))
        f = NumericFn(math.sin)  # derivative 1 at the origin
        assert pq_derive_fn(f, 0.0, params) == pytest.approx(1.0, abs=1e-7)
        g = NumericFn(lambda x: x * x)  # derivative 0 at the origin
        assert pq_derive_fn(g, 0.0, params) == pytest.approx(0.0, abs=1e-9)

    def test_fallback_probe_fails_for_sqrt(self):
        f = NumericFn(lambda x: math.sqrt(abs(x)))
        with pytest.raises(MissingDerivativeAtZeroError):
            pq_derive_fn(f, 0.0, PqParams(2, 1))
