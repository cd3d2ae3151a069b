"""The fraction-free exact kernels against naive Fraction reference code.

``pq_power_value``, ``expand_expr``, exact ``eval_poly`` and ``bracket``
carry integer numerators over a common denominator and normalise once per
result.  The references below multiply and add plain ``Fraction`` values
step by step, so they share no arithmetic with the kernels they judge.
"""

import math
import random
from fractions import Fraction

import pytest

from pqcalc.polynomials import Polynomial, eval_poly
from pqcalc.pqpower import Orientation, PqPowerExpr, expand_expr, pq_power_value
from pqcalc.scalars import PqParams, Rat, bracket, rat


def ref_power_value(u, v, n, p, q):
    out = Fraction(1)
    for j in range(n):
        out *= p**j * u - q**j * v
    return out


def ref_poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def ref_expand(a, n, p, q, gamma, orientation):
    out = [Fraction(1)]
    for j in range(n):
        if orientation is Orientation.X_MINUS_A:
            factor = [-(q**j) * a, p**j * gamma]
        else:
            factor = [p**j * a, -(q**j) * gamma]
        out = ref_poly_mul(out, factor)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_eval(coeffs, x):
    return sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))


def ref_bracket(n, p, q):
    return (p**n - q**n) / (p - q)


def two_digit(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 99))


def random_params(rng):
    while True:
        p, q = two_digit(rng), two_digit(rng)
        if p != q and p != 0 and q != 0:
            return p, q


def assert_lowest_rat(value):
    assert type(value) is Rat
    assert value.denominator > 0
    assert math.gcd(value.numerator, value.denominator) == 1


EDGE_PARAMS = [
    (Fraction(2), Fraction(1)),
    (Fraction(-3, 2), Fraction(5, 7)),
    (Fraction(4, 9), Fraction(-11, 3)),
    (Fraction(-2), Fraction(-1, 3)),
    (Fraction(3, 4), Fraction(-3, 4)),  # p = -q
    (Fraction(-5), Fraction(5)),  # p = -q, p negative
]


def param_cases(seed, count):
    rng = random.Random(seed)
    return EDGE_PARAMS + [random_params(rng) for _ in range(count)]


class TestPowerValue:
    @pytest.mark.parametrize("p, q", param_cases(11, 30))
    def test_matches_reference(self, p, q):
        rng = random.Random(f"{p}/{q}")
        params = PqParams(p, q)
        for n in range(0, 9):
            u, v = two_digit(rng), two_digit(rng)
            got = pq_power_value(u, v, n, params)
            assert got == ref_power_value(u, v, n, p, q)
            assert_lowest_rat(got)

    @pytest.mark.parametrize("p, q", EDGE_PARAMS)
    def test_zero_slots_and_empty_product(self, p, q):
        params = PqParams(p, q)
        v = Fraction(7, 3)
        for n in range(0, 7):
            assert pq_power_value(0, v, n, params) == ref_power_value(Fraction(0), v, n, p, q)
            assert pq_power_value(v, 0, n, params) == ref_power_value(v, Fraction(0), n, p, q)
        assert pq_power_value(v, v, 1, params) == 0
        assert pq_power_value(v, v, 0, params) == 1
        assert_lowest_rat(pq_power_value(0, 0, 3, params))

    def test_int_and_string_slots(self):
        params = PqParams(2, rat("1/2"))
        got = pq_power_value(3, "1/5", 4, params)
        assert got == ref_power_value(Fraction(3), Fraction(1, 5), 4, Fraction(2), Fraction(1, 2))
        assert_lowest_rat(got)


class TestExpandExpr:
    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", param_cases(23, 20))
    def test_matches_reference(self, p, q, orientation):
        rng = random.Random(f"{p}/{q}/{orientation.value}")
        params = PqParams(p, q)
        for n in range(0, 9):
            a, gamma = two_digit(rng), two_digit(rng)
            got = expand_expr(PqPowerExpr(a, n, params, gamma=gamma, orientation=orientation))
            assert got.coeffs == ref_expand(a, n, p, q, gamma, orientation)
            for c in got.coeffs:
                assert_lowest_rat(c)

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", EDGE_PARAMS)
    def test_zero_a_zero_gamma_zero_n(self, p, q, orientation):
        params = PqParams(p, q)
        for a, gamma in [(0, Fraction(5, 3)), (Fraction(-2, 7), 0), (0, 0)]:
            for n in range(0, 6):
                e = PqPowerExpr(a, n, params, gamma=gamma, orientation=orientation)
                ref = ref_expand(Fraction(a), n, p, q, Fraction(gamma), orientation)
                assert expand_expr(e).coeffs == ref
        e0 = PqPowerExpr(Fraction(3, 5), 0, params, orientation=orientation)
        assert expand_expr(e0) == Polynomial([1])


class TestExactHorner:
    def test_matches_reference(self):
        rng = random.Random(37)
        for _ in range(200):
            coeffs = [two_digit(rng) for _ in range(rng.randint(0, 16))]
            f = Polynomial(coeffs)
            for x in (two_digit(rng), Fraction(0), rng.randint(-9, 9)):
                got = eval_poly(f, x)
                assert got == ref_eval(f.coeffs, Fraction(x))
                assert_lowest_rat(got)

    def test_zero_polynomial_and_zero_x(self):
        assert eval_poly(Polynomial.zero(), Fraction(3, 4)) == 0
        assert_lowest_rat(eval_poly(Polynomial.zero(), 5))
        f = Polynomial(["-3/7", "1/2", "5"])
        assert eval_poly(f, 0) == Fraction(-3, 7)
        assert eval_poly(f, "0") == Fraction(-3, 7)

    def test_expanded_power_evaluates_like_the_product(self):
        params = PqParams(rat("-3/2"), rat("5/7"))
        for orientation in Orientation:
            e = PqPowerExpr(rat("2/3"), 6, params, gamma=rat("-4/5"), orientation=orientation)
            f = expand_expr(e)
            for x in (rat("1/3"), rat("-9/4"), rat(0)):
                gx = e.gamma * x
                if orientation is Orientation.X_MINUS_A:
                    ref = ref_power_value(gx, e.a, 6, params.p, params.q)
                else:
                    ref = ref_power_value(e.a, gx, 6, params.p, params.q)
                assert eval_poly(f, x) == ref

    def test_float_branch_stays_float(self):
        f = Polynomial(["1/2", "3"])
        assert eval_poly(f, 0.25) == 0.5 + 3 * 0.25


class TestBracket:
    @pytest.mark.parametrize("p, q", param_cases(41, 30))
    def test_matches_reference(self, p, q):
        params = PqParams(p, q)
        for n in range(-6, 21):
            got = bracket(n, params)
            assert got == ref_bracket(n, p, q)
            assert_lowest_rat(got)


class TestRat:
    def test_returns_rat_unchanged(self):
        value = Rat(6, 4)
        assert rat(value) is value

    def test_coerces_ints_and_literals(self):
        for raw, expected in [(3, Fraction(3)), ("-7", Fraction(-7)), ("6/4", Fraction(3, 2))]:
            got = rat(raw)
            assert got == expected
            assert_lowest_rat(got)

    @pytest.mark.parametrize("value", [0.1, 2.0, -0.0, float("inf")])
    def test_float_rejected(self, value):
        with pytest.raises(TypeError):
            rat(value)
