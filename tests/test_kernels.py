"""The fraction-free exact kernels against naive Fraction reference code.

``pq_power_value``, ``eval_pq_power`` (every integer n), ``expand_expr``,
exact ``eval_poly``, polynomial ``scale``, ``pq_derive_poly``,
``antiderive_poly``, ``bracket`` and the Taylor layer (the expansion
formulas, ``PowerBasisExpansion.to_polynomial`` and the connection
coefficients) carry integer numerators over a common denominator and
normalise once per result.  The references below multiply and add plain
``Fraction`` values step by step, so they share no arithmetic with the
kernels they judge.
"""

import ast
import math
import random
import struct
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from pqcalc.errors import DegenerateRegimeError, PoleError
from pqcalc import polynomials, pqpower
from pqcalc.integration import antiderive_poly
from pqcalc.polynomials import NumericFn, Polynomial, eval_poly, pq_derive_poly
from pqcalc.pqpower import (
    Orientation,
    PqPowerExpr,
    derive_pq_power,
    derive_pq_power_iterated,
    eval_pq_power,
    expand_expr,
    pq_power_value,
)
from pqcalc.scalars import PqParams, Rat, bracket, rat, rat_from_ints
from pqcalc.taylor import (
    PowerBasisExpansion,
    connect_monomial,
    connect_power_to_power,
    taylor_expand,
    taylor_expand_reversed,
)


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


def ref_factorial(n, p, q):
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= ref_bracket(k, p, q)
    return out


def ref_binomial(n, k, p, q):
    return ref_factorial(n, p, q) / (ref_factorial(k, p, q) * ref_factorial(n - k, p, q))


def ref_poly_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return out


def ref_poly_scale(f, c):
    return [c * a for a in f]


def ref_derive(f, p, q):
    return [ref_bracket(n, p, q) * c for n, c in enumerate(f) if n]


def trimmed(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_reconstruct(coeffs, a, p, q, orientation):
    """The O(N^3) way: expand every basis element, scale it and add."""
    out = []
    for k, c in enumerate(coeffs):
        out = ref_poly_add(out, [c * b for b in ref_expand(a, k, p, q, Fraction(1), orientation)])
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_taylor(coeffs, a, p, q, orientation):
    """c_k = sign^k base^-C(k,2) (D^k f)(a base^-k) / [k]!, one Fraction step at a time."""
    base, sign = (p, 1) if orientation is Orientation.X_MINUS_A else (q, -1)
    out, derivative = [], list(coeffs)
    for k in range(len(coeffs)):
        if k:
            derivative = [ref_bracket(i, p, q) * c for i, c in enumerate(derivative) if i]
        value = ref_eval(derivative, a * base**-k)
        out.append(sign**k * base ** -(k * (k - 1) // 2) * value / ref_factorial(k, p, q))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


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


def huge_rat(rng):
    """A rational with a 400-digit denominator and a numerator of up to 400 digits."""
    den = rng.randrange(10**399, 10**400)
    return Fraction(rng.randrange(-(10**400), 10**400) // 10 ** rng.randint(0, 5), den)


def assert_canonical(f):
    """Lowest-terms Rat coefficients and no trailing zero."""
    assert not f.coeffs or f.coeffs[-1] != 0
    for c in f.coeffs:
        assert_lowest_rat(c)


def kernel_pairs():
    """Two-digit operands of degree -inf..12, then ones with 400-digit denominators."""
    rng = random.Random(61)
    for _ in range(300):
        yield (Polynomial([two_digit(rng) for _ in range(rng.randint(0, 13))]),
               Polynomial([two_digit(rng) for _ in range(rng.randint(0, 13))]))
    for _ in range(30):
        yield (Polynomial([huge_rat(rng) for _ in range(rng.randint(1, 7))]),
               Polynomial([huge_rat(rng) for _ in range(rng.randint(1, 7))]))


class TestPolynomialKernels:
    """+, -, *, scale and pq_derive_poly against the naive Fraction references."""

    def test_mul_add_sub_match_reference(self):
        for f, g in kernel_pairs():
            a, b = f.coeffs, g.coeffs
            product = f * g
            assert product.coeffs == (trimmed(ref_poly_mul(a, b)) if a and b else ())
            assert (f + g).coeffs == trimmed(ref_poly_add(a, b))
            assert (f - g).coeffs == trimmed(ref_poly_add(a, [-c for c in b]))
            for h in (product, f + g, f - g):
                assert_canonical(h)

    def test_zero_operands(self):
        zero = Polynomial.zero()
        for f, _ in islice(kernel_pairs(), 0, None, 11):
            assert (f * zero).is_zero() and (zero * f).is_zero()
            assert f + zero == f == zero + f
            assert f - zero == f
            assert (zero - f).coeffs == tuple(-c for c in f.coeffs)
            assert (f - f).is_zero() and (f + (-f)).is_zero()
        assert (zero * zero).is_zero() and (zero + zero).is_zero()

    def test_sums_that_lose_their_leading_terms(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(0, 5)  # at n = 0 every sum cancels to the zero polynomial
            top = [two_digit(rng) or Fraction(1) for _ in range(rng.randint(1, 4))]
            f = Polynomial([two_digit(rng) for _ in range(n)] + top)
            g = Polynomial([two_digit(rng) for _ in range(n)] + [-c for c in top])
            h = Polynomial([two_digit(rng) for _ in range(n)] + top)
            for got, ref in ((f + g, ref_poly_add(f.coeffs, g.coeffs)),
                             (f - h, ref_poly_add(f.coeffs, [-c for c in h.coeffs]))):
                assert got.coeffs == trimmed(ref)
                assert got.degree < n
                assert_canonical(got)

    def test_scale_by_every_exact_kind(self):
        for f, _ in kernel_pairs():
            for c in (0, 3, -1, "-7/4", Fraction(5, 6), f.coeffs[-1] if f.coeffs else Fraction(2)):
                got = f.scale(c)
                assert got.coeffs == trimmed(ref_poly_scale(f.coeffs, Fraction(c)))
                assert_canonical(got)
                assert c * f == got == f * c
        assert Polynomial(["1/2", "3"]).scale(0).is_zero()
        with pytest.raises(TypeError):
            Polynomial(["1/2", "3"]).scale(0.5)
        with pytest.raises(TypeError):
            Polynomial(["1/2", "3"]) * 0.5

    @pytest.mark.parametrize("p, q", param_cases(71, 12))
    def test_derive_matches_reference(self, p, q):
        params = PqParams(p, q)
        for f, g in islice(kernel_pairs(), 0, None, 7):
            for h in (f, g):
                got = pq_derive_poly(h, params)
                assert got.coeffs == trimmed(ref_derive(h.coeffs, p, q))
                assert_canonical(got)

    def test_derive_at_p_equal_minus_q(self):
        # [n] = 0 for even n there, so x^2 differentiates to 0 and x^4 + x^3 to [3] x^2
        for p in (Fraction(3, 4), Fraction(-5)):
            params = PqParams(p, -p)
            assert pq_derive_poly(Polynomial.monomial(2, "7/3"), params).is_zero()
            got = pq_derive_poly(Polynomial([0, 0, 0, 1, 1]), params)
            assert got == Polynomial([0, 0, p**2])
            assert_canonical(got)

    def test_derive_of_constants_and_zero(self):
        params = PqParams(-2, Fraction(1, 3))
        assert pq_derive_poly(Polynomial.zero(), params).is_zero()
        assert pq_derive_poly(Polynomial(["-9/4"]), params).is_zero()
        assert pq_derive_poly(Polynomial([5, "2/7"]), params) == Polynomial(["2/7"])

    @pytest.mark.parametrize(
        "p, q", [(Fraction(-2), Fraction(1, 3)), (Fraction(-3, 2), Fraction(5, 7)), (Fraction(4, 9), Fraction(-11, 3))]
    )
    def test_antiderive_is_division_by_the_bracket(self, p, q):
        # [2] = p + q < 0 at each pair, so rat_from_ints fixes the sign of a negative bracket
        params = PqParams(p, q)
        assert bracket(2, params) < 0
        cases = list(islice(kernel_pairs(), 0, None, 5))
        assert sum(len(str(f.coeffs[-1].denominator)) == 400 for f, _ in cases if f.coeffs) >= 5
        for f, g in cases:
            for h in (f, g):
                got = antiderive_poly(h, params, "-5/3")
                want = [Fraction(-5, 3)] + [c / bracket(n + 1, params) for n, c in enumerate(h.coeffs)]
                assert got.coeffs == tuple(want)
                assert_canonical(got)

    def test_trailing_zeros_strip_alike(self):
        # an int, a string and a Rat zero all strip, to one coeffs tuple of Rats
        want = (Fraction(1, 2), Fraction(0), Fraction(-3))
        for zero in (0, "0", "-0/5", Fraction(0), rat_from_ints(0, -7)):
            for head in (["1/2", 0, -3], [Fraction(1, 2), "0", Fraction(-3)], [Fraction(1, 2), Fraction(0), "-3"]):
                got = Polynomial(head + [zero, 0, "0", Fraction(0)])
                assert got.coeffs == want
                assert_canonical(got)
            assert Polynomial([zero, zero]).coeffs == ()


def ref_float_horner(coeffs, x):
    """Horner with float(c), started from the leading coefficient; 0.0 for the zero polynomial."""
    if not coeffs:
        return 0.0
    acc = float(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * x + float(c)
    return acc


def bits(x):
    return struct.pack("<d", x)


FLOAT_POINTS = (0.0, -0.0, -3.5, 1e300, math.inf, math.nan)


def float_horner_cases():
    """Two-digit polynomials, then ones whose coefficients have 400-digit numerators and denominators."""
    rng = random.Random(53)
    for _ in range(150):
        yield Polynomial([two_digit(rng) for _ in range(rng.randint(0, 12))])
    for _ in range(60):
        coeffs = []
        for _ in range(rng.randint(1, 9)):
            den = rng.randrange(10**399, 10**400)
            num = rng.randrange(-(10**400), 10**400) // 10 ** rng.randint(0, 5)
            coeffs.append(Fraction(num * 10 ** rng.randint(0, 5), den))
        yield Polynomial(coeffs)


def wide_degree_cases():
    """Two-digit polynomials of every degree 0-40 in random order, then one of degree 320.

    They cross the evaluator's statement boundaries every 16 steps, and the last one
    lies past the 200 nested parentheses that CPython's parser accepts in one expression.
    """
    rng = random.Random(59)
    for degree in rng.sample(range(41), 41):
        yield Polynomial([two_digit(rng) for _ in range(degree)] + [two_digit(rng) or Fraction(1)])
    yield Polynomial([two_digit(rng) for _ in range(320)] + [Fraction(-1, 3)])


class TestFloatHorner:
    """The float branch of eval_poly converts with rat_float, bit for bit float(c)."""

    def test_matches_reference_bit_for_bit(self):
        checked = 0
        for f in float_horner_cases():
            for x in FLOAT_POINTS:
                assert bits(eval_poly(f, x)) == bits(ref_float_horner(f.coeffs, x)), (f, x)
                assert bits(f(x)) == bits(ref_float_horner(f.coeffs, x))
                checked += 1
        assert checked == 210 * len(FLOAT_POINTS)

    def test_huge_coefficients_fit_a_double(self):
        f = list(float_horner_cases())[-1]
        assert all(len(str(c.denominator)) >= 390 and math.isfinite(float(c)) for c in f.coeffs)

    @pytest.mark.parametrize("cases", [float_horner_cases, wide_degree_cases])
    def test_numeric_fn_is_eval_poly_bit_for_bit(self, cases):
        degrees = set()
        for f in cases():
            g = NumericFn.from_polynomial(f)
            for x in FLOAT_POINTS + (0.7, -1e-300, -1.03, 1.0, -1.0, 0.5, -0.37, 2.75, -13.5, 1e-9, 3e5):
                want = bits(ref_float_horner(f.coeffs, x))
                assert bits(g.fn(x)) == want == bits(eval_poly(f, x)), (f, x)
            assert g.deriv_at_zero == (float(f.coeffs[1]) if len(f.coeffs) > 1 else 0.0)
            degrees.add(len(f.coeffs) - 1)
        if cases is wide_degree_cases:
            assert degrees == set(range(41)) | {320}

    def test_one_maker_per_degree(self):
        f, g = Polynomial(["1/3", "-2", "5/7"]), Polynomial(["7", "0", "-1/9"])
        assert NumericFn.from_polynomial(f).fn is not NumericFn.from_polynomial(g).fn
        assert polynomials._horner_maker(2) is polynomials._horner_maker(2)
        assert polynomials._horner_maker(2) is not polynomials._horner_maker(3)

    def test_conversions_per_evaluation(self, monkeypatch):
        calls = []
        real = polynomials.rat_float
        monkeypatch.setattr(polynomials, "rat_float", lambda c: calls.append(c) or real(c))
        f = Polynomial(["1/3", "-2", "5/7", "1/9"])
        assert eval_poly(f, rat("1/2")) == Fraction(1, 3) - 1 + Fraction(5, 28) + Fraction(1, 72)
        assert calls == []  # building and exact evaluation convert nothing
        eval_poly(f, 0.5)
        assert calls == list(reversed(f.coeffs))  # each coefficient once, highest first
        eval_poly(f, -3.5)
        assert len(calls) == 2 * len(f.coeffs)
        g = NumericFn.from_polynomial(f)
        assert len(calls) == 3 * len(f.coeffs)
        g(0.25), g(0.5)
        assert len(calls) == 3 * len(f.coeffs)  # the evaluator converted once, when built

    def test_float_evaluation_keeps_no_state(self):
        f, g = Polynomial(["1/3", "-2", "5/7"]), Polynomial(["1/3", "-2", "5/7"])
        eval_poly(f, 0.5)
        NumericFn.from_polynomial(f)
        assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
        assert f.coeffs == g.coeffs and repr(f) == repr(g)
        assert Polynomial.__slots__ == ("coeffs",) and not hasattr(f, "__dict__")
        with pytest.raises(AttributeError, match="immutable"):
            f.coeffs = (Fraction(1),)
        assert bits(eval_poly(f, 0.5)) == bits(ref_float_horner(f.coeffs, 0.5))

    def test_polynomials_are_finite_or_infinite_at_infinity(self):
        # Horner starts from the leading coefficient, so no 0.0 * inf turns into NaN
        for coeffs, at_inf, at_minus_inf in (([5], 5.0, 5.0), ([0, 0, 1], math.inf, math.inf),
                                             ([1, 2, 3], math.inf, math.inf), ([0, -1], -math.inf, math.inf)):
            f = Polynomial(coeffs)
            g = NumericFn.from_polynomial(f)
            assert eval_poly(f, math.inf) == at_inf == g.fn(math.inf)
            assert eval_poly(f, -math.inf) == at_minus_inf == g.fn(-math.inf)
        zero = Polynomial.zero()
        for x in (math.inf, -math.inf, math.nan, 2.5):
            assert bits(eval_poly(zero, x)) == bits(0.0) == bits(NumericFn.from_polynomial(zero).fn(x))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("degree", [1, 2, 17, 301])
    def test_underflowing_leading_coefficient_reads_the_limit(self, degree, sign):
        # the leading double is 0.0, so plain Horner would start from 0.0 * inf = nan
        f = Polynomial(([1, -3] * 151)[:degree] + [sign * Fraction(1, 10**400)])
        assert f.degree == degree
        g = NumericFn.from_polynomial(f)
        at_minus_inf = sign * math.inf * (-1) ** degree
        assert eval_poly(f, math.inf) == sign * math.inf == g.fn(math.inf)
        assert eval_poly(f, -math.inf) == at_minus_inf == g.fn(-math.inf)
        assert bits(g.fn(2.0)) == bits(eval_poly(f, 2.0)) == bits(ref_float_horner(f.coeffs, 2.0))
        assert math.isnan(g.fn(math.nan))

    def test_overflowing_coefficient_raises_as_float_does(self):
        f = Polynomial([1, Fraction(10**400, 3)])
        with pytest.raises(OverflowError):
            float(f.coeffs[1])
        for _ in range(2):
            with pytest.raises(OverflowError):
                eval_poly(f, 0.5)


class TestBracket:
    @pytest.mark.parametrize("p, q", param_cases(41, 30))
    def test_matches_reference(self, p, q):
        params = PqParams(p, q)
        for n in range(-6, 21):
            got = bracket(n, params)
            assert got == ref_bracket(n, p, q)
            assert_lowest_rat(got)


class TestNegativePower:
    """eval_pq_power against the inverted scaled product, poles included."""

    @staticmethod
    def reference(a, m, p, q, gamma, x, orientation):
        # (x (-) a)^-m = 1 / (p^-m gx (-) q^-m a)^m, reversed 1 / (p^-m a (-) q^-m gx)^m
        if orientation is Orientation.X_MINUS_A:
            return ref_power_value(p**-m * gamma * x, q**-m * a, m, p, q)
        return ref_power_value(p**-m * a, q**-m * gamma * x, m, p, q)

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", param_cases(53, 20))
    def test_matches_reference(self, p, q, orientation):
        rng = random.Random(f"{p}/{q}/{orientation.value}/neg")
        params = PqParams(p, q)
        poles = 0
        for m in range(1, 6):
            a, gamma = two_digit(rng), two_digit(rng)
            if gamma == 0:
                gamma = Fraction(1)
            # the zeros of factor j, plus three ordinary points
            r = p / q if orientation is Orientation.X_MINUS_A else q / p
            points = [r ** (m - j) * a / gamma for j in range(m)] + [two_digit(rng) for _ in range(3)]
            e = PqPowerExpr(a, -m, params, gamma=gamma, orientation=orientation)
            for x in points:
                denom = self.reference(a, m, p, q, gamma, x, orientation)
                if denom == 0:
                    poles += 1
                    with pytest.raises(PoleError):
                        eval_pq_power(e, x)
                    continue
                got = eval_pq_power(e, x)
                assert got == 1 / denom
                assert_lowest_rat(got)
        assert poles >= 5

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", EDGE_PARAMS)
    def test_every_n_and_zero_slots(self, p, q, orientation):
        params = PqParams(p, q)
        for a, gamma, x in [(0, Fraction(5, 3), Fraction(2, 7)), (Fraction(-2, 7), 0, 3), (0, 1, 0)]:
            for n in range(-5, 7):
                e = PqPowerExpr(a, n, params, gamma=gamma, orientation=orientation)
                if n >= 0:
                    gx = Fraction(gamma) * x
                    first, second = (gx, a) if orientation is Orientation.X_MINUS_A else (a, gx)
                    assert eval_pq_power(e, x) == ref_power_value(first, Fraction(second), n, p, q)
                    continue
                denom = self.reference(Fraction(a), -n, p, q, Fraction(gamma), Fraction(x), orientation)
                if denom == 0:
                    with pytest.raises(PoleError):
                        eval_pq_power(e, x)
                else:
                    assert eval_pq_power(e, x) == 1 / denom


class TestOnePowerPass:
    """eval_pq_power and pq_power_value each make one call of ``pqpower._power_rat``, the one power product."""

    PARAMS = PqParams("3/2", "-1/3")
    CALLS = {
        "eval n > 0": lambda p: eval_pq_power(PqPowerExpr("2/3", 4, p, "-1/2"), "5/7"),
        "eval n < 0 reversed": lambda p: eval_pq_power(PqPowerExpr("2/3", -3, p, orientation=Orientation.A_MINUS_X), 2),
        "eval n = 0": lambda p: eval_pq_power(PqPowerExpr(0, 0, p, 0), 0),
        "value": lambda p: pq_power_value("1/2", 3, 6, p),
        "value n = 0": lambda p: pq_power_value(0, 0, 0, p),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_one_helper_call(self, monkeypatch, call):
        calls, real = [], pqpower._power_rat
        monkeypatch.setattr(pqpower, "_power_rat", lambda *args: calls.append(args) or real(*args))
        want = self.CALLS[call](self.PARAMS)
        assert len(calls) == 1
        monkeypatch.undo()
        assert self.CALLS[call](self.PARAMS) == want

    def test_a_pole_is_one_helper_call(self, monkeypatch):
        calls, real = [], pqpower._power_rat
        monkeypatch.setattr(pqpower, "_power_rat", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(PoleError):
            eval_pq_power(PqPowerExpr(1, -1, PqParams(2, 1)), 2)
        assert len(calls) == 1

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", EDGE_PARAMS)
    def test_every_n_against_the_product(self, p, q, orientation):
        params, poles = PqParams(p, q), 0
        slots = [
            (0, Fraction(5, 3), Fraction(2, 7)),
            (Fraction(-2, 7), 0, Fraction(3)),
            (Fraction(4, 9), Fraction(-3, 2), 0),
            (0, 0, 0),
            (Fraction(1, 2), Fraction(3), Fraction(-5, 6)),
        ]
        for a, gamma, x in slots:
            gx = gamma * x
            first, second = (gx, a) if orientation is Orientation.X_MINUS_A else (a, gx)
            for n in range(-6, 7):
                e = PqPowerExpr(a, n, params, gamma, orientation)
                if n >= 0:
                    want = ref_power_value(first, second, n, p, q)
                    for got in (eval_pq_power(e, x), pq_power_value(first, second, n, params)):
                        assert got == want
                        assert_lowest_rat(got)
                    continue
                denom = ref_power_value(p**n * first, q**n * second, -n, p, q)
                if denom == 0:
                    poles += 1
                    with pytest.raises(PoleError):
                        eval_pq_power(e, x)
                    continue
                got = eval_pq_power(e, x)
                assert got == 1 / denom
                assert_lowest_rat(got)
        assert poles >= 6  # every n < 0 at the all-zero slots


class TestPowerBasisEntryPoints:
    """eval_pq_power, expand_expr and the derivatives of a PqPowerExpr against plain Fraction steps.

    The kernels read the integers of a, gamma, x and (P, Q, S) once per call;
    these references form every product and quotient as a Fraction.
    """

    PARAMS = [(Fraction(3, 2), Fraction(-1, 3)), (Fraction(2), Fraction(1, 2)), (Fraction(-5, 4), Fraction(7, 3))]
    SHIFTS = [Fraction(4, 3), Fraction(-1, 2)]
    GAMMAS = [Fraction(-3, 2), Fraction(5, 7), 2]
    POINTS = [Fraction(-7, 3), Fraction(2, 5), 3, -2, "5/4", "-1/6", 0]  # Rat, int and str

    @staticmethod
    def quotient(a, n, p, q, gamma, x, orientation):
        """The value as (num, den): (first (-) second)^n over 1, or 1 over (p^n first (-) q^n second)^-n for n < 0."""
        gx = gamma * x
        first, second = (gx, a) if orientation is Orientation.X_MINUS_A else (a, gx)
        if n >= 0:
            return ref_power_value(first, second, n, p, q), 1
        return 1, ref_power_value(p**n * first, q**n * second, -n, p, q)

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", PARAMS)
    def test_eval_and_expand_match_reference(self, p, q, orientation):
        params, poles = PqParams(p, q), 0
        for a in self.SHIFTS:
            for gamma in self.GAMMAS:
                for n in range(-4, 7):
                    e = PqPowerExpr(a, n, params, gamma=gamma, orientation=orientation)
                    if n >= 0:
                        expanded = ref_expand(a, n, p, q, Fraction(gamma), orientation)
                        got = expand_expr(e)
                        assert got.coeffs == expanded
                        for c in got.coeffs:
                            assert_lowest_rat(c)
                    # the last factor of every n < 0 vanishes at gamma x = (p/q)^{+-1} a
                    pole = (p / q if orientation is Orientation.X_MINUS_A else q / p) * a / gamma
                    for x in self.POINTS + [pole]:
                        num, den = self.quotient(a, n, p, q, Fraction(gamma), Fraction(x), orientation)
                        if den == 0:
                            poles += 1
                            with pytest.raises(PoleError):
                                eval_pq_power(e, x)
                            continue
                        got = eval_pq_power(e, x)
                        assert got == num / den
                        assert_lowest_rat(got)
                        if n >= 0:
                            assert got == ref_eval(expanded, Fraction(x))
        assert poles == len(self.SHIFTS) * len(self.GAMMAS) * 4  # one per n in [-4, -1]

    @pytest.mark.parametrize(
        "e, x, message",
        [
            (PqPowerExpr(1, -1, PqParams(2, 1)), 2, "pqpow(a=1, n=-1, gamma=1) vanishes at x = 2"),
            (PqPowerExpr(1, -1, PqParams(2, 1)), Fraction(2), "pqpow(a=1, n=-1, gamma=1) vanishes at x = 2"),
            (
                PqPowerExpr("3/2", -2, PqParams(2, 1), "-1/2", Orientation.A_MINUS_X),
                "-3/4",
                "pqpowrev(a=3/2, n=-2, gamma=-1/2) vanishes at x = -3/4",
            ),
            (
                PqPowerExpr("3/2", -2, PqParams(2, 1), "-1/2", Orientation.A_MINUS_X),
                Fraction(-3, 2),
                "pqpowrev(a=3/2, n=-2, gamma=-1/2) vanishes at x = -3/2",
            ),
        ],
    )
    def test_pole_message(self, e, x, message):
        with pytest.raises(PoleError) as info:
            eval_pq_power(e, x)
        assert str(info.value) == f"denominator of {message}"

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", PARAMS + EDGE_PARAMS)
    def test_derivatives_match_reference(self, p, q, orientation):
        params = PqParams(p, q)
        base, sign = (p, 1) if orientation is Orientation.X_MINUS_A else (q, -1)
        for a in self.SHIFTS:
            for gamma in map(Fraction, self.GAMMAS):
                for n in range(-4, 7):
                    e = PqPowerExpr(a, n, params, gamma=gamma, orientation=orientation)
                    coeff, residual = derive_pq_power(e)
                    assert coeff == sign * gamma * ref_bracket(n, p, q)
                    assert residual == PqPowerExpr(a, n - 1, params, gamma * base, orientation)
                    assert_lowest_rat(coeff)
                    assert_lowest_rat(residual.gamma)
                    for k in range(5):
                        coeff, residual = derive_pq_power_iterated(e, k)
                        falling = math.prod((ref_bracket(n - j, p, q) for j in range(k)), start=Fraction(1))
                        assert coeff == (sign * gamma) ** k * base ** (k * (k - 1) // 2) * falling
                        assert residual == PqPowerExpr(a, n - k, params, gamma * base**k, orientation)
                        assert_lowest_rat(coeff)
                        assert_lowest_rat(residual.gamma)


class TestReconstruction:
    """PowerBasisExpansion.to_polynomial against expanding every basis element."""

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", param_cases(61, 10))
    def test_matches_reference(self, p, q, orientation):
        rng = random.Random(f"{p}/{q}/{orientation.value}/rebuild")
        params = PqParams(p, q)
        for size in range(0, 14):
            a = Fraction(0) if size % 5 == 0 else two_digit(rng)
            coeffs = [two_digit(rng) for _ in range(size)]
            got = PowerBasisExpansion(a, orientation, tuple(coeffs)).to_polynomial(params)
            assert got.coeffs == ref_reconstruct(coeffs, a, p, q, orientation)
            for c in got.coeffs:
                assert_lowest_rat(c)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_empty_and_degree_zero(self, orientation):
        params = PqParams(rat("-3/2"), rat("5/7"))
        assert PowerBasisExpansion(rat(2), orientation, ()).to_polynomial(params).is_zero()
        got = PowerBasisExpansion(rat(2), orientation, (rat("-4/9"),)).to_polynomial(params)
        assert got == Polynomial(["-4/9"])
        assert_lowest_rat(got.coeffs[0])


class TestExpansionFormula:
    """taylor_expand and taylor_expand_reversed against the formula in Fractions."""

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", [pq for pq in param_cases(67, 10) if pq[0] != -pq[1]])
    def test_matches_reference(self, p, q, orientation):
        rng = random.Random(f"{p}/{q}/{orientation.value}/formula")
        params = PqParams(p, q)
        expand = taylor_expand if orientation is Orientation.X_MINUS_A else taylor_expand_reversed
        for size in range(0, 13):
            a = Fraction(0) if size % 4 == 0 else two_digit(rng)
            coeffs = [two_digit(rng) for _ in range(size)]
            got = expand(Polynomial(coeffs), a, params)
            assert got.coeffs == ref_taylor(Polynomial(coeffs).coeffs, a, p, q, orientation)
            assert got.orientation is orientation
            for c in got.coeffs:
                assert_lowest_rat(c)

    @pytest.mark.parametrize("p, q", [pq for pq in EDGE_PARAMS if pq[0] == -pq[1]])
    def test_p_equals_minus_q(self, p, q):
        params = PqParams(p, q)
        for expand in (taylor_expand, taylor_expand_reversed):
            for coeffs in ([], ["7/3"], ["7/3", "-2/5"]):
                f = Polynomial(coeffs)
                assert expand(f, Fraction(3, 4), params).to_polynomial(params) == f
            with pytest.raises(DegenerateRegimeError, match=r"\[2\] = 0"):
                expand(Polynomial(["1", "0", "1"]), Fraction(3, 4), params)


class TestConnection:
    """The connection coefficients against Fraction binomials and power values."""

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", param_cases(71, 10))
    def test_power_to_power(self, p, q, orientation):
        rng = random.Random(f"{p}/{q}/{orientation.value}/connect")
        params = PqParams(p, q)
        for n in range(0, 12):
            if p == -q and n >= 2:
                continue
            a, b = two_digit(rng), two_digit(rng)
            if n % 4 == 0:
                a, b = (Fraction(0), b) if n % 8 == 0 else (a, Fraction(0))
            first, second = (a, b) if orientation is Orientation.X_MINUS_A else (b, a)
            got = connect_power_to_power(b, a, n, params, orientation)
            ref = tuple(
                ref_binomial(n, k, p, q) * ref_power_value(first, second, n - k, p, q)
                for k in range(n + 1)
            )
            assert got == ref
            for c in got:
                assert_lowest_rat(c)

    @pytest.mark.parametrize("orientation", list(Orientation))
    @pytest.mark.parametrize("p, q", param_cases(73, 10))
    def test_monomial(self, p, q, orientation):
        rng = random.Random(f"{p}/{q}/{orientation.value}/monomial")
        params = PqParams(p, q)
        base, sign = (p, 1) if orientation is Orientation.X_MINUS_A else (q, -1)
        for n in range(0, 12):
            if p == -q and n >= 2:
                continue
            a = Fraction(0) if n % 3 == 0 else two_digit(rng)
            got = connect_monomial(n, a, params, orientation)
            ref = tuple(
                sign**k * base ** -(k * (k - 1) // 2) * ref_binomial(n, k, p, q) * (a * base**-k) ** (n - k)
                for k in range(n + 1)
            )
            assert got == ref
            for c in got:
                assert_lowest_rat(c)

    @pytest.mark.parametrize("p, q", [pq for pq in EDGE_PARAMS if pq[0] == -pq[1]])
    def test_p_equals_minus_q(self, p, q):
        params = PqParams(p, q)
        a, b = Fraction(2, 3), Fraction(-5, 4)
        for orientation in Orientation:
            first, second = (a, b) if orientation is Orientation.X_MINUS_A else (b, a)
            assert connect_power_to_power(b, a, 0, params, orientation) == (1,)
            assert connect_power_to_power(b, a, 1, params, orientation) == (first - second, 1)
        assert connect_monomial(1, a, params) == (a, 1)
        assert connect_monomial(1, a, params, Orientation.A_MINUS_X) == (a, -1)
        message = r"binomial coefficients are undefined at p = -q for n >= 2"
        for n in (2, 3, 6):
            for orientation in Orientation:
                with pytest.raises(DegenerateRegimeError, match=message):
                    connect_power_to_power(b, a, n, params, orientation)
                with pytest.raises(DegenerateRegimeError, match=message):
                    connect_monomial(n, a, params, orientation)


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


KERNEL_MODULES = ("scalars.py", "pqpower.py", "polynomials.py", "taylor.py", "integration.py")


def two_argument_rat_calls(source):
    """(line, enclosing function) of each Rat/Fraction call with two arguments or a starred one."""
    found, scopes = [], []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scopes.append(node.name)
            self.generic_visit(node)
            scopes.pop()

        def visit_Call(self, node):
            name = node.func.id if isinstance(node.func, ast.Name) else None
            starred = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
            if name in ("Rat", "Fraction") and (len(node.args) + len(node.keywords) > 1 or starred):
                found.append((node.lineno, scopes[-1] if scopes else None))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


class TestOneNormalisingConstructor:
    """The exact kernels build a Rat from integers only through ``rat_from_ints``."""

    @pytest.mark.parametrize("module", KERNEL_MODULES)
    def test_no_two_argument_rat_call(self, module):
        source = (Path(polynomials.__file__).parent / module).read_text()
        calls = [(line, scope) for line, scope in two_argument_rat_calls(source) if scope != "rat_from_ints"]
        assert calls == [], f"{module}: build these with rat_from_ints: {calls}"

    def test_the_scan_sees_each_spelling(self):
        source = "def f(n, d):\n    return Rat(n, d), Rat(*p), Fraction(n, denominator=d), Rat(n)\n"
        assert two_argument_rat_calls(source) == [(2, "f")] * 3


SLOTS = ("_numerator", "_denominator")
# the modules that read Fraction's two slots directly, pinned so that a new reader is deliberate;
# none of them reads the Python-level numerator/denominator properties
SLOT_READERS = {"scalars.py", "pqpower.py", "polynomials.py", "taylor.py", "integration.py"}


def fraction_slot_uses(source):
    """(reads, writes): the enclosing function of each read and of each write of a Fraction slot.

    A write is an assignment or deletion of ``x._numerator``/``x._denominator``, or a
    ``setattr``/``__setattr__`` call that names one of them.
    """
    reads, writes, scopes = [], [], []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scopes.append(node.name)
            self.generic_visit(node)
            scopes.pop()

        def visit_Attribute(self, node):
            if node.attr in SLOTS:
                (reads if isinstance(node.ctx, ast.Load) else writes).append(scopes[-1] if scopes else None)
            self.generic_visit(node)

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in ("setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value in SLOTS for a in node.args
            ):
                writes.append(scopes[-1] if scopes else None)
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return reads, writes


def property_reads(source):
    """Line numbers of each ``x.numerator``/``x.denominator`` attribute read in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
    )


class TestOneIntegerFormPerCall:
    """Each exact kernel computes (P, Q, S) once per call and hands it to the helpers it calls."""

    PARAMS = PqParams("3/2", "-1/3")
    F = Polynomial(["1/3", "-2", "5/7", "1/9", "2"])
    KERNELS = {
        "expand_expr": lambda p: expand_expr(PqPowerExpr(Fraction(2, 3), 5, p, Fraction(-1, 2))),
        "expand_expr reversed": lambda p: expand_expr(PqPowerExpr(2, 4, p, orientation=Orientation.A_MINUS_X)),
        "taylor_expand": lambda p: taylor_expand(TestOneIntegerFormPerCall.F, "1/2", p),
        "taylor_expand reversed": lambda p: taylor_expand_reversed(TestOneIntegerFormPerCall.F, "1/2", p),
        "to_polynomial": lambda p: PowerBasisExpansion("2/3", Orientation.X_MINUS_A, [1, 2, 3, 4]).to_polynomial(p),
        "to_polynomial reversed": lambda p: PowerBasisExpansion(2, Orientation.A_MINUS_X, [1, 2, 3]).to_polynomial(p),
        "connect_power_to_power": lambda p: connect_power_to_power("1/2", "-3", 5, p, Orientation.X_MINUS_A),
        "pq_derive_poly": lambda p: pq_derive_poly(TestOneIntegerFormPerCall.F, p),
        "bracket": lambda p: bracket(-7, p),
        "pq_power_value": lambda p: pq_power_value("1/2", 3, 6, p),
        "eval_pq_power": lambda p: eval_pq_power(PqPowerExpr(1, -3, p), Fraction(5, 7)),
        "derive_pq_power": lambda p: derive_pq_power(PqPowerExpr("2/3", 5, p, "-1/2", Orientation.A_MINUS_X)),
        "derive_pq_power_iterated": lambda p: derive_pq_power_iterated(PqPowerExpr("2/3", -4, p, "-1/2"), 3),
        "antiderive_poly": lambda p: antiderive_poly(TestOneIntegerFormPerCall.F, p, "-5/3"),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_one_as_ints_call(self, monkeypatch, kernel):
        calls, real = [], PqParams.as_ints
        monkeypatch.setattr(PqParams, "as_ints", lambda self: calls.append(self) or real(self))
        want = self.KERNELS[kernel](self.PARAMS)
        assert calls == [self.PARAMS]
        monkeypatch.undo()
        assert self.KERNELS[kernel](self.PARAMS) == want


class TestFractionSlots:
    """Which modules read ``Fraction``'s slots directly, and that only ``rat_from_ints`` writes them."""

    SOURCES = sorted(Path(polynomials.__file__).parent.glob("*.py"))

    def test_readers_are_the_pin(self):
        assert {path.name for path in self.SOURCES if fraction_slot_uses(path.read_text())[0]} == SLOT_READERS

    @pytest.mark.parametrize("module", sorted(SLOT_READERS))
    def test_readers_read_no_property(self, module):
        lines = property_reads((Path(polynomials.__file__).parent / module).read_text())
        assert lines == [], f"{module}: read _numerator/_denominator, not the properties, at lines {lines}"

    def test_the_property_scan_sees_each_read(self):
        source = "def f(x):\n    return x.numerator, x._numerator\n\n\ny = f(z).denominator + z._denominator\n"
        assert property_reads(source) == [2, 5]

    def test_only_rat_from_ints_writes_them(self):
        writes = {(path.name, scope) for path in self.SOURCES for scope in fraction_slot_uses(path.read_text())[1]}
        assert writes == {("scalars.py", "rat_from_ints")}

    def test_the_scan_sees_each_spelling(self):
        source = (
            "def f(x, v):\n    n = x._numerator + x.numerator\n    v._denominator = n\n"
            "    setattr(v, '_numerator', n)\n    object.__setattr__(v, '_denominator', n)\n    del v._numerator\n"
        )
        assert fraction_slot_uses(source) == (["f"], ["f"] * 4)


# the one function in src/ that compiles code: the maker of each degree's written-out Horner
CODE_MAKERS = {("polynomials.py", "_horner_maker")}
CODE_BUILTINS = ("exec", "eval", "compile")


def code_calls(source):
    """The enclosing function of each call of the builtin ``exec``, ``eval`` or ``compile`` in ``source``."""
    found, scopes = [], []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scopes.append(node.name)
            self.generic_visit(node)
            scopes.pop()

        def visit_Call(self, node):
            func = node.func
            plain = isinstance(func, ast.Name) and func.id in CODE_BUILTINS
            qualified = (isinstance(func, ast.Attribute) and func.attr in CODE_BUILTINS
                         and isinstance(func.value, ast.Name) and func.value.id == "builtins")
            if plain or qualified:
                found.append(scopes[-1] if scopes else None)
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


class TestOneCodeMaker:
    """Generated code comes from one reviewed place: no other function calls exec, eval or compile."""

    def test_only_the_horner_maker_compiles(self):
        sources = sorted(Path(polynomials.__file__).parent.glob("*.py"))
        calls = {(path.name, scope) for path in sources for scope in code_calls(path.read_text())}
        assert calls == CODE_MAKERS

    def test_the_scan_sees_each_spelling(self):
        source = (
            "import builtins, re\n\ndef f(s):\n    exec(s)\n    g = lambda: eval(s)\n"
            "    return compile(s, 'f', 'exec'), builtins.exec(s), re.compile(s)\n\n\nexec('x = 1')\n"
        )
        assert code_calls(source) == ["f"] * 4 + [None]
