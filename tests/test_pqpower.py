"""Power-basis expressions: evaluation, expansion, derivative laws, poles."""

import random

import pytest

from pqcalc import scalars
from pqcalc.errors import NegativeArgumentError, PoleError
from pqcalc.polynomials import Polynomial, eval_poly, pq_derive_poly, pq_difference_quotient
from pqcalc.pqpower import (
    Orientation,
    PqPowerExpr,
    derive_pq_power,
    derive_pq_power_iterated,
    eval_pq_power,
    expand_expr,
    format_power_expr,
    parse_power_expr,
    pq_power_value,
)
from pqcalc.scalars import PqParams, bracket, rat


P21 = PqParams(2, 1)
PHALF = PqParams(2, rat("1/2"))
P32 = PqParams(3, 2)


def pq_derive_poly_k_matches(base, k, coeff, residual, params):
    """k-fold polynomial derivative of the expansion equals coeff * expansion."""
    from pqcalc.polynomials import pq_derive_poly_k

    lhs = pq_derive_poly_k(expand_expr(base), k, params)
    return lhs == coeff * expand_expr(residual)


class TestExprValue:
    def test_defaults_and_coercion(self):
        e = PqPowerExpr(1, 2, P21)
        assert e.gamma == 1 and e.orientation is Orientation.X_MINUS_A
        assert type(e.a) is scalars.Rat and type(e.gamma) is scalars.Rat
        assert PqPowerExpr(a="1", n=2, params=P21, gamma=1, orientation=Orientation.X_MINUS_A) == e
        assert hash(PqPowerExpr(rat(1), 2, P21, rat(1))) == hash(e)

    @pytest.mark.parametrize("kwargs", [{"a": 0.5}, {"gamma": 2.0}])
    def test_float_rejected(self, kwargs):
        with pytest.raises(TypeError):
            PqPowerExpr(**{"a": 1, "n": 2, "params": P21, **kwargs})

    def test_repr_and_immutability(self):
        e = PqPowerExpr(1, 2, P21, orientation=Orientation.A_MINUS_X)
        assert repr(e) == (
            f"PqPowerExpr(a={rat(1)!r}, n=2, params={P21!r}, gamma={rat(1)!r}, "
            f"orientation={Orientation.A_MINUS_X!r})"
        )
        with pytest.raises(AttributeError):
            e.n = 3


class TestEvaluation:
    def test_exponent_zero_is_one(self):
        e = PqPowerExpr(a=rat("9/7"), n=0, params=P32, gamma=rat("-3"))
        assert eval_pq_power(e, rat("5/11")) == 1

    def test_zero_shift_scales_monomial(self):
        # (x - 0)(px - 0)(p^2 x - 0) = p^3 x^3 with the exponent 0+1+2
        e = PqPowerExpr(a=0, n=3, params=P21)
        assert eval_pq_power(e, 1) == 8

    def test_root_at_shift(self):
        e = PqPowerExpr(a=1, n=2, params=P32)
        assert eval_pq_power(e, 1) == 0

    def test_negative_exponent_example(self):
        # 1/(x/2 - 2) at x = 1
        e = PqPowerExpr(a=1, n=-1, params=PHALF)
        assert eval_pq_power(e, 1) == rat("-2/3")

    def test_pole_raises(self):
        e = PqPowerExpr(a=1, n=-1, params=PHALF)
        with pytest.raises(PoleError):
            eval_pq_power(e, 4)  # x/2 - 2 = 0

    def test_scalar_power_value(self):
        # (a (-) b)^2 = (a - b)(pa - qb)
        a, b = rat(3), rat("1/2")
        assert pq_power_value(a, b, 2, P32) == (a - b) * (3 * a - 2 * b)
        with pytest.raises(NegativeArgumentError):
            pq_power_value(a, b, -1, P32)


class TestExpansion:
    def test_n_zero_and_one(self):
        assert expand_expr(PqPowerExpr(rat("4/3"), 0, P32)) == Polynomial([1])
        assert expand_expr(PqPowerExpr(rat("4/3"), 1, P32)) == Polynomial([rat("-4/3"), 1])

    def test_quadratic_shape(self):
        # (x - a)(px - qa) = p x^2 - a(p+q) x + a^2 q
        p, q, a = rat(3), rat(2), rat("5/3")
        expected = Polynomial([a * a * q, -a * (p + q), p])
        assert expand_expr(PqPowerExpr(a, 2, P32)) == expected

    def test_leading_coefficient(self):
        params = PqParams(rat("3/2"), rat("-1/3"))
        for n in range(6):
            f = expand_expr(PqPowerExpr(rat("2/7"), n, params))
            assert eval_poly(Polynomial(f.coeffs[n:]), 0) == params.p ** (n * (n - 1) // 2)

    def test_eval_expand_coherence(self):
        rng = random.Random(5)
        for _ in range(40):
            params = PqParams(rat(rng.choice([2, 3, 5])) / rng.choice([1, 2]), rat("1/3"))
            e = PqPowerExpr(
                a=rat(rng.randint(-6, 6)) / rng.randint(1, 4),
                n=rng.randint(0, 6),
                params=params,
                gamma=rat(rng.choice([-2, -1, 1, 2, 3])),
                orientation=rng.choice(list(Orientation)),
            )
            x = rat(rng.randint(-8, 8)) / rng.randint(1, 5)
            assert eval_pq_power(e, x) == eval_poly(expand_expr(e), x)

    def test_negative_exponent_not_expandable(self):
        with pytest.raises(NegativeArgumentError):
            expand_expr(PqPowerExpr(a=1, n=-2, params=P32))


class TestDerivativeLaws:
    def test_exponent_zero_gives_zero_coeff(self):
        coeff, _ = derive_pq_power(PqPowerExpr(a=rat("3/4"), n=0, params=P32))
        assert coeff == 0

    def test_forward_law_every_integer(self):
        params = PqParams(rat("5/2"), rat("2/3"))
        a = rat("3/2")
        for n in range(-4, 7):
            e = PqPowerExpr(a, n, params)
            coeff, residual = derive_pq_power(e)
            x = rat("7/5")
            lhs = pq_difference_quotient(lambda t: eval_pq_power(e, t), x, params)
            rhs = rat(0) if coeff == 0 else coeff * eval_pq_power(residual, x)
            assert lhs == rhs

    def test_scaled_law_matches_polynomials(self):
        params = PqParams(rat("4/3"), rat("-1/2"))
        gamma, a = rat("-5/2"), rat("1/3")
        for n in range(1, 6):
            e = PqPowerExpr(a, n, params, gamma=gamma)
            coeff, residual = derive_pq_power(e)
            assert coeff == gamma * bracket(n, params)
            assert residual.gamma == gamma * params.p
            assert pq_derive_poly(expand_expr(e), params) == coeff * expand_expr(residual)

    def test_k_fold_closed_form(self):
        # the closed form against k folds of the single step, on 3,000 cases that include
        # gamma != 1, negative n, k > n, both orientations and p = -q
        rng = random.Random(8)
        pool = [rat("1/3"), rat("1/2"), rat("3/2"), rat(2), rat("-1/2"), rat(-3)]
        for trial in range(300):
            p = rng.choice(pool)
            q = -p if trial % 4 == 0 else rng.choice([c for c in pool if c != p])
            gamma = rng.choice([rat("2/3"), rat(-2), rat("5/4"), rat(-1)])
            a = rat(rng.randint(-6, 6)) / rng.randint(1, 4)
            orientation = rng.choice(list(Orientation))
            e = PqPowerExpr(a, rng.randint(-5, 7), PqParams(p, q), gamma=gamma, orientation=orientation)
            coeff, residual = rat(1), e
            for k in range(10):
                assert derive_pq_power_iterated(e, k) == (coeff, residual)
                step, residual = derive_pq_power(residual)
                coeff *= step

    def test_k_fold_cli_example(self):
        coeff, residual = derive_pq_power_iterated(PqPowerExpr(1, 3, PHALF), 2)
        assert coeff == rat("105/4")
        assert format_power_expr(residual) == "pqpow(a=1, n=1, gamma=4)"

    @pytest.mark.parametrize("orientation", list(Orientation), ids=["forward", "reversed"])
    def test_k_fold_coefficient_recursion(self, orientation):
        params = PqParams(rat("5/3"), rat("1/4"))
        p, q = params.p, params.q
        n = 6
        e = PqPowerExpr(0, n, params, orientation=orientation)
        for k in range(n):
            c_k, _ = derive_pq_power_iterated(e, k)
            c_next, _ = derive_pq_power_iterated(e, k + 1)
            step = p**k if orientation is Orientation.X_MINUS_A else -q**k
            assert c_next == c_k * step * bracket(n - k, params)

    def test_k_fold_range_errors(self):
        for orientation in Orientation:
            with pytest.raises(NegativeArgumentError):
                derive_pq_power_iterated(PqPowerExpr(1, 3, P32, orientation=orientation), -1)

    def test_k_fold_zero_coefficient_multiplies_no_bracket(self, monkeypatch):
        # at 0 <= n < k the falling product passes [0]; before, it multiplied all k brackets
        # (minutes at k = 3000) and then raised base to C(k, 2)
        calls = []
        real = scalars.bracket
        monkeypatch.setattr(scalars, "bracket", lambda n, params: calls.append(n) or real(n, params))
        params = PqParams(rat("3/2"), rat("1/3"))
        for orientation in Orientation:
            for n, k in ((0, 1), (3, 4), (3, 40), (6, 200)):
                e = PqPowerExpr(rat("2/3"), n, params, gamma=rat(-2), orientation=orientation)
                coeff, residual = derive_pq_power_iterated(e, k)
                base = params.p if orientation is Orientation.X_MINUS_A else params.q
                assert coeff == 0 and type(coeff) is type(rat(0))
                assert residual == PqPowerExpr(e.a, n - k, params, gamma=-2 * base**k, orientation=orientation)
        assert calls == []

    def test_reversed_k_fold(self):
        params = PqParams(rat("7/4"), rat("2/5"))
        a = rat("-3/2")
        for n in range(6):
            base = PqPowerExpr(a, n, params, orientation=Orientation.A_MINUS_X)
            for k in range(n + 1):
                coeff, residual = derive_pq_power_iterated(base, k)
                assert pq_derive_poly_k_matches(base, k, coeff, residual, params)
            # k = n exhausts the power: coefficient (-1)^n q^{n(n-1)/2} [n]!
            full_coeff, _ = derive_pq_power_iterated(base, n)
            fact = rat(1)
            for j in range(1, n + 1):
                fact *= bracket(j, params)
            assert full_coeff == (-1) ** n * params.q ** (n * (n - 1) // 2) * fact


class TestAdditiveLaw:
    def test_positive_pair_as_polynomials(self):
        a = rat("1/2")
        lhs = expand_expr(PqPowerExpr(a, 5, P32))
        right = PqPowerExpr(P32.q**2 * a, 3, P32, gamma=P32.p**2)
        rhs = expand_expr(PqPowerExpr(a, 2, P32)) * expand_expr(right)
        assert lhs == rhs


class TestParsing:
    def test_round_trip(self):
        for text in (
            "pqpow(a=1, n=3, gamma=4)",
            "pqpow(a=-1/2, n=-2, gamma=1)",
            "pqpowrev(a=3/7, n=0, gamma=-2/3)",
        ):
            assert format_power_expr(parse_power_expr(text, P32)) == text

    def test_gamma_defaults_to_one(self):
        e = parse_power_expr("pqpow(a=2, n=5)", P32)
        assert e.gamma == 1
        assert e.orientation is Orientation.X_MINUS_A

    def test_reversed_flag(self):
        e = parse_power_expr("pqpowrev(a=2, n=5)", P32)
        assert e.orientation is Orientation.A_MINUS_X

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_power_expr("pqpow(n=3)", P32)
        with pytest.raises(ValueError):
            parse_power_expr("power(a=1, n=2)", P32)

    @pytest.mark.parametrize(
        "text, name, literal",
        [
            ("pqpow(a=x, n=2)", "a", "x"),
            ("pqpowrev(a=1/0, n=2)", "a", "1/0"),
            ("pqpow(a=1, n=2, gamma=y)", "gamma", "y"),
            ("pqpowrev(a=1, n=2, gamma=1/0)", "gamma", "1/0"),
        ],
    )
    def test_names_a_literal_that_is_no_rational(self, text, name, literal):
        with pytest.raises(ValueError) as caught:
            parse_power_expr(text, P32)
        assert str(caught.value) == f"{name} must be a rational such as 3/2, got {literal!r}"


class TestFactorSteps:
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_factors_multiply_to_the_power(self, orientation):
        # factor j over ad*gd*S^j, multiplied up, is the product eval_pq_power forms on its own
        params, a, gamma = PqParams("3/2", "-1/3"), rat("5/7"), rat("-2/3")
        c0, c1 = a.numerator * gamma.denominator, gamma.numerator * a.denominator
        lo, hi, lo_step, hi_step = orientation.factor_steps(c0, c1, params.as_ints())
        s = params.as_ints()[2]
        for x in (rat(0), rat("1/2"), rat(-3)):
            value = rat(1)
            for j in range(5):
                value *= (lo * lo_step**j + hi * hi_step**j * x) / (a.denominator * gamma.denominator * s**j)
                assert value == eval_pq_power(PqPowerExpr(a, j + 1, params, gamma, orientation), x)
