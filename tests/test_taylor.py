"""Power-basis expansions, connection formulas, and the reciprocal series."""

import json
import random

import pytest

from pqcalc.errors import DegenerateRegimeError, DivergenceError, OutOfRangeError
from pqcalc.polynomials import Polynomial
from pqcalc.pqpower import Orientation, PqPowerExpr, expand_expr, pq_power_value
from pqcalc.scalars import PqParams, Rat, TruncationPolicy, bracket, rat, rat_float
from pqcalc.taylor import (
    PowerBasisExpansion,
    connect_monomial,
    connect_power_to_power,
    heine_coeff,
    heine_series_eval,
    reciprocal_power_series,
    taylor_expand,
    taylor_expand_reversed,
)

PHALF = PqParams(2, rat("1/2"))
P32 = PqParams(3, 2)


def solve_expansion(f, a, params, orientation):
    """Independent oracle: exact triangular solve against the expanded basis.

    Works degree by degree from the top, using only basis expansions and
    polynomial arithmetic (none of the evaluation formulas under test).
    """
    if f.is_zero():
        return ()
    n = len(f.coeffs) - 1
    basis = [
        expand_expr(PqPowerExpr(a, k, params, orientation=orientation)) for k in range(n + 1)
    ]
    residual = f
    coeffs = [rat(0)] * (n + 1)
    for k in range(n, -1, -1):
        lead = residual.coeffs[k] if len(residual.coeffs) > k else rat(0)
        coeffs[k] = lead / basis[k].coeffs[k]
        residual = residual - coeffs[k] * basis[k]
    assert residual.is_zero()
    return tuple(coeffs)


def random_rational(rng, bound=50):
    return rat(rng.randint(-bound, bound)) / rng.randint(1, bound)


class TestTaylorExpand:
    def test_constant(self):
        exp = taylor_expand(Polynomial([rat("7/3")]), rat(4), P32)
        assert exp.coeffs == (rat("7/3"),)

    def test_monomial_at_zero(self):
        # (x (-) 0)^n = p^{C(n,2)} x^n, so x^n needs the single coefficient p^{-C(n,2)}
        for n in range(1, 7):
            exp = taylor_expand(Polynomial.monomial(n), 0, PHALF)
            expected = tuple([rat(0)] * n + [PHALF.p ** (-(n * (n - 1) // 2))])
            assert exp.coeffs == expected

    def test_square_against_linear_solve(self):
        f = Polynomial([0, 0, 1])
        exp = taylor_expand(f, 1, PHALF)
        assert exp.coeffs == solve_expansion(f, rat(1), PHALF, Orientation.X_MINUS_A)

    def test_reversed_linear_example(self):
        a = rat("5/7")
        exp = taylor_expand_reversed(Polynomial([-a, 1]), a, P32)
        assert exp.coeffs == (rat(0), rat(-1))

    def test_random_against_linear_solve_both_orientations(self):
        rng = random.Random(41)
        pool = [rat("1/3"), rat("-1/3"), rat("1/2"), rat("-1/2"), rat(2), rat(3), rat("5/2")]
        for _ in range(40):
            p, q = rng.choice(pool), rng.choice(pool)
            if p == q or p == -q:
                continue
            params = PqParams(p, q)
            f = Polynomial(random_rational(rng) for _ in range(rng.randint(1, 7)))
            a = random_rational(rng, bound=6)
            forward = taylor_expand(f, a, params)
            oracle = solve_expansion(f, a, params, Orientation.X_MINUS_A)
            assert forward.coeffs == oracle[: len(forward.coeffs)]
            assert forward.to_polynomial(params) == f
            reverse = taylor_expand_reversed(f, a, params)
            oracle_r = solve_expansion(f, a, params, Orientation.A_MINUS_X)
            assert reverse.coeffs == oracle_r[: len(reverse.coeffs)]
            assert reverse.to_polynomial(params) == f

    def test_orientation_argument_is_the_reversed_name(self):
        rng = random.Random(26)
        pool = [rat(2), rat(3), rat("1/2"), rat("-1/3"), rat("5/2")]
        for _ in range(40):
            p, q = rng.sample(pool, 2)
            params = PqParams(p, q)
            f = Polynomial(random_rational(rng) for _ in range(rng.randint(0, 7)))
            a = random_rational(rng, bound=6)
            reverse = taylor_expand(f, a, params, Orientation.A_MINUS_X)
            assert reverse == taylor_expand_reversed(f, a, params)
            assert reverse.orientation is Orientation.A_MINUS_X
            assert taylor_expand(f, a, params) == taylor_expand(f, a, params, Orientation.X_MINUS_A)

    def test_triangularity(self):
        rng = random.Random(12)
        params = PqParams(rat("5/2"), rat("1/3"))
        for _ in range(10):
            degree = rng.randint(0, 6)
            f = Polynomial([random_rational(rng) for _ in range(degree)] + [rat(1)])
            exp = taylor_expand(f, rat("3/4"), params)
            assert len(exp.coeffs) == degree + 1
            # top coefficient depends only on the leading coefficient of f
            assert exp.coeffs[-1] == params.p ** (-(degree * (degree - 1) // 2))

    def test_degenerate_params_rejected(self):
        degenerate = PqParams(2, -2)
        with pytest.raises(DegenerateRegimeError):
            taylor_expand(Polynomial.monomial(2), 1, degenerate)
        # degree <= 1 never divides by [2], so it still works
        exp = taylor_expand(Polynomial([3, 1]), 1, degenerate)
        assert exp.to_polynomial(degenerate) == Polynomial([3, 1])

    def test_zero_polynomial(self):
        exp = taylor_expand(Polynomial.zero(), rat(2), P32)
        assert exp.coeffs == ()
        assert exp.to_polynomial(P32).is_zero()


class TestExpansionValue:
    def test_coercion_strips_trailing_zeros(self):
        exp = PowerBasisExpansion("1/2", Orientation.X_MINUS_A, [1, "2/3", 0, 0])
        assert exp.coeffs == (rat(1), rat("2/3"))
        assert type(exp.a) is Rat and all(type(c) is Rat for c in exp.coeffs)
        assert PowerBasisExpansion(a=rat("1/2"), orientation=Orientation.X_MINUS_A, coeffs=(1, rat("2/3"))) == exp

    @pytest.mark.parametrize("a, coeffs", [(0.5, [1]), (1, [1, 0.5])])
    def test_float_rejected(self, a, coeffs):
        with pytest.raises(TypeError):
            PowerBasisExpansion(a, Orientation.X_MINUS_A, coeffs)

    def test_repr_and_immutability(self):
        exp = PowerBasisExpansion(1, Orientation.A_MINUS_X, [2])
        assert repr(exp) == (
            f"PowerBasisExpansion(a={rat(1)!r}, orientation={Orientation.A_MINUS_X!r}, coeffs=({rat(2)!r},))"
        )
        with pytest.raises(AttributeError):
            exp.coeffs = ()


class TestExpansionSerialization:
    def test_json_round_trip(self):
        exp = taylor_expand(Polynomial([1, 0, rat("-2/3")]), rat("1/2"), PHALF)
        payload = json.loads(json.dumps(exp.to_json_dict()))
        coeffs = tuple(rat(c) for c in payload["coeffs"])
        assert PowerBasisExpansion(rat(payload["a"]), Orientation(payload["orientation"]), coeffs) == exp
        assert payload["orientation"] == "x-a"
        assert all(isinstance(c, str) for c in payload["coeffs"])

    def test_reversed_label(self):
        exp = taylor_expand_reversed(Polynomial([1, 1]), rat(1), P32)
        assert exp.to_json_dict()["orientation"] == "a-x"


class TestConnectionFormulas:
    def test_monomial_base_cases(self):
        assert connect_monomial(0, rat(5), P32) == (rat(1),)
        assert connect_monomial(1, rat(5), P32) == (rat(5), rat(1))
        assert connect_monomial(0, rat(5), P32, Orientation.A_MINUS_X) == (rat(1),)
        assert connect_monomial(1, rat(5), P32, Orientation.A_MINUS_X) == (rat(5), rat(-1))

    def test_monomial_matches_expansion(self):
        a = rat(1)
        for n in range(7):
            coeffs = connect_monomial(n, a, PHALF)
            exp = taylor_expand(Polynomial.monomial(n), a, PHALF)
            padded = exp.coeffs + (rat(0),) * (len(coeffs) - len(exp.coeffs))
            assert coeffs == padded

    def test_monomial_reversed_matches_expansion(self):
        a = rat("-3/2")
        for n in range(6):
            coeffs = connect_monomial(n, a, P32, Orientation.A_MINUS_X)
            exp = taylor_expand_reversed(Polynomial.monomial(n), a, P32)
            padded = exp.coeffs + (rat(0),) * (len(coeffs) - len(exp.coeffs))
            assert coeffs == padded

    def test_power_to_power_same_point_collapses(self):
        a = rat("4/7")
        coeffs = connect_power_to_power(a, a, 3, P32, Orientation.X_MINUS_A)
        assert coeffs == (rat(0), rat(0), rat(0), rat(1))

    def test_power_to_power_negative_n_rejected(self):
        with pytest.raises(OutOfRangeError, match="^need n >= 0, got -1$"):
            connect_power_to_power(rat(1), rat(2), -1, P32, Orientation.X_MINUS_A)

    def test_power_to_power_telescopes_linear(self):
        a, b = rat(2), rat("1/3")
        assert connect_power_to_power(b, a, 1, P32, Orientation.X_MINUS_A) == (a - b, rat(1))

    def test_power_to_power_as_polynomials(self):
        rng = random.Random(9)
        for _ in range(20):
            params = PqParams(rat(rng.choice([2, 3, 5])) / 2, rat("1/3"))
            a, b = random_rational(rng, 8), random_rational(rng, 8)
            n = rng.randint(0, 5)
            for orientation in Orientation:
                coeffs = connect_power_to_power(b, a, n, params, orientation)
                lhs = expand_expr(PqPowerExpr(b, n, params, orientation=orientation))
                rhs = Polynomial.zero()
                for k, c in enumerate(coeffs):
                    rhs = rhs + c * expand_expr(
                        PqPowerExpr(a, k, params, orientation=orientation)
                    )
                assert lhs == rhs


class TestQBinomialReduction:
    def test_linear_value(self):
        # both sides at n=1 are 1 - ab
        a, b, q = rat("1/2"), rat("1/3"), rat("1/4")
        assert pq_power_value(1, a * b, 1, PqParams(1, q)) == 1 - a * b


class TestReciprocalSeries:
    def test_heine_coeff_base_cases(self):
        for n in (1, 2, 5):
            assert heine_coeff(n, 0, PHALF) == 1
            assert heine_coeff(n, 1, PHALF) == bracket(n, PHALF) * PHALF.p

    def test_heine_coeff_range_errors(self):
        with pytest.raises(OutOfRangeError):
            heine_coeff(0, 1, PHALF)
        with pytest.raises(OutOfRangeError):
            heine_coeff(2, -1, PHALF)

    def test_reciprocal_series_below_n_one_rejected(self):
        with pytest.raises(OutOfRangeError, match="^need n >= 1, got 0$"):
            reciprocal_power_series(0, PHALF, 4)
        with pytest.raises(OutOfRangeError, match="^need n >= 1, got 0$"):
            heine_series_eval(0, 0.25, PHALF)

    def test_long_division_inverts_denominator(self):
        # multiplying the series back by the denominator gives 1 + O(x^terms)
        params = PqParams(rat("3/2"), rat("1/2"))
        for n in (1, 2, 3):
            series = reciprocal_power_series(n, params, 9)
            denom = expand_expr(
                PqPowerExpr(a=1, n=n, params=params, orientation=Orientation.A_MINUS_X)
            )
            product = Polynomial(series) * denom
            assert product.coeffs[0] == 1
            assert all(c == 0 for c in product.coeffs[1:9])

    def test_match_verdict_at_p_one(self):
        for q in (rat("1/2"), rat("1/3"), rat("3/4")):
            for n in (1, 2, 3, 4):
                params = PqParams(1, q)
                claimed = tuple(heine_coeff(n, j, params) for j in range(8))
                assert claimed == reciprocal_power_series(n, params, 8)

    def test_mismatch_verdict_away_from_p_one(self):
        # the geometric series 1/(1-x) pins the n=1 coefficients to 1,
        # but the claimed p-power factor is p^{j-C(j,2)} != 1
        params = PqParams(rat("3/2"), rat("1/2"))
        oracle = reciprocal_power_series(1, params, 4)
        assert tuple(heine_coeff(1, j, params) for j in range(4)) != oracle
        assert oracle == (rat(1), rat(1), rat(1), rat(1))
        assert heine_coeff(1, 1, params) == params.p

    def test_series_eval_at_zero(self):
        assert heine_series_eval(3, 0.0, PHALF) == 1.0

    def test_series_eval_matches_reciprocal_product(self):
        # n=1: 1/(1 - x) independently of q; n=2 brings one q factor in
        params = PqParams(1, rat("1/2"))
        assert heine_series_eval(1, 0.25, params) == pytest.approx(4 / 3, abs=1e-8)
        params3 = PqParams(1, rat("1/3"))
        target = 1.0 / ((1 - 0.2) * (1 - 0.2 / 3))
        assert heine_series_eval(2, 0.2, params3) == pytest.approx(target, abs=1e-8)

    @pytest.mark.parametrize(
        "p, q", [(1, "1/2"), (1, "-1/3"), (2, "1/2"), (3, 2), ("3/2", "1/3"), ("5/2", "-1/2")]
    )
    def test_series_eval_sums_the_claimed_coefficients(self, p, q):
        # the summer builds its coefficients by a recurrence of its own; it must state heine_coeff's claim
        params = PqParams(rat(p), rat(q))
        for n in (1, 2, 4):
            for x in (0.3, -0.2):
                for num_terms in (1, 5, 12):
                    policy = TruncationPolicy(max_terms=num_terms, tail_tol=1e-300)
                    expected = 0.0
                    for j in range(num_terms):
                        expected += rat_float(heine_coeff(n, j, params)) * x**j
                    assert heine_series_eval(n, x, params, policy).hex() == expected.hex()

    @pytest.mark.parametrize("max_terms", [2, 100])
    def test_series_eval_at_p_minus_q(self, max_terms):
        # c_2 divides by [2] = p + q = 0; two terms 1 + [1] p x never reach it
        params, policy = PqParams(2, -2), TruncationPolicy(max_terms=max_terms)
        if max_terms <= 2:
            assert heine_series_eval(1, 0.25, params, policy) == 1.5
        else:
            with pytest.raises(DegenerateRegimeError, match=r"\[2\] = 0"):
                heine_series_eval(1, 0.25, params, policy)

    def test_series_eval_divergence_detected(self):
        # growing coefficients (|q/p| > 1 with x away from 0) must trip the detector
        with pytest.raises(DivergenceError):
            heine_series_eval(2, 0.9, PqParams(1, rat("3/2")))
