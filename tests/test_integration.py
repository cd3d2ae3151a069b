"""Lattice integrals, convergence policy, and the two-sided identities."""

import math
import random
from itertools import islice

import pytest

from pqcalc.cli import main
from pqcalc.errors import DegenerateRegimeError, InvalidIntervalError, WrongRegimeError
from pqcalc.integration import (
    DEFAULT_POLICY,
    DIVERGENCE_WINDOW,
    BoundednessReport,
    IntegralResult,
    IntegralStatus,
    TruncationPolicy,
    _sum_series,
    antiderive_poly,
    check_convergence_hypothesis,
    integral,
    integral_improper,
    integral_riemann_stieltjes,
    integral_to_infinity,
    integral_zero_to,
    integrate_by_parts,
    lattice_terms,
    newton_leibniz_check,
)
from pqcalc.polynomials import NumericFn, Polynomial, eval_poly, pq_derive_poly
from pqcalc.scalars import PqParams, Regime, bracket, rat

P1H = PqParams(1, rat("1/2"))  # Jackson regime, |q/p| < 1
P21 = PqParams(2, 1)
P13 = PqParams(1, 3)  # |q/p| > 1


class TestTruncationPolicy:
    def test_defaults(self):
        policy = TruncationPolicy()
        assert policy.max_terms == 10_000
        assert policy.tail_tol == 1e-12
        assert DIVERGENCE_WINDOW == 8
        assert TruncationPolicy(500) == TruncationPolicy(tail_tol=1e-12, max_terms=500)
        assert repr(policy) == "TruncationPolicy(max_terms=10000, tail_tol=1e-12)"
        with pytest.raises(AttributeError):
            policy.max_terms = 5

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_terms": 0}, {"tail_tol": 0.0}, {"tail_tol": -1e-3}],
    )
    def test_invalid_fields(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError) as info:
            TruncationPolicy(**kwargs)
        assert str(info.value) == {"max_terms": "max_terms must be >= 1", "tail_tol": "tail_tol must be > 0"}[field]


class TestZeroTo:
    def test_constant_telescopes(self):
        result = integral_zero_to(NumericFn(lambda x: 3.5), 1.0, P1H)
        assert result.status is IntegralStatus.CONVERGED
        assert result.value == pytest.approx(3.5, abs=1e-10)

    def test_linear_closed_form(self):
        result = integral_zero_to(NumericFn(lambda x: x), 1.0, P1H)
        assert result.value == pytest.approx(2 / 3, abs=1e-10)

    def test_monomial_law_both_regimes(self):
        for params in (P1H, P13, PqParams(rat("2/3"), rat(2))):
            for n in range(7):
                for a in (0.5, 1.0, 2.0):
                    result = integral_zero_to(NumericFn(lambda x, n=n: x**n), a, params)
                    target = a ** (n + 1) / float(bracket(n + 1, params))
                    assert result.status is IntegralStatus.CONVERGED
                    assert result.terms_used <= 500
                    assert result.value == pytest.approx(target, abs=1e-9)

    def test_zero_width(self):
        result = integral_zero_to(NumericFn(lambda x: 1.0 / x), 0.0, P1H)
        assert result.value == 0.0
        assert result.terms_used == 0
        assert result.status is IntegralStatus.CONVERGED

    def test_negative_bound_rejected(self):
        with pytest.raises(InvalidIntervalError):
            integral_zero_to(NumericFn(lambda x: x), -1.0, P1H)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRegimeError):
            integral_zero_to(NumericFn(lambda x: x), 1.0, PqParams(2, -2))

    def test_divergence_of_reciprocal(self):
        result = integral_zero_to(NumericFn(lambda x: 1.0 / x), 1.0, P21)
        assert result.status is IntegralStatus.DIVERGENCE_DETECTED
        assert result.terms_used <= 64

    def test_regime_symmetry(self):
        f = NumericFn.from_polynomial(Polynomial([1, rat("-1/2"), 0, 2]))
        for a in (0.5, 1.0, 2.0):
            one = integral_zero_to(f, a, PqParams(1, rat("1/3")))
            other = integral_zero_to(f, a, PqParams(rat("1/3"), 1))
            assert one.value == pytest.approx(other.value, abs=1e-10)

    def test_jackson_terms_at_p_one(self):
        q = 0.5
        f = NumericFn(lambda x: 1.0 / (1.0 + x))
        for a in (0.5, 1.0, 2.0):
            ours = list(islice(lattice_terms(f, a, P1H, to_zero=True), 30))
            jackson = [(1 - q) * a * q**k * f(q**k * a) for k in range(30)]
            for mine, classical in zip(ours, jackson):
                assert mine == pytest.approx(classical, rel=1e-15)


class TestDefiniteIntegral:
    def test_monomial_example(self):
        result = integral(NumericFn(lambda x: x * x), 1.0, 2.0, P1H)
        assert result.value == pytest.approx(4.0, abs=1e-9)

    def test_zero_function(self):
        result = integral(NumericFn(lambda x: 0.0), 0.0, 5.0, P1H)
        assert result.value == 0.0
        assert result.status is IntegralStatus.CONVERGED

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (-1.0, 1.0)])
    def test_invalid_intervals(self, a, b):
        with pytest.raises(InvalidIntervalError):
            integral(NumericFn(lambda x: x), a, b, P1H)

    def test_status_is_worse_of_the_two(self):
        # 1/x diverges from 0, so both halves and the difference report it
        result = integral(NumericFn(lambda x: 1.0 / x), 1.0, 2.0, P21)
        assert result.status is IntegralStatus.DIVERGENCE_DETECTED

    def test_logarithm_integrates(self):
        # x ln x - c0 x with c0 = (p ln p - q ln q)/(p - q) differentiates to
        # ln x and is continuous at 0, so the series must hit F(2) - F(1)
        params = PqParams(2, rat("1/2"))
        c0 = (2.0 * math.log(2.0) - 0.5 * math.log(0.5)) / 1.5
        result = integral(NumericFn(math.log), 1.0, 2.0, params)
        assert result.status is IntegralStatus.CONVERGED
        assert result.value == pytest.approx(2.0 * math.log(2.0) - c0, abs=1e-10)


class TestImproper:
    def test_zero_function(self):
        result = integral_improper(NumericFn(lambda x: 0.0), P1H)
        assert result.value == 0.0
        assert result.status is IntegralStatus.CONVERGED

    def test_piecewise_witness_split(self):
        policy = TruncationPolicy()
        f = NumericFn(lambda x: x if x <= 1 else x**-3)
        down = integral_zero_to(f, 1.0, P1H, policy)
        up = integral_to_infinity(f, 1.0, P1H, policy)
        whole = integral_improper(f, P1H, policy)
        for part in (down, up, whole):
            assert part.status is IntegralStatus.CONVERGED
        assert whole.value == pytest.approx(down.value + up.value, abs=2 * policy.tail_tol)
        # frozen closed forms: 0.5 sum 0.25^k = 2/3 and 0.5 sum 4^-(k+1) = 1/6
        assert down.value == pytest.approx(2 / 3, abs=1e-10)
        assert up.value == pytest.approx(1 / 6, abs=1e-10)

    def test_constant_diverges_on_growing_side(self):
        result = integral_improper(NumericFn(lambda x: 1.0), P1H)
        assert result.status is IntegralStatus.DIVERGENCE_DETECTED

    def test_to_infinity_requires_positive_anchor(self):
        with pytest.raises(InvalidIntervalError):
            integral_to_infinity(NumericFn(lambda x: x), 0.0, P1H)

    def test_lattices_tile(self):
        # the union of both one-sided lattices is exactly the bilateral one:
        # down = {1, 1/2, 1/4, ...}, up = {2, 4, 8, ...} at p=1, q=1/2, a=1
        f = NumericFn(lambda x: x if x <= 1 else x**-3)
        down_pts = [0.5**k for k in range(5)]
        up_pts = [2.0 ** (k + 1) for k in range(5)]
        ours_down = list(islice(lattice_terms(f, 1.0, P1H, to_zero=True), 5))
        ours_up = list(islice(lattice_terms(f, 1.0, P1H, to_zero=False), 5))
        for point, term in zip(down_pts, ours_down):
            assert term == pytest.approx(0.5 * point * f(point))
        for point, term in zip(up_pts, ours_up):
            assert term == pytest.approx(0.5 * point * f(point))


class TestIntervalDispatch:
    """``integral`` covers 0 <= a < b <= infinity by calling the one-sided entries."""

    def test_infinite_upper_bound(self):
        f = NumericFn(lambda x: x if x <= 1 else x**-3)
        for params in (P1H, P13):
            assert integral(f, 0.5, math.inf, params) == integral_to_infinity(f, 0.5, params)
            assert integral(f, 0.0, math.inf, params) == integral_improper(f, params)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_bound_rejected(self, bound):
        f = NumericFn(lambda x: x)
        with pytest.raises(InvalidIntervalError, match=f"need a >= 0, got {bound}"):
            integral_zero_to(f, bound, P1H)
        with pytest.raises(InvalidIntervalError, match=f"need a > 0, got {bound}"):
            integral_to_infinity(f, bound, P1H)
        with pytest.raises(InvalidIntervalError, match=f"need x > 0, got {bound}"):
            integral_riemann_stieltjes(f, f, bound, P1H)
        with pytest.raises(InvalidIntervalError):
            integral(f, bound, math.inf, P1H)
        with pytest.raises(InvalidIntervalError):
            integral(f, 0.0, math.nan, P1H)


class TestRiemannStieltjes:
    def test_identity_weight_reduces_to_plain_integral(self):
        f = NumericFn(lambda x: x * x)
        reduced = integral_riemann_stieltjes(f, NumericFn(lambda x: x), 1.0, P1H)
        plain = integral_zero_to(f, 1.0, P1H)
        assert reduced.value == pytest.approx(plain.value, abs=1e-10)

    def test_constant_g_gives_zero(self):
        result = integral_riemann_stieltjes(
            NumericFn(lambda x: x), NumericFn(lambda x: 4.0), 1.0, P1H
        )
        assert result.value == 0.0

    def test_unit_f_telescopes(self):
        g = NumericFn(lambda x: 3.0 + x * x)
        result = integral_riemann_stieltjes(NumericFn(lambda x: 1.0), g, 2.0, P1H)
        assert result.value == pytest.approx(g(2.0) - 3.0, abs=1e-9)

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegimeError):
            integral_riemann_stieltjes(NumericFn(lambda x: x), NumericFn(lambda x: x), 1.0, P13)


class TestAntiderivative:
    def test_zero(self):
        assert antiderive_poly(Polynomial.zero(), P21, 0).is_zero()

    def test_linear_example(self):
        # x integrates to x^2/[2] with [2]_{2,1} = 3
        result = antiderive_poly(Polynomial([0, 1]), P21, 0)
        assert result == Polynomial([0, 0, rat("1/3")])

    def test_round_trip_with_constant(self):
        params = PqParams(rat("5/3"), rat("1/4"))
        f = Polynomial([1, 0, rat("2/7"), -3])
        F = antiderive_poly(f, params, rat("9/2"))
        assert pq_derive_poly(F, params) == f
        assert F.coeffs[0] == rat("9/2")

    def test_degenerate_rejected_when_needed(self):
        degenerate = PqParams(2, -2)
        # constants only need [1] = 1
        assert antiderive_poly(Polynomial([5]), degenerate, 0) == Polynomial([0, 5])
        with pytest.raises(DegenerateRegimeError):
            antiderive_poly(Polynomial([0, 1]), degenerate, 0)


class TestConvergenceHypothesis:
    def test_constant_is_bounded(self):
        report = check_convergence_hypothesis(NumericFn(lambda x: 1.0), 2.0, 0.5)
        assert report.bounded
        assert report.observed_bound == pytest.approx(2.0**0.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_reciprocal_unbounded_for_all_alpha(self, alpha):
        report = check_convergence_hypothesis(NumericFn(lambda x: 1.0 / x), 1.0, alpha)
        assert not report.bounded

    def test_mild_singularity_is_bounded(self):
        report = check_convergence_hypothesis(NumericFn(lambda x: x**-0.25), 1.0, 0.5)
        assert report.bounded

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha": 1.0}, {"alpha": -0.1}, {"A": 0.0}, {"A": math.inf}, {"A": math.nan}],
    )
    def test_preconditions(self, kwargs):
        full = {"A": 1.0, "alpha": 0.5}
        full.update(kwargs)
        with pytest.raises(ValueError):
            check_convergence_hypothesis(NumericFn(lambda x: x), **full)


class TestNewtonLeibniz:
    def test_constant(self):
        report = newton_leibniz_check(NumericFn(lambda x: 2.0, deriv_at_zero=0.0), 0.0, 1.0, P1H)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == 0.0
        assert report.gap < 1e-12

    def test_cubic(self):
        F = NumericFn.from_polynomial(Polynomial.monomial(3))
        report = newton_leibniz_check(F, 1.0, 2.0, P1H)
        assert report.rhs == 7.0
        assert report.gap < 1e-9
        assert report.status is IntegralStatus.CONVERGED

    def test_upper_bound_infinity(self):
        # F with a decaying derivative: F(x) = -1/(1+x^2) has F(inf) = 0
        F = NumericFn(lambda x: 0.0 if math.isinf(x) else -1.0 / (1.0 + x * x))
        report = newton_leibniz_check(F, 1.0, math.inf, P1H)
        assert report.status is IntegralStatus.CONVERGED
        assert report.gap < 1e-8

    def test_logarithm_case_diverges(self):
        # the antiderivative of 1/x exists but is not continuous at 0, and
        # the series sees constant-magnitude terms: divergence, not a value
        params = PqParams(2, rat("1/2"))
        scale = float((params.p - params.q) / rat(1)) / math.log(4.0)
        F = NumericFn(lambda x: scale * math.log(x))
        report = newton_leibniz_check(F, 1.0, 2.0, params)
        assert report.status is IntegralStatus.DIVERGENCE_DETECTED
        assert report.rhs == pytest.approx(0.75, abs=1e-12)
        assert report.gap > 0.1

    def test_interval_validation(self):
        F = NumericFn.from_polynomial(Polynomial.monomial(2))
        with pytest.raises(InvalidIntervalError):
            newton_leibniz_check(F, 2.0, 1.0, P1H)


class TestIntegrationByParts:
    def test_polynomial_pair_from_zero(self):
        f = NumericFn.from_polynomial(Polynomial([0, 1]))
        g = NumericFn.from_polynomial(Polynomial([0, 0, 1]))
        report = integrate_by_parts(f, g, 0.0, 1.0, P1H)
        assert report.gap < 1e-9

    def test_polynomial_pair_interior(self):
        f = NumericFn.from_polynomial(Polynomial([0, 0, 1]))
        g = NumericFn.from_polynomial(Polynomial([0, 0, 0, 1]))
        for params in (P1H, PqParams(rat("3/2"), rat("1/2"))):
            report = integrate_by_parts(f, g, 1.0, 2.0, params)
            assert report.gap < 1e-8

    def test_unit_f_reduces_to_newton_leibniz(self):
        g = NumericFn.from_polynomial(Polynomial([1, -2, 0, 1]))
        unit = NumericFn(lambda x: 1.0, deriv_at_zero=0.0)
        byparts = integrate_by_parts(unit, g, 0.0, 1.0, P1H)
        direct = newton_leibniz_check(g, 0.0, 1.0, P1H)
        assert byparts.lhs == pytest.approx(direct.lhs, abs=1e-10)
        assert byparts.rhs == pytest.approx(direct.rhs, abs=1e-10)


class TestResultSerialization:
    def test_json_dict_shape(self):
        result = integral_zero_to(NumericFn(lambda x: x), 1.0, P1H)
        payload = result.to_json_dict()
        assert set(payload) == {"value", "terms", "tail", "status", "regime"}
        assert payload["status"] == "converged"
        assert payload["regime"] == "lt1"
        gt = integral_zero_to(NumericFn(lambda x: x), 1.0, P13)
        assert gt.to_json_dict()["regime"] == "gt1"

    def test_result_value_semantics(self):
        result = IntegralResult(1.5, 3, 0.0, Regime.RATIO_LT_ONE, IntegralStatus.CONVERGED)
        assert repr(result) == (
            "IntegralResult(value=1.5, terms_used=3, tail_estimate=0.0, "
            f"regime={Regime.RATIO_LT_ONE!r}, status={IntegralStatus.CONVERGED!r})"
        )
        assert result == IntegralResult(
            value=1.5, terms_used=3, tail_estimate=0.0, regime=Regime.RATIO_LT_ONE,
            status=IntegralStatus.CONVERGED,
        )
        with pytest.raises(AttributeError):
            result.value = 2.0
        report = BoundednessReport(bounded=True, observed_bound=1.0)
        assert repr(report) == "BoundednessReport(bounded=True, observed_bound=1.0)"
        with pytest.raises(AttributeError):
            report.bounded = False

    def test_converged_tail_under_tolerance(self):
        policy = TruncationPolicy(tail_tol=1e-10)
        result = integral_zero_to(NumericFn(lambda x: x), 1.0, P1H, policy)
        assert result.status is IntegralStatus.CONVERGED
        assert result.tail_estimate <= policy.tail_tol


def _random_poly(rng, degree):
    return Polynomial(rat(rng.randint(-30, 30)) / rng.randint(1, 12) for _ in range(degree + 1))


class TestFloatHorner:
    """from_polynomial floats the coefficients once and must stay eval_poly's twin."""

    POINTS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.37, 2.75, -13.5, 1e-9, 3e5)

    def test_matches_eval_poly_bit_for_bit(self):
        rng = random.Random(4)
        polys = [Polynomial.zero(), Polynomial([rat("-7/3")])]
        polys += [_random_poly(rng, rng.randint(1, 9)) for _ in range(60)]
        for poly in polys:
            f = NumericFn.from_polynomial(poly)
            points = self.POINTS + tuple(rng.uniform(-4.0, 4.0) for _ in range(10))
            for x in points:
                expected = eval_poly(poly, x)
                assert math.copysign(1.0, f(x)) == math.copysign(1.0, expected)
                assert f(x) == expected, (poly, x)

    def test_deriv_at_zero_is_the_linear_coefficient(self):
        assert NumericFn.from_polynomial(Polynomial.zero()).deriv_at_zero == 0.0
        assert NumericFn.from_polynomial(Polynomial([5])).deriv_at_zero == 0.0
        poly = Polynomial([1, rat("-2/3"), 4])
        assert NumericFn.from_polynomial(poly).deriv_at_zero == float(rat("-2/3"))

    def test_overflowing_coefficient_fails_at_build(self, capsys):
        with pytest.raises(OverflowError):
            NumericFn.from_polynomial(Polynomial([rat(10) ** 400]))
        assert main(["integrate", "poly:1e400", "0", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def _naive_terms(f, a, params, to_zero):
    """The lattice terms as the two per-direction generators wrote them, calling f(x)."""
    p, q = params.as_floats()
    if params.regime is Regime.RATIO_LT_ONE:
        pre, num, den = ((p - q) * a, q, p) if to_zero else ((p - q) * a, p, q)
    else:
        pre, num, den = ((q - p) * a, p, q) if to_zero else ((q - p) * a, q, p)
    ratio = num / den
    w = 1.0 / den
    while True:
        yield pre * w * f(a * w)
        w *= ratio


def _naive_sum(f, a, params, to_zero):
    return _sum_series(_naive_terms(f, a, params, to_zero), DEFAULT_POLICY)


def _naive_pair(first, second, value):
    worst = max(first[3], second[3], key=[*IntegralStatus].index)  # listed mildest first
    return value, first[1] + second[1], first[2] + second[2], worst


def _fields(result):
    return result.value, result.terms_used, result.tail_estimate, result.status


# positive coefficients: |x f(x)| falls monotonically towards 0, so [0, b] sums converge
LATTICE_POLY = Polynomial([rat("3/7"), rat("5/2"), 0, rat("11/9"), rat("1/4")])


class TestLatticeAgainstNaiveSums:
    """Every integral equals, bit for bit, the naive generator fed to _sum_series.

    The naive polynomial integrand runs eval_poly's float branch per point;
    the tested one is NumericFn.from_polynomial, whose coefficients are
    floated once.
    """

    INTEGRANDS = {
        "poly": (
            NumericFn.from_polynomial(LATTICE_POLY),
            NumericFn(lambda x: eval_poly(LATTICE_POLY, float(x))),
        ),
        "powneg": (NumericFn(lambda x: x**-1.5),) * 2,
        "log": (NumericFn(math.log),) * 2,
    }

    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", ["1/2", "9/10", "99/100"])
    def test_grid(self, ratio, lt1, kind):
        r = rat(ratio)
        params = PqParams(1, r) if lt1 else PqParams(r, 1)
        f, naive = self.INTEGRANDS[kind]
        a, b = 0.75, 2.5
        assert _fields(integral_zero_to(f, b, params)) == _naive_sum(naive, b, params, True)
        upper, lower = _naive_sum(naive, b, params, True), _naive_sum(naive, a, params, True)
        assert _fields(integral(f, a, b, params)) == _naive_pair(upper, lower, upper[0] - lower[0])
        assert _fields(integral_to_infinity(f, a, params)) == _naive_sum(naive, a, params, False)
        down, up = _naive_sum(naive, 1.0, params, True), _naive_sum(naive, 1.0, params, False)
        assert _fields(integral_improper(f, params)) == _naive_pair(down, up, down[0] + up[0])
