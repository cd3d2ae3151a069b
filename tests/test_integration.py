"""Lattice integrals, convergence policy, and the two-sided identities."""

import hashlib
import itertools
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from pqcalc import integration
from pqcalc.cli import main
from pqcalc.errors import DegenerateRegimeError, DivergenceError, InvalidIntervalError, WrongRegimeError
from pqcalc.integration import (
    DEFAULT_POLICY,
    DIVERGENCE_WINDOW,
    RICHARDSON_BUDGET,
    BoundednessReport,
    IntegralResult,
    IntegralStatus,
    TruncationPolicy,
    _sum_counted,
    _sum_series,
    antiderive_poly,
    check_convergence_hypothesis,
    integral,
    integral_exact,
    integral_improper,
    integral_riemann_stieltjes,
    integral_to_infinity,
    integral_zero_to,
    integrate_by_parts,
    newton_leibniz_check,
)
from pqcalc.polynomials import NumericFn, Polynomial, eval_poly, pq_derive_poly
from pqcalc.scalars import PqParams, Regime, bracket, bracket_alpha, rat
from pqcalc.taylor import heine_series_eval

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

    @pytest.mark.parametrize(
        "max_terms, message",
        [
            (2.5, "max_terms must be an int, got 2.5"),
            ("10", "max_terms must be an int, got '10'"),
            (10**20, f"max_terms must be <= {sys.maxsize}, got {10**20}"),
        ],
        ids=["float", "str", "past-maxsize"],
    )
    def test_max_terms_refused_by_name(self, max_terms, message):
        # the summing loop counts with range(), which takes 10**20 and would run a non-stopping sum for ever
        with pytest.raises(ValueError) as info:
            TruncationPolicy(max_terms=max_terms)
        assert str(info.value) == message
        assert TruncationPolicy(max_terms=sys.maxsize).max_terms == sys.maxsize

    @pytest.mark.parametrize("tail_tol", [math.inf, math.nan])
    def test_non_finite_tail_tol_rejected(self, tail_tol):
        # an infinite tolerance would count every term as small and stop after three
        with pytest.raises(ValueError) as info:
            TruncationPolicy(tail_tol=tail_tol)
        assert str(info.value) == ("tail_tol must be finite" if tail_tol > 0 else "tail_tol must be > 0")


class TestZeroTo:
    def test_constant_telescopes(self):
        result = integral_zero_to(NumericFn(lambda x: 3.5), 1.0, P1H)
        assert result.status is IntegralStatus.CONVERGED
        assert result.value == pytest.approx(3.5, abs=1e-10)

    def test_linear_closed_form(self):
        result = integral_zero_to(NumericFn(lambda x: x), 1.0, P1H)
        assert result.value == pytest.approx(2 / 3, abs=1e-10)

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

    def test_regime_symmetry(self):
        f = NumericFn.from_polynomial(Polynomial([1, rat("-1/2"), 0, 2]))
        for a in (0.5, 1.0, 2.0):
            one = integral_zero_to(f, a, PqParams(1, rat("1/3")))
            other = integral_zero_to(f, a, PqParams(rat("1/3"), 1))
            assert one.value == pytest.approx(other.value, abs=1e-10)

    def test_jackson_terms_at_p_one(self):
        # the integral samples Jackson's lattice a, a q, a q^2, ... bit for bit; test_grid pins the term values
        for a in (0.5, 1.0, 2.0):
            points = []
            result = integral_zero_to(NumericFn(lambda x: points.append(x) or 1.0 / (1.0 + x)), a, P1H)
            assert points == [a * 0.5**k for k in range(result.terms_used)]


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
        def sampled(entry, *args):
            points = []
            entry(NumericFn(lambda x: points.append(x) or (x if x <= 1 else x**-3)), *args, P1H)
            return points

        down, up = sampled(integral_zero_to, 1.0), sampled(integral_to_infinity, 1.0)
        assert down == [0.5**k for k in range(len(down))]
        assert up == [2.0 ** (k + 1) for k in range(len(up))]
        assert sorted(down + up) == [2.0**k for k in range(1 - len(down), len(up) + 1)]
        assert sampled(integral_improper) == up + down


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

    def test_polynomial_antiderivative_at_infinity(self):
        # F(inf) of a polynomial F is read by float Horner; a constant F has no gap
        report = newton_leibniz_check(NumericFn.from_polynomial(Polynomial([5])), 1.0, math.inf, P1H)
        assert report.rhs == 0.0
        assert report.gap == 0
        assert report.status is IntegralStatus.CONVERGED

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


class TestFloatsOncePerIntegral:
    """The derivative integrands take p and q as floats once per integral, not once per term."""

    @pytest.mark.parametrize("params", [P1H, PqParams(1, rat("99/100")), PqParams(rat("1/2"), 1)])
    def test_conversions_do_not_grow_with_terms(self, monkeypatch, params):
        F = NumericFn.from_polynomial(Polynomial([0, 1, 0, 1]))
        g = NumericFn(math.exp, deriv_at_zero=1.0)
        calls = []
        real = PqParams.as_floats
        monkeypatch.setattr(PqParams, "as_floats", lambda self: calls.append(self) or real(self))
        report = newton_leibniz_check(F, 1.0, 2.0, params)
        assert report.status is IntegralStatus.CONVERGED
        assert len(calls) <= 4  # once for the integrand, once or twice per lattice side
        calls.clear()
        report = integrate_by_parts(F, g, 0.5, 1.5, params)
        assert report.status is IntegralStatus.CONVERGED
        assert len(calls) <= 7


class TestPlanOncePerPair:
    """A known-count table's stride and weights are worked out once per (ratio, L), not once per sum."""

    def test_repeated_integrals_reuse_the_plan(self, monkeypatch):
        integration._richardson_plan.cache_clear()
        calls = []
        real = integration._stride
        monkeypatch.setattr(integration, "_stride", lambda *pair: calls.append(pair) or real(*pair))
        fs = [NumericFn.from_polynomial(Polynomial([1] * (d + 1))) for d in (0, 3)]
        lattices = [_lattice("99/100", True), _lattice("99/100", False), _lattice("9/10", True)]
        for _ in range(3):
            for params in lattices:
                for f in fs:
                    assert integral_zero_to(f, 1.5, params).stop_reason == "accelerated"
                    assert integral(f, 0.5, 2.0, params).stop_reason == "accelerated"
        # both regimes of one q/p walk towards 0 by the same float step
        assert sorted(calls) == [(0.9, 1), (0.9, 4), (0.99, 1), (0.99, 4)]


class TestTermsCallFnDirectly:
    """The derivative integrands call each function's ``fn``; ``NumericFn.__call__`` runs only for the end values."""

    @pytest.mark.parametrize("params", [P1H, PqParams(1, rat("99/100")), PqParams(rat("1/2"), 1)])
    def test_no_call_per_term(self, monkeypatch, params):
        F = NumericFn.from_polynomial(Polynomial([0, 1, 0, 1]))
        g = NumericFn(math.exp, deriv_at_zero=1.0)
        want = newton_leibniz_check(F, 1.0, 2.0, params), integrate_by_parts(F, g, 0.5, 1.5, params)
        calls = []
        real = NumericFn.__call__
        monkeypatch.setattr(NumericFn, "__call__", lambda self, x: calls.append(x) or real(self, x))
        assert newton_leibniz_check(F, 1.0, 2.0, params) == want[0]
        assert calls == [2.0, 1.0]  # F(b) - F(a)
        calls.clear()
        assert integrate_by_parts(F, g, 0.5, 1.5, params) == want[1]
        assert calls == [1.5, 1.5, 0.5, 0.5]  # f(b) g(b) - f(a) g(a)


class TestResultSerialization:
    def test_json_dict_shape(self):
        result = integral_zero_to(NumericFn(lambda x: x), 1.0, P1H)
        payload = result.to_json_dict()
        assert set(payload) == {"value", "terms", "tail", "status", "stop_reason", "regime"}
        assert payload["status"] == "converged"
        assert payload["stop_reason"] == "accelerated"
        assert payload["regime"] == "lt1"
        gt = integral_zero_to(NumericFn(lambda x: x), 1.0, P13)
        assert gt.to_json_dict()["regime"] == "gt1"
        # JSON has no NaN or infinity
        stopped = result._replace(value=math.nan, tail_estimate=-math.inf).to_json_dict()
        assert (stopped["value"], stopped["tail"]) == (None, None)

    def test_result_value_semantics(self):
        result = IntegralResult(1.5, 3, 0.0, Regime.RATIO_LT_ONE, IntegralStatus.CONVERGED, "small_terms")
        assert repr(result) == (
            "IntegralResult(value=1.5, terms_used=3, tail_estimate=0.0, "
            f"regime={Regime.RATIO_LT_ONE!r}, status={IntegralStatus.CONVERGED!r}, stop_reason='small_terms')"
        )
        assert result == IntegralResult(
            value=1.5, terms_used=3, tail_estimate=0.0, regime=Regime.RATIO_LT_ONE,
            status=IntegralStatus.CONVERGED, stop_reason="small_terms",
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


class TestFloatHorner:
    """from_polynomial floats the coefficients once; tests/test_kernels.py holds it to eval_poly bit for bit."""

    def test_overflowing_coefficient_fails_at_build(self, capsys):
        with pytest.raises(OverflowError):
            NumericFn.from_polynomial(Polynomial([rat(10) ** 400]))
        assert main(["integrate", "poly:1e400", "0", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def _naive_walk(params, to_zero):
    """(prefactor, numerator, denominator) of the step, written out for each regime and direction."""
    p, q = params.as_floats()
    if params.regime is Regime.RATIO_LT_ONE:
        return (p - q, q, p) if to_zero else (p - q, p, q)
    return (q - p, p, q) if to_zero else (q - p, q, p)


def _naive_terms(f, a, params, to_zero):
    """The lattice terms, calling f(x)."""
    pre, num, den = _naive_walk(params, to_zero)
    pre *= a
    ratio = num / den
    w = 1.0 / den
    while True:
        yield pre * w * f(a * w)
        w *= ratio


def _naive_sum(f, a, params, to_zero, extrapolate=True, policy=DEFAULT_POLICY, components=0):
    """One side: a counted integrand through the counted summer, any other as a naive term stream."""
    pre, num, den = _naive_walk(params, to_zero)
    if components:
        return _sum_counted(f, a, pre, 1.0 / den, num / den, policy.max_terms, components)
    ratio = num / den if extrapolate else None
    return _sum_series(_naive_terms(f, a, params, to_zero), policy, ratio)


def _naive_pair(f, params, first, second, sign, policy=DEFAULT_POLICY, components=0):
    """Two sides, each summed once: the second extrapolated, the first only when the second converged."""
    y = _naive_sum(f, second[0], params, second[1], policy=policy, components=components)
    x = _naive_sum(f, first[0], params, first[1], y[3] in ("small_terms", "accelerated"), policy, components)
    # mildest first: the pair is accelerated, its tail a bound, only when both sides are
    reason = max(x[3], y[3], key=("accelerated", "small_terms", "max_terms", "divergent").index)
    return x[0] + sign * y[0], x[1] + y[1], x[2] + y[2], reason


def _fields(result):
    """The fields _sum_series returns; the status must be the one the stop reason reports."""
    converged = result.stop_reason in ("small_terms", "accelerated")
    assert result.status is (IntegralStatus.CONVERGED if converged else IntegralStatus(result.stop_reason))
    return result.value, result.terms_used, result.tail_estimate, result.stop_reason


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
    @pytest.mark.parametrize("ratio", ["1/2", "9/10", "99/100", "999/1000"])
    def test_grid(self, ratio, lt1, kind):
        r = rat(ratio)
        params = PqParams(1, r) if lt1 else PqParams(r, 1)
        f, naive = self.INTEGRANDS[kind]
        a, b = 0.75, 2.5
        count = {"components": f.components}  # the naive stream sums by the integrand's count too
        assert _fields(integral_zero_to(f, b, params)) == _naive_sum(naive, b, params, True, **count)
        assert _fields(integral(f, a, b, params)) == _naive_pair(naive, params, (b, True), (a, True), -1.0, **count)
        assert _fields(integral_to_infinity(f, a, params)) == _naive_sum(naive, a, params, False, **count)
        assert _fields(integral_improper(f, params)) == _naive_pair(
            naive, params, (1.0, True), (1.0, False), 1.0, **count
        )


class _Counted:
    """An integrand that counts its calls and raises `error` at call number `at`."""

    def __init__(self, fn, error=None, at=0):
        self.fn, self.error, self.at, self.calls = fn, error, at, 0

    def __call__(self, x):
        self.calls += 1
        if self.calls == self.at:
            raise self.error("integrand failed")
        return self.fn(x)


class TestLazyWalk:
    """The summing loop evaluates the integrand only at the lattice points the plain rules reached."""

    INTEGRANDS = {
        "poly": NumericFn.from_polynomial(LATTICE_POLY).fn,
        "powneg": lambda x: x**-1.5,
        "log": math.log,
        "recip": lambda x: 1.0 / x,
    }

    # every stop reason: the defaults, a loose tolerance (small terms) and a short cap
    POLICIES = {"default": DEFAULT_POLICY, "loose": TruncationPolicy(tail_tol=1e-3), "cap-7": TruncationPolicy(7)}

    @pytest.mark.parametrize("rules", sorted(POLICIES))
    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", ["1/2", "9/10", "99/100", "999/1000"])
    def test_one_evaluation_per_term_read(self, ratio, lt1, kind, rules):
        r = rat(ratio)
        params = PqParams(1, r) if lt1 else PqParams(r, 1)
        fn, policy = self.INTEGRANDS[kind], self.POLICIES[rules]
        a, b = 0.75, 2.5
        cases = [  # (entry, the naive sum of the same integral)
            (
                lambda f: integral_zero_to(f, b, params, policy),
                lambda f: _naive_sum(f, b, params, True, policy=policy),
            ),
            (
                lambda f: integral_to_infinity(f, a, params, policy),
                lambda f: _naive_sum(f, a, params, False, policy=policy),
            ),
            (
                lambda f: integral(f, a, b, params, policy),
                lambda f: _naive_pair(f, params, (b, True), (a, True), -1.0, policy),
            ),
            (
                lambda f: integral_improper(f, params, policy),
                lambda f: _naive_pair(f, params, (1.0, True), (1.0, False), 1.0, policy),
            ),
        ]
        for entry, naive in cases:
            ours, theirs = _Counted(fn), _Counted(fn)
            result = entry(NumericFn(ours))
            assert _fields(result) == naive(theirs)
            assert ours.calls == theirs.calls == result.terms_used


class TestIntegrandErrors:
    """An exception from the integrand surfaces from every public entry, StopIteration included."""

    ENTRIES = {
        "zero-to": lambda f, params: integral_zero_to(f, 2.5, params),
        "to-infinity": lambda f, params: integral_to_infinity(f, 0.75, params),
        "interval": lambda f, params: integral(f, 0.75, 2.5, params),
        "improper": lambda f, params: integral_improper(f, params),
        "riemann-stieltjes": lambda f, params: integral_riemann_stieltjes(f, NumericFn(lambda x: x * x), 1.5, params),
    }

    # the Riemann-Stieltjes form is derived for |q/p| < 1 only
    LATTICES = {"lt1": PqParams(1, rat("9/10")), "gt1": PqParams(rat("9/10"), 1)}
    CASES = [(entry, "lt1") for entry in sorted(ENTRIES)]
    CASES += [(entry, "gt1") for entry in sorted(ENTRIES) if entry != "riemann-stieltjes"]

    @pytest.mark.parametrize("entry, lattice", CASES)
    @pytest.mark.parametrize("at", [1, 2, 7])
    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, OverflowError])
    def test_error_at_the_kth_point(self, error, at, entry, lattice):
        f = _Counted(lambda x: x, error, at)
        with pytest.raises(error, match="integrand failed"):
            self.ENTRIES[entry](NumericFn(f), self.LATTICES[lattice])
        assert f.calls == at

    @pytest.mark.parametrize("entry, lattice", CASES)
    @pytest.mark.parametrize("at", [1, 2, 7])
    def test_stop_iteration_is_no_end_of_series(self, at, entry, lattice):
        # a StopIteration taken for the end of a stream would return a max_terms result
        f = _Counted(lambda x: x, StopIteration, at)
        with pytest.raises(RuntimeError) as info:
            self.ENTRIES[entry](NumericFn(f), self.LATTICES[lattice])
        assert isinstance(info.value.__cause__, StopIteration)
        assert f.calls == at


RATIOS = ("1/2", "9/10", "99/100", "999/1000")


def _lattice(ratio, lt1, scale=1):
    r = rat(ratio)
    return PqParams(scale, scale * r) if lt1 else PqParams(scale * r, scale)


def _plain_terms(f, a, params, to_zero):
    """Terms the plain rules alone take: the summer without the lattice ratio."""
    return _sum_series(_naive_terms(f, a, params, to_zero), DEFAULT_POLICY)[1]


class TestIntegralExact:
    def test_fundamental_theorem_value(self):
        f = Polynomial([1, -2, 0, 3])
        assert integral_exact(f, 0, 1, PqParams(1, rat("999/1000"))) == rat("2998001999/3994003999")
        assert integral_exact(f, rat("1/2"), 2, P13) == (
            eval_poly(antiderive_poly(f, P13), rat(2)) - eval_poly(antiderive_poly(f, P13), rat("1/2"))
        )

    def test_monomial_law(self):
        for params in (P1H, P13, PqParams(rat("2/3"), rat(2))):
            for n in range(7):
                exact = integral_exact(Polynomial.monomial(n), 0, 2, params)
                assert exact == rat(2) ** (n + 1) / bracket(n + 1, params)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (-1, 1)])
    def test_invalid_intervals(self, a, b):
        with pytest.raises(InvalidIntervalError):
            integral_exact(Polynomial([1]), a, b, P1H)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRegimeError):
            integral_exact(Polynomial([1]), 0, 1, PqParams(2, -2))


class TestExtrapolation:
    """Known-ratio Richardson on [0, a], observed-ratio Aitken on [a, infinity)."""

    @staticmethod
    def _polys():
        rng = random.Random(12)
        yield from (Polynomial.monomial(n) for n in range(7))
        # on [0, 1] at p = 1, q = 1/2 (stride 2), 1 - (6/5) x has S_2 = 0 and
        # 3/16 - (9/8) x + x^2 has S_2 = S_4 = 0: their first extrapolants
        # agree on 0 before the Richardson table is exact
        yield Polynomial([1, rat("-6/5")])
        yield Polynomial([rat("3/16"), rat("-9/8"), 1])
        for _ in range(12):
            degree = rng.randint(0, 6)
            yield Polynomial(
                [rat(rng.randint(-9, 9)) / rng.randint(1, 9) for _ in range(degree)]
                + [rat(rng.choice((-1, 1)) * rng.randint(1, 9)) / rng.randint(1, 9)]
            )

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_polynomials_against_the_exact_integral(self, ratio, lt1):
        # the count alone sets the cost, L strides of m_L, which is not always below the plain rules':
        # they stop some sums sooner but wrongly (divergent after 8 terms at 99/100 and 999/1000, or
        # small_terms on degree 6 there), and some accurately (small_terms on x^4-x^6 at 1/2 after 8-12
        # terms, where the dense table of L levels takes 10-14)
        for scale in (1, rat("1/3")):
            params = _lattice(ratio, lt1, scale)
            _, num, den = _naive_walk(params, True)
            for f in self._polys():
                levels = len(f.coeffs)
                for a in (rat("1/2"), rat(1), rat("9/4")):
                    result = integral_zero_to(NumericFn.from_polynomial(f), float(a), params)
                    exact = integral_exact(f, 0, a, params)
                    error = abs(Fraction(result.value) - exact)
                    assert result.stop_reason == "accelerated", (f, a, params)
                    assert error <= 1e-12 * max(1, abs(exact)), (f, a, params)
                    assert result.tail_estimate >= error, (f, a, params)
                    assert result.terms_used == levels * self._shortest_stride(num / den, levels)

    @staticmethod
    def _shortest_stride(ratio, levels):
        """The first m >= 2 whose table of `levels` levels fits the budget, or the black-box stride."""
        longest = max(2, math.ceil(0.5 / (1.0 - abs(ratio))))
        for m in range(2, longest):
            lam = power = ratio**m
            amplification = 1.0
            for _ in range(levels):
                amplification *= 1.0 + 2.0 * abs(power / (1.0 - power))
                power *= lam
            if amplification <= RICHARDSON_BUDGET:
                return m
        return longest

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", [*RATIOS, "-1/2"])
    def test_a_full_table_is_accepted_at_its_first_checkpoint(self, ratio, lt1):
        # d + 1 = L components, one level each: the sum stops at L strides m_L, with a tail that bounds
        # its error against the exact integral, on a lattice of either sign
        rng, sign = random.Random(ratio), -1 if ratio.startswith("-") else 1
        for scale in (1, rat("3/2")):
            params = _lattice(ratio, lt1, scale)
            _, num, den = _naive_walk(params, True)
            for d in range(7):
                for _ in range(2):
                    f = Polynomial([sign**n * rat(rng.randint(1, 9)) / rng.randint(1, 9) for n in range(d + 1)])
                    for a in (rat("1/2"), rat("9/4")):
                        result = integral_zero_to(NumericFn.from_polynomial(f), float(a), params)
                        error = abs(Fraction(result.value) - integral_exact(f, 0, a, params))
                        assert result.stop_reason == "accelerated", (f, a, params, result)
                        assert result.terms_used == (d + 1) * self._shortest_stride(num / den, d + 1)
                        assert result.tail_estimate >= error, (f, a, params, result)

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    def test_steep_power_tails_cover_the_lattice_sum(self, lt1):
        # x^-s on [a, infinity) is one geometric series; a steep s multiplies the rounding of each
        # lattice point by s, which the tail of an accelerated stop must carry
        covered = 0
        for ratio in ("1/2", "2/3", "3/4", "9/10", "19/20", "99/100", "999/1000"):
            params = _lattice(ratio, lt1)
            big, small = (params.p, params.q) if lt1 else (params.q, params.p)
            for s in (1.0001, 1.01, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 60.0, 200.0):
                for a in (0.3, 1.0, 7.0):
                    result = integral_to_infinity(NumericFn(lambda x, s=s: x**-s), a, params)
                    if result.stop_reason != "accelerated":
                        continue
                    # terms (big - small) a w_k (a w_k)^-s with w_k = (big/small)^k / small, at 60 digits
                    with localcontext() as ctx:
                        ctx.prec = 60
                        hi, lo = (Decimal(x.numerator) / x.denominator for x in (big, small))
                        e = 1 - Decimal(s)
                        exact = (hi - lo) * (Decimal(a) / lo) ** e / (1 - (hi / lo) ** e)
                        error = abs(Decimal(result.value) - exact)
                    assert error <= Decimal(result.tail_estimate), (ratio, s, a, result)
                    covered += 1
        assert covered >= 180

    @pytest.mark.parametrize("counted", [True, False], ids=["counted", "black-box"])
    def test_vanishing_checkpoint_sums_are_no_limit(self, counted):
        # on [0, 1] at p = 1, q = 1/2 (stride 2) this cubic has S_2 = S_4 = S_6 = 0 exactly in floats;
        # the counted integrand's full table needs no guard, and the black box's summer has one against
        # a vanishing checkpoint sum
        f = Polynomial([-85, 2142, -9520, 7680])
        params = PqParams(1, rat("1/2"))
        fn = NumericFn.from_polynomial(f) if counted else NumericFn(lambda x: eval_poly(f, x))
        result = integral_zero_to(fn, 1.0, params)
        exact = integral_exact(f, 0, 1, params)
        assert exact == -1
        assert result.stop_reason == "accelerated"
        assert abs(Fraction(result.value) - exact) <= result.tail_estimate <= 1e-12

    @pytest.mark.parametrize(
        "coeffs,q",
        [
            # c_2/c_3 = -119/96 makes the third extrapolant equal the second exactly; exact -2185
            ("-85,-2142,-4760,3840", "1/2"),
            # the first checkpoint sums vanish as rationals but leave roundoff; exact 32768/1279395
            ("49664/98415,-412832/85293,14744/1215,-8", "2/3"),
        ],
        ids=["equal-extrapolants", "rational-zero-sums"],
    )
    def test_coincident_extrapolants_are_no_limit(self, coeffs, q):
        f = Polynomial.from_string(coeffs)
        params = PqParams(1, rat(q))
        result = integral_zero_to(NumericFn.from_polynomial(f), 1.0, params)
        assert abs(Fraction(result.value) - integral_exact(f, 0, 1, params)) <= result.tail_estimate

    def test_the_zero_polynomial_stops_on_three_zeros(self):
        # it counts no component, so it is a black box, and its zeros are a small run on both sides
        f = NumericFn.from_polynomial(Polynomial.zero())
        for params in (P1H, P13):
            for result in (integral_zero_to(f, 5.0, params), integral_to_infinity(f, 5.0, params)):
                assert (result.value, result.terms_used, result.stop_reason) == (0.0, 3, "small_terms")

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", ["1/2", "1/4"])
    def test_lattice_roots_are_no_tail(self, ratio, lt1):
        # f = (x + 1)^(d-k) (x - x_s) ... (x - x_{s+k-1}) on the [0, a] lattice x_j = a r^j, whose
        # dyadic points make each of those k terms an exact 0.0; s = 0 puts the roots at the head
        params, r = _lattice(ratio, lt1), rat(ratio)
        for d in range(1, 6):
            for k in range(1, d + 1):
                for s in (0, 1, 4):
                    for a in (rat(1), rat("3/2")):
                        roots = [Polynomial([-a * r**j, 1]) for j in range(s, s + k)]
                        f = math.prod([Polynomial([1, 1])] * (d - k) + roots)
                        result = integral_zero_to(NumericFn.from_polynomial(f), float(a), params)
                        error = abs(Fraction(result.value) - integral_exact(f, 0, a, params))
                        # an accelerated tail bounds the error; a small-terms tail is only the last
                        # term, so that stop answers to the tolerance of its rule
                        bound = result.tail_estimate if result.stop_reason == "accelerated" else DEFAULT_POLICY.tail_tol
                        assert result.status is not IntegralStatus.CONVERGED or error <= bound, (d, k, s, a, result)

    def test_inexact_lattice_roots_are_no_tail(self):
        # roots 1, 9/10 and 81/100 are lattice points 0-2 of [0, 1] at p = 1, q = 9/10, where the float
        # Horner gives about 1e-17: three such terms were a small run, which no counted sum reads
        f = Polynomial.from_string("-729/1000,2439/1000,-271/100,1")
        params = PqParams(1, rat("9/10"))
        result = integral_zero_to(NumericFn.from_polynomial(f), 1.0, params)
        error = abs(Fraction(result.value) - integral_exact(f, 0, 1, params))
        assert (result.stop_reason, result.terms_used) == ("accelerated", 16)
        assert error <= result.tail_estimate <= 1e-14

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_power_tail_against_its_geometric_sum(self, ratio, lt1):
        params = _lattice(ratio, lt1)
        big, small = (params.p, params.q) if lt1 else (params.q, params.p)
        # terms (big - small) a w_k (a w_k)^{-s}, w_k = (1/small) (big/small)^k
        log_step = math.log1p(float((big - small) / small))
        for s in (1.25, 1.5, 2.0, 3.0):
            for a in (0.5, 1.0, 3.0):
                f = NumericFn(lambda x, s=s: x**-s)
                result = integral_to_infinity(f, a, params)
                first = float(big - small) * a ** (1 - s) * float(1 / small) ** (1 - s)
                exact = first / -math.expm1((1 - s) * log_step)
                error = abs(result.value - exact)
                assert result.stop_reason == "accelerated"
                assert result.terms_used < _plain_terms(f, a, params, False)
                assert error <= 1e-10 * exact
                assert result.tail_estimate >= error

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_fractional_power_falls_back_or_covers(self, ratio, lt1):
        # x^{-1/2} has the component ratio^{1/2}, which no Richardson level removes
        params = _lattice(ratio, lt1)
        for alpha in (-0.5, 0.5):
            for a in (0.5, 1.0, 3.0):
                result = integral_zero_to(NumericFn(lambda x, al=alpha: x**al), a, params)
                exact = a ** (alpha + 1) / bracket_alpha(alpha + 1, params).value
                assert result.stop_reason != "accelerated" or result.tail_estimate >= abs(result.value - exact)

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_divergent_integrands_never_converge(self, ratio, lt1):
        params = _lattice(ratio, lt1)
        for f in (NumericFn(lambda x: 1.0 / x), NumericFn(lambda x: x**-2.0)):
            assert integral_zero_to(f, 1.0, params).status is IntegralStatus.DIVERGENCE_DETECTED
        for r in (0.5, 1.5, 2.0, 3.0):
            result = integral_improper(NumericFn(lambda x, r=r: x**-r), params)
            assert result.status is not IntegralStatus.CONVERGED

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize(
        "ratio", ["1/2", "3/4", "7/8", "9/10", "19/20", "97/100", "99/100", "199/200", "995/1000", "999/1000", "9999/10000"]
    )
    def test_reciprocal_tails_never_converge(self, ratio, lt1):
        # every [a, infinity) term of c/x has the magnitude |c| (p - q) / p, up to roundoff, so the
        # observed ratio is 1 - O(u): an Aitken step on it would extrapolate a constant series
        params = _lattice(ratio, lt1)
        for c in (1.0, 2.0, -0.7):
            for a in (0.3, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0):
                result = integral_to_infinity(NumericFn(lambda x, c=c: c / x), a, params)
                assert result.status is not IntegralStatus.CONVERGED, (c, a, result)

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_results_the_plain_rules_stop_are_unchanged(self, ratio, lt1):
        """A black box's sum not stopped by extrapolation is, field for field, the plain sum."""
        params = _lattice(ratio, lt1)
        integrands = (NumericFn(math.log), NumericFn(lambda x: x**-0.5), NumericFn(lambda x: 1.0 / x))
        for f in integrands:
            for a, to_zero in ((0.75, True), (2.5, True), (1.0, False)):
                one_sided = integral_zero_to if to_zero else integral_to_infinity
                result = one_sided(f, a, params)
                if result.stop_reason != "accelerated":
                    plain = _sum_series(_naive_terms(f, a, params, to_zero), DEFAULT_POLICY)
                    assert _fields(result) == plain
            result = integral(f, 0.75, 2.5, params)
            if result.status is not IntegralStatus.CONVERGED:
                upper = _sum_series(_naive_terms(f, 2.5, params, True), DEFAULT_POLICY)
                lower = _sum_series(_naive_terms(f, 0.75, params, True), DEFAULT_POLICY)
                assert result.value == upper[0] - lower[0]
                assert result.terms_used == upper[1] + lower[1]


class TestCountedSums:
    """An integrand with a component count is summed by it alone: no rule, gate or tolerance runs."""

    LATTICES = {"lt1": P1H, "gt1": PqParams(rat("1/2"), 1)}

    @pytest.mark.parametrize("lattice", sorted(LATTICES))
    def test_polynomials_diverge_towards_infinity(self, lattice):
        # every component of a nonzero polynomial grows on [a, infinity): a tiny constant's terms are
        # small, and the cubic's first three [1, infinity) lattice points 2, 4, 8 are its roots
        params = self.LATTICES[lattice]
        for coeffs in ("1e-20", "-64,56,-14,1"):
            f = NumericFn.from_polynomial(Polynomial.from_string(coeffs))
            terms = list(itertools.islice(_naive_terms(f.fn, 1.0, params, False), DIVERGENCE_WINDOW))
            expected = (list(itertools.accumulate(terms))[-1], DIVERGENCE_WINDOW, abs(terms[-1]), "divergent")
            assert _fields(integral_to_infinity(f, 1.0, params)) == expected
            # the same integrand as a black box: its small terms, or its three roots, are a small run
            assert integral_to_infinity(NumericFn(f.fn), 1.0, params).stop_reason == "small_terms"

    @pytest.mark.parametrize("lattice", sorted(LATTICES))
    def test_a_capped_sum_is_its_partial_sum(self, lattice):
        # max_terms below the L m terms of the full table on [0, a], or below the divergence window
        params, policy = self.LATTICES[lattice], TruncationPolicy(max_terms=3)
        f = NumericFn.from_polynomial(Polynomial.from_string("1,-64,56,-14,1"))
        for one_sided, a, to_zero in ((integral_zero_to, 1.0, True), (integral_to_infinity, 1.0, False)):
            terms = list(itertools.islice(_naive_terms(f.fn, a, params, to_zero), 3))
            expected = (list(itertools.accumulate(terms))[-1], 3, abs(terms[-1]), "max_terms")
            assert _fields(one_sided(f, a, params, policy)) == expected


class TestTwoSided:
    """A two-sided integral extrapolates both of its sides."""

    INTEGRANDS = {
        "poly": NumericFn.from_polynomial(LATTICE_POLY),
        "recip": NumericFn(lambda x: 1.0 / x),
        "log": NumericFn(math.log),
        "powneg": NumericFn(lambda x: x**-1.5),
    }

    def test_failing_first_side_leaves_the_second_extrapolated(self):
        # the [0, 1] side diverges in 8 terms; the [1, infinity) side is Aitken-extrapolated
        params = PqParams(1, rat("999/1000"))
        f = NumericFn(lambda x: x**-1.5)
        result = integral_improper(f, params)
        assert result.status is IntegralStatus.DIVERGENCE_DETECTED
        assert result.terms_used <= 1_100
        tail = integral_to_infinity(f, 1.0, params)
        assert tail.stop_reason == "accelerated"
        assert result.value == integral_zero_to(f, 1.0, params).value + tail.value

    def test_accelerated_only_when_both_sides_are(self):
        # the [0, 3] side of e^x at 99/100 is extrapolated, but with a loose tolerance the small run stops
        # the [0, 0.5] side, whose tail bounds nothing: its error is 0.09 against a tail of 1e-3
        params, policy, f = PqParams(1, rat("99/100")), TruncationPolicy(tail_tol=1e-3), NumericFn(math.exp)
        upper, lower = integral_zero_to(f, 3.0, params, policy), integral_zero_to(f, 0.5, params, policy)
        result = integral(f, 0.5, 3.0, params, policy)
        assert (upper.stop_reason, lower.stop_reason, result.stop_reason) == ("accelerated", "small_terms", "small_terms")
        assert result.value == upper.value - lower.value

    @pytest.mark.parametrize("kind", sorted(INTEGRANDS))
    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio", ["1/2", "99/100"])
    def test_converged_exactly_when_both_sides_converge(self, ratio, lt1, kind):
        params = _lattice(ratio, lt1)
        f = self.INTEGRANDS[kind]
        cases = [
            (integral(f, a, b, params), integral_zero_to(f, b, params), integral_zero_to(f, a, params), -1.0)
            for a, b in ((0.75, 2.5), (0.5, 3.0))
        ]
        sides = (integral_zero_to(f, 1.0, params), integral_to_infinity(f, 1.0, params))
        cases.append((integral_improper(f, params), *sides, 1.0))
        for result, x, y, sign in cases:
            both = x.status is y.status is IntegralStatus.CONVERGED
            assert (result.status is IntegralStatus.CONVERGED) == both
            assert (result.stop_reason == "accelerated") == (x.stop_reason == y.stop_reason == "accelerated")
            if both:
                assert result.value == x.value + sign * y.value
                assert result.terms_used == x.terms_used + y.terms_used


class TestRegimeOncePerCall:
    """Each public lattice entry derives the regime once and passes it down."""

    @pytest.fixture
    def reads(self, monkeypatch):
        count = [0]
        derive = PqParams.regime.fget

        def counted(params):
            count[0] += 1
            return derive(params)

        monkeypatch.setattr(PqParams, "regime", property(counted))
        return count

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("kind", ["poly", "recip"])
    def test_each_entry_reads_the_regime_once(self, reads, kind, lt1):
        params = P1H if lt1 else P13
        f = TestTwoSided.INTEGRANDS[kind]
        calls = [
            lambda: integral_zero_to(f, 1.5, params),
            lambda: integral_zero_to(f, 0.0, params),
            lambda: integral_to_infinity(f, 1.5, params),
            lambda: integral_improper(f, params),
            lambda: integral(f, 0.5, 2.0, params),
            lambda: integral(f, 0.0, 2.0, params),
            lambda: integral(f, 1.0, math.inf, params),
            lambda: integral(f, 0.0, math.inf, params),
        ]
        if lt1:
            calls.append(lambda: integral_riemann_stieltjes(f, NumericFn(lambda x: x * x), 1.0, params))
        for call in calls:
            reads[0] = 0
            result = call()
            assert reads[0] == 1
            assert result.regime is (Regime.RATIO_LT_ONE if lt1 else Regime.RATIO_GT_ONE)


def _digest(rows):
    """sha256 of the result rows, one line each, and how many rows stopped for each reason."""
    text = "\n".join(" ".join(map(str, row)) for row in rows)
    reasons = {}
    for row in rows:
        reasons[row[-1]] = reasons.get(row[-1], 0) + 1
    return hashlib.sha256(text.encode()).hexdigest(), reasons


def _row(value, terms, tail, reason):
    return value.hex(), terms, tail.hex(), reason


class TestSummerPins:
    """The lattice summer's results, bit for bit, on the public entries and on raw sequences.

    The pins were computed once and must not move when the summer is
    restructured: a changed digest means some result changed in some bit,
    and the per-reason counts show which stopping rule moved.
    """

    # built from +, * and / only, so no value depends on the platform's libm
    INTEGRANDS = (
        NumericFn.from_polynomial(Polynomial([rat("3/7"), rat("1/2"), 0, rat("1/4")])),  # monotone cubic
        NumericFn.from_polynomial(Polynomial([3, -7, 0, 2])),  # |x f(x)| rises and falls
        NumericFn(lambda x: 1.0 / x),
        NumericFn(lambda x: 1.0 / (x * x)),
    )
    # the checkpoint stride m on each side; at 9/10, 0.5 / (1 - 0.9) rounds above 5 on [0, a]
    STRIDES = {"1/2": (2,), "9/10": (5, 6), "99/100": (50,)}
    ENTRY_DIGEST = "a169d414ebde7c83d102dc1c0e52131442f6a0d6123d9d156e4da4edd85d967f"
    ENTRY_REASONS = {"accelerated": 110, "divergent": 313, "small_terms": 4, "max_terms": 805, "heine": 2}
    RAW_DIGEST = "31ab2a128ac1ceb715c55f9ca0139567826726c6bee2e9ad3b3b30cd256353ac"
    RAW_REASONS = {"max_terms": 8046, "small_terms": 1688, "accelerated": 629, "divergent": 707}

    def _entry_rows(self):
        g = NumericFn(lambda x: x * x)
        for ratio, strides in self.STRIDES.items():
            counts = sorted({n for m in strides for n in (1, 2, 3, m - 1, m, m + 1, m + 2, 2 * m)})
            policies = [DEFAULT_POLICY, TruncationPolicy(tail_tol=1e-3)]
            policies += [TruncationPolicy(max_terms=n) for n in counts]
            for lt1 in (True, False):
                params = _lattice(ratio, lt1)
                for f in self.INTEGRANDS:
                    for policy in policies:
                        results = [
                            integral_zero_to(f, 2.5, params, policy),
                            integral_to_infinity(f, 0.75, params, policy),
                            integral(f, 0.75, 2.5, params, policy),
                            integral(f, 0.0, 2.5, params, policy),
                            integral_improper(f, params, policy),
                        ]
                        if lt1:
                            results.append(integral_riemann_stieltjes(f, g, 1.5, params, policy))
                        for result in results:
                            yield _row(*_fields(result))
        for n, x, params in ((2, 0.5, P1H), (3, -0.25, PqParams(1, rat("2/3")))):
            yield _row(heine_series_eval(n, x, params), 0, 0.0, "heine")

    def test_public_lattice_entries(self):
        digest, reasons = _digest(list(self._entry_rows()))
        assert reasons == self.ENTRY_REASONS
        assert digest == self.ENTRY_DIGEST

    @staticmethod
    def _raw_rows():
        rng = random.Random(1717)
        values = (0.0, 1e-13, -1e-13, 1.0, -0.5, 1e300, math.inf, math.nan)
        ratios = [None]
        for r in (0.5, 0.9, 2.0, -3.0):
            ratios += [r, 1.0 / r]
        for ratio in ratios:
            for max_terms in (1, 2, 3, 4, 5, 6, 7, 10, 20, 10_000):
                for tail_tol in (1e-12, 1e-3, 0.6):
                    policy = TruncationPolicy(max_terms=max_terms, tail_tol=tail_tol)
                    for length in range(41):
                        if length % 2:  # drawn from the special values
                            terms = [rng.choice(values) for _ in range(length)]
                        else:  # geometric in the ratio or its reciprocal, with some draws mixed in
                            step = rng.choice((ratio or 0.5, 1.0 / (ratio or 2.0)))
                            terms = [rng.choice((1.0, -0.5))]
                            while len(terms) < length:
                                terms.append(terms[-1] * step)
                            del terms[length:]
                            for _ in range(rng.randrange(3)):
                                if terms:
                                    terms[rng.randrange(length)] = rng.choice(values)
                        yield _row(*_sum_series(iter(terms), policy, ratio))

    def test_raw_sequences(self):
        digest, reasons = _digest(list(self._raw_rows()))
        assert reasons == self.RAW_REASONS
        assert digest == self.RAW_DIGEST


class TestSummerBoundaries:
    """Each boundary of the summer's rules, decided on a term stream that sits exactly on it."""

    def test_a_term_equal_to_tail_tol_is_small(self):
        terms = [1.0, 1e-12, 1e-12, 1e-12, 0.5, 0.25]
        total = list(itertools.accumulate(terms))[3]
        assert _sum_series(terms, TruncationPolicy(tail_tol=1e-12)) == (total, 4, 1e-12, "small_terms")

    @pytest.mark.parametrize("ratio", [None, 0.5, 2.0], ids=["plain", "richardson", "aitken"])
    @pytest.mark.parametrize("first", [1.0, -1e-13, 1e300], ids=["one", "small", "huge"])
    def test_nan_terms_are_not_falling(self, first, ratio):
        # a NaN magnitude is neither small nor below the last one, so it extends the non-decreasing run
        terms = itertools.chain([first], itertools.repeat(math.nan))
        value, count, tail, reason = _sum_series(terms, DEFAULT_POLICY, ratio)
        assert (reason, count) == ("divergent", DIVERGENCE_WINDOW)
        assert math.isnan(value) and math.isnan(tail)

    def test_heine_series_at_nan_is_divergent(self):
        # the first term is nan**0 = 1.0, every later one NaN
        with pytest.raises(DivergenceError):
            heine_series_eval(2, math.nan, P1H)

    def test_a_checkpoint_term_as_large_as_the_last_one_is_not_falling(self):
        # stride 2 at ratio 1/2, and the checkpoint sums 3/4, 15/16, 63/64 lose exactly lam = 1/4
        # of their gap to 1 per checkpoint, so at count 6 both levels read 1.0 with two zero
        # differences; only |t_6| = |t_4| = 1/32 keeps that from being accepted
        terms = [0.375, 0.375, 0.15625, 0.03125, 0.015625, 0.03125]
        assert _sum_series(terms, DEFAULT_POLICY, 0.5) == (0.984375, 6, 0.03125, "max_terms")
        falling = terms[:5] + [0.03125 * (1 - 2.0**-52)]
        value, count, _, reason = _sum_series(falling, DEFAULT_POLICY, 0.5)
        assert (value, count, reason) == (1.0, 6, "accelerated")

    def test_a_level_whose_factor_is_unit_roundoff_is_built(self):
        # stride 2, lam = ratio**2 and lam * lam * lam == 2**-53 exactly, so the third
        # checkpoint builds level 3; its factor moves the accepted value in its last bits
        ratio = 0.002192308688104244
        lam = ratio**2
        powers = [lam, lam * lam, lam * lam * lam]
        assert powers[2] == 2.0**-53
        terms = [3.0, 3000.0, -0.002, -3000.0, -0.03, -3.0]
        sums = list(itertools.accumulate(terms))[1::2]

        def richardson(levels):
            factors = [w / (1.0 - w) for w in powers[:levels]]
            row = [0.0]
            for total in sums:
                new_row = [total]
                for factor, old in zip(factors, row):
                    new_row.append(new_row[-1] + (new_row[-1] - old) * factor)
                row = new_row
            return row[-1]

        value, count, _, reason = _sum_series(terms, TruncationPolicy(tail_tol=100.0), ratio)
        assert (value, count, reason) == (richardson(3), 6, "accelerated")
        assert richardson(3) != richardson(2)

    @pytest.mark.parametrize(
        "first, ratio, step",
        [(1.0, "1/2", 2.0), (3.0, "-1/2", -2.0), (-0.5, "3/4", 4 / 3), (1.0, "7/8", 8 / 7), (2.0, "15/16", 16 / 15)],
    )
    def test_one_geometric_series_is_accepted_one_stride_after_the_run_up(self, first, ratio, step):
        # dyadic terms and limits, so each Aitken extrapolant is the limit exactly and the first
        # difference, at count m + 2, is 0 with the observed ratio unchanged
        terms = [float(first * rat(ratio) ** n) for n in range(60)]
        stride = max(2, math.ceil(0.5 / (1.0 - 1.0 / abs(step))))
        value, count, _, reason = _sum_series(terms, DEFAULT_POLICY, step)
        assert (value, count, reason) == (float(first / (1 - rat(ratio))), stride + 2, "accelerated")

    def test_a_changing_observed_ratio_needs_a_second_difference(self):
        # stride 2: both streams have the extrapolants 2.0 at counts 2 and 4, but only the first
        # keeps its observed ratio 1/2 there; the second's drops from 1/2 to 1/4
        steady = [0.5**n for n in range(40)]
        changing = [1.0, 0.5] + [0.375 * 0.25**n for n in range(38)]
        for terms, count in ((steady, 4), (changing, 6)):
            value, used, _, reason = _sum_series(terms, DEFAULT_POLICY, 2.0)
            assert (value, used, reason) == (2.0, count, "accelerated")
        # the first 15 terms of _raw_rows() 9756 and 9775, whose extrapolants at counts 2 and 4 are
        # both 1e300, by observed ratios 1e-300 and -0.0
        nan, inf = math.nan, math.inf
        for tail_tol, terms in (
            (1e-12, [1e300, 1.0, -1e-13, 0.0, nan, 0.0, 1e300, nan, -1e-13, -0.5, -0.5, 1e-13, 1e-13, nan, -0.5]),
            (1e-3, [1e300, 1.0, -1e-13, 0.0, 1e300, 0.0, 1e-13, inf, nan, 1.0, nan, nan, -0.5, -0.5, 1e-13]),
        ):
            assert _sum_series(terms, TruncationPolicy(tail_tol=tail_tol), -3.0)[3] != "accelerated"

    @pytest.mark.parametrize("lt1", [True, False], ids=["lt1", "gt1"])
    @pytest.mark.parametrize("ratio, stride", [("1/2", 2), ("9/10", 5), ("99/100", 50), ("999/1000", 500)])
    def test_a_second_power_waits_for_its_component_to_fade(self, ratio, stride, lt1):
        # on [a, infinity) the terms of x^-s are one geometric series of ratio R^(s-1), R the float
        # lattice's q/p as a rational; x^-2 stops one stride after the run-up, x^-2 + x^-3 does not
        params = _lattice(ratio, lt1)
        big, small = (params.p, params.q) if lt1 else (params.q, params.p)
        R = Fraction(float(small / big))
        policy = TruncationPolicy(max_terms=20_000)
        for a in (rat("3/4"), rat(1), rat(3)):
            series = {s: (1 - R) * a ** (1 - s) * R ** (s - 1) / (1 - R ** (s - 1)) for s in (2, 3)}
            one = integral_to_infinity(NumericFn(lambda x: x**-2), float(a), params, policy)
            two = integral_to_infinity(NumericFn(lambda x: x**-2 + x**-3), float(a), params, policy)
            for result, exact in ((one, series[2]), (two, series[2] + series[3])):
                error = abs(Fraction(result.value) - exact)
                assert result.stop_reason == "accelerated", (a, result)
                assert error <= min(1e-9, result.tail_estimate), (a, result)
            assert one.terms_used == stride + 2 < two.terms_used
