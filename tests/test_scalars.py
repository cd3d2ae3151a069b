"""Exact scalar layer: brackets, factorials, binomials, parameter guards."""

import copy
import decimal
import math
import pickle
import re
import random

import pytest

from pqcalc.errors import (
    DegenerateRegimeError,
    NegativeArgumentError,
    NonPositiveBaseError,
    OutOfRangeError,
)
from pqcalc import scalars
from pqcalc.pqpower import Orientation, PqPowerExpr
from pqcalc.scalars import (
    FloatScalar,
    PqParams,
    Rat,
    Regime,
    TruncationPolicy,
    _bracket_ints,
    _falling_vanishes,
    bracket,
    bracket_alpha,
    bracket_falling,
    pq_binomial,
    pq_factorial,
    _float_view,
    rat,
    rat_float,
    rat_from_ints,
    rat_str,
)
from pqcalc.taylor import PowerBasisExpansion


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


class TestRatFromInts:
    """``rat_from_ints(n, d)`` is ``Rat(n, d)``: type, lowest terms, sign and hash."""

    @staticmethod
    def assert_same(num, den):
        value, expected = rat_from_ints(num, den), Rat(num, den)
        assert type(value) is Rat
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator), (num, den)
        assert hash(value) == hash(expected) and value == expected

    @pytest.mark.parametrize(
        "num, den",
        [(3, -6), (-3, -6), (0, 7), (0, -7), (12, 18), (-12, 18), (7, 1), (1, -1), (-1, 1)],
    )
    def test_edge_pairs(self, num, den):
        self.assert_same(num, den)

    def test_large_and_unit_pairs(self):
        big = 10**40
        for num, den in [(big, 3), (3, big), (-big, big + 1), (big * 6, -big * 4), (big, -1), (-1, big), (1, 1)]:
            self.assert_same(num, den)

    def test_random_pairs(self):
        rng = random.Random(20260419)
        for _ in range(2000):
            scale = 10 ** rng.randrange(1, 45)
            num = rng.randrange(-scale, scale)
            den = rng.choice([-1, 1]) * rng.randrange(1, scale)
            if rng.random() < 0.3:  # a shared factor to cancel
                g = rng.randrange(2, 10**6)
                num, den = num * g, den * g
            self.assert_same(num, den)

    @pytest.mark.parametrize("num", [0, 1, -5, 10**40])
    def test_zero_denominator_raises(self, num):
        with pytest.raises(ZeroDivisionError):
            rat_from_ints(num, 0)

    def test_fraction_slots_are_the_ones_filled(self):
        # rat_from_ints sets exactly these two slots; a Fraction that changes them must fail here
        assert Rat.__slots__ == ("_numerator", "_denominator")


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

    def test_regime_matches_the_ratio(self):
        # the integer comparison classifies exactly as |q/p| against 1
        big = 10**30
        values = [rat(v) for v in ("1", "2", "1/2", "3/7", "7/3", "999/1000", "1000/999")]
        values += [rat(big), rat(big + 1), rat(big - 1), Rat(1, big), Rat(big, big + 1), Rat(big + 1, big)]
        values += [-v for v in values]
        expected = {-1: Regime.RATIO_LT_ONE, 0: Regime.DEGENERATE, 1: Regime.RATIO_GT_ONE}
        for p in values:
            for q in values:
                if p == q:
                    continue
                r = abs(q / p)
                assert PqParams(p, q).regime is expected[(r > 1) - (r < 1)], (p, q)

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
            ("2/4", "1/2", "p and q must differ (p - q appears in every denominator)"),
            (0, 0, "p and q must differ (p - q appears in every denominator)"),
            (0, 1, "p and q must be nonzero"),
            ("0/5", 1, "p and q must be nonzero"),
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
        assert str(params) == "(p=1, q=1/2)"
        with pytest.raises(AttributeError):
            params.p = rat(2)

    @pytest.mark.parametrize("p, q", [("3/2", "-1/3"), (2, "7/5"), ("-10/3", "9/4")])
    def test_as_ints_is_the_integer_form(self, p, q):
        params = PqParams(p, q)
        big_p, big_q, s = params.as_ints()
        assert (Rat(big_p, s), Rat(big_q, s)) == (params.p, params.q)
        assert s == params.p.denominator * params.q.denominator

    def test_as_ints_follows_every_rebuild(self):
        params = PqParams("3/2", "-1/3")
        other = PqParams("-1/3", "3/2")
        rebuilt = [
            (params._replace(p="5/7"), PqParams("5/7", "-1/3")),
            (PqParams._make(["-1/3", "3/2"]), other),
            (params.swapped(), other),
        ]
        for value, expected in rebuilt:
            assert type(value) is PqParams and value == expected
            assert value.as_ints() == expected.as_ints()

    @pytest.mark.parametrize("name", ["p", "q", "_ints", "other"])
    def test_attributes_cannot_be_set(self, name):
        params = PqParams(1, "1/2")
        with pytest.raises(AttributeError):
            setattr(params, name, (1, 2, 3))
        assert params.as_ints() == (2, 1, 2)


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

    @pytest.mark.parametrize("p", [rat(3), rat("-1/2"), rat("5/7")])
    def test_opposite_parameters_match_the_definition(self, p):
        params = PqParams(p, -p)
        for n in range(-9, 10):
            assert bracket(n, params) == (p**n - (-p) ** n) / (2 * p)
        for n in range(-6, 8):
            for k in range(5):
                assert bracket_falling(n, k, params) == math.prod(bracket(j, params) for j in range(n - k + 1, n + 1))

    @pytest.mark.parametrize("p, q", [("3/2", "-3/2"), ("-5", "5"), ("3/4", "3/2"), ("-2/3", "4/9"), ("3/2", "3/4")])
    def test_falling_vanishes_exactly_at_a_zero_factor(self, p, q):
        p, q = Rat(p), Rat(q)
        params = PqParams(p, q)
        for n in range(-5, 8):
            for k in range(5):
                zero_factor = any((p**j - q**j) / (p - q) == 0 for j in range(n - k + 1, n + 1))
                assert _falling_vanishes(n, k, params.as_ints()) is zero_factor

    def test_opposite_parameters_vanish_without_forming_a_power(self, monkeypatch):
        # [j] = 0 for even j at p = -q, as 0 over 1 rather than over S^j
        for n in (2, -4, 10_000_000, -10_000_000):
            assert _bracket_ints(n, PqParams(rat("3/2"), rat("-3/2")).as_ints()) == (0, 1)
        assert bracket(10_000_000, PqParams(3, -3)) == 0

        def refuse(n, ints):  # an odd neighbour such as 3^10000000 takes seconds to form
            raise AssertionError(f"[{n}] formed")

        monkeypatch.setattr(scalars, "_bracket_ints", refuse)
        for k in (2, 3, 5):
            assert bracket_falling(10_000_001, k, PqParams(3, -3)) == 0
        assert bracket_falling(-10_000_000, 1, PqParams(3, -3)) == 0


class TestRatFloat:
    def test_bit_for_bit_float(self):
        rng = random.Random(29)
        digits = [(1, 1), (20, 1), (1, 20), (20, 20), (400, 400), (400, 390), (390, 400), (1, 400)]
        values = [Rat(rng.randrange(-(10**k), 10**k), rng.randrange(1, 10**j)) for k, j in digits for _ in range(20)]
        values += [Rat(1, 3), Rat(-7, 2), Rat(0), Rat(1, 10**320), Rat(10**308), Rat(2**1024 - 2**970 - 1)]
        for x in values:
            got = rat_float(x)
            assert type(got) is float and got.hex() == float(x).hex(), x

    def test_out_of_range_like_float(self):
        with pytest.raises(OverflowError):
            rat_float(Rat(2**1024 - 2**970))  # half way to 2**1024 rounds up
        assert rat_float(Rat(-1, 10**400)) == float(Rat(-1, 10**400)) == 0.0


class TestFloatView:
    """PqParams.as_floats refuses, by name, a p or q that has no usable double, or two that share one."""

    def test_in_range_values_convert_exactly(self):
        for p, q in [("1", "1/2"), ("-3/7", "10/3"), (10**308, 1), (Rat(1, 10**310), "1/3")]:
            params = PqParams(p, q)
            assert params.as_floats() == (float(params.p), float(params.q))

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (10**400, 1, "p is outside the double range: its float view overflows"),
            (1, -(10**400), "q is outside the double range: its float view overflows"),
            (Rat(1, 10**400), 1, "p is outside the double range: its float view is 0.0"),
            (1, Rat(-1, 10**400), "q is outside the double range: its float view is 0.0"),
            (10**400, Rat(1, 10**400), "p is outside the double range: its float view overflows"),
            (10**20 + 1, 10**20, "p and q round to the same double 1e+20"),
            (1 + Rat(1, 10**20), 1, "p and q round to the same double 1.0"),
            (-1, -1 - Rat(1, 10**20), "p and q round to the same double -1.0"),
        ],
    )
    def test_outside_the_double_range_refused(self, p, q, message):
        params = PqParams(p, q)  # the exact pair is valid; only its float view is not
        assert bracket(2, params) == params.p + params.q
        with pytest.raises(OutOfRangeError) as info:
            params.as_floats()
        assert str(info.value) == message
        with pytest.raises(OutOfRangeError, match=re.escape(message)):
            bracket_alpha(0.5, params)

    def test_only_a_nonzero_value_may_not_round_to_zero(self):
        assert _float_view("a", Rat(0)).hex() == "0x0.0p+0"
        assert _float_view("a", Rat(-3, 7)) == float(Rat(-3, 7))
        with pytest.raises(OutOfRangeError, match="^a is outside the double range: its float view is 0.0$"):
            _float_view("a", Rat(-1, 10**400))


def decimal_bracket(alpha, p, q):
    """(p^alpha - q^alpha)/(p - q) in ``decimal``, with digits to spare past the cancellation of a small alpha."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + max(0, -decimal.Decimal(alpha).adjusted())
        dp, dq = (decimal.Decimal(v.numerator) / v.denominator for v in (p, q))
        a = decimal.Decimal(alpha)
        return float(((a * dp.ln()).exp() - (a * dq.ln()).exp()) / (dp - dq))


# (p, q) pairs for a small alpha, where both powers are near 1; in the last, q/p overflows a double
SMALL_ALPHA_PAIRS = [
    (Rat(1), Rat(1, 2)), (Rat(2), Rat(3)), (Rat(7, 5), Rat(1, 9)), (Rat(1, 3), Rat(5)), (Rat(1, 10**310), Rat(1))
]
# alphas at which alpha ln(hi/lo) is subnormal on those pairs, except 1e-310 on the last, where it is just normal
SUBNORMAL_ALPHAS = [5e-324, -5e-324, 1e-323, 3e-322, 1e-320, 7.3e-315, 1e-310]


def alpha_cases(family):
    """(alpha, p, q) cases where the direct (p^alpha - q^alpha)/(p - q) cancels, and general ones."""
    if family == "small alpha":
        return [
            (s * 10.0**-e, p, q)
            for e in (300, 200, 100, 30, 10, 5, 3, 1) for s in (1, -1) for p, q in SMALL_ALPHA_PAIRS
        ]
    if family == "q/p near 1":  # the two powers are close
        return [
            (a, p, p * (1 - Rat(1, 10**k)))
            for k in range(3, 13) for p in (Rat(1), Rat(5, 2)) for a in (0.5, 2.5, -1.5, 7.25)
        ]
    rng, cases = random.Random(7), []
    while len(cases) < 80:  # |alpha| <= 30, p and q in (0, 99]
        p, q = (Rat(rng.randint(1, 99), rng.randint(1, 10)) for _ in range(2))
        if p != q:
            cases.append((rng.uniform(-30, 30), p, q))
    return cases


class TestBracketAlpha:
    def test_integer_agreement(self):
        params = PqParams(2, 1)
        assert math.isclose(bracket_alpha(2.0, params).value, 3.0, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(bracket_alpha(1.0, params).value, 1.0, rel_tol=1e-12, abs_tol=1e-12)

    def test_half_power(self):
        # (sqrt(4) - sqrt(1)) / (4 - 1) = 1/3
        value = bracket_alpha(0.5, PqParams(4, 1))
        assert math.isclose(value.value, 1 / 3, rel_tol=1e-12)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(NonPositiveBaseError):
            bracket_alpha(0.5, PqParams(-2, 1))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            bracket_alpha(alpha, PqParams(1, rat("1/2")))

    @pytest.mark.parametrize(
        "alpha, p, q", [(1e308, 2, 1), (-1e308, "1/2", 1), (2000.0, 1, 3), (1750.0, "3/2", 1), (1750.0, "3/2", "5/4")]
    )
    def test_overflow_names_alpha(self, alpha, p, q):
        # the last two overflow only in the quotient: 1.5**1750 ~ 1.4e308 is finite, p - q is 1/2 or 1/4
        with pytest.raises(OverflowError) as info:
            bracket_alpha(alpha, PqParams(p, q))
        assert str(info.value) == f"(p**alpha - q**alpha)/(p - q) overflows a double at alpha={alpha!r}"

    @pytest.mark.parametrize("family, ulps", [("small alpha", 2), ("q/p near 1", 4), ("general", 13)])
    def test_matches_a_decimal_reference(self, family, ulps):
        # in units of the reference's last place: a float v / r lands on the doubles next to 1, 2^-53 or
        # 2^-52 apart, so v / r - 1 cannot tell 1 ulp from 2
        worst = max(
            abs(bracket_alpha(a, PqParams(p, q)).value - (r := decimal_bracket(a, p, q))) / math.ulp(r)
            for a, p, q in alpha_cases(family)
        )
        assert worst <= ulps

    @pytest.mark.parametrize("alpha", SUBNORMAL_ALPHAS)
    @pytest.mark.parametrize("p, q", SMALL_ALPHA_PAIRS)
    def test_a_subnormal_bracket_is_correctly_rounded(self, alpha, p, q):
        # alpha ln(hi/lo) is subnormal: the value is rounded once, not once as a product and again as a quotient
        assert bracket_alpha(alpha, PqParams(p, q)).value == decimal_bracket(alpha, p, q)

    @pytest.mark.parametrize("alpha", SUBNORMAL_ALPHAS)
    @pytest.mark.parametrize("units", [(1, 2), (3, 1), (1, 1000)])
    def test_subnormal_bases_keep_a_tiny_alpha_accurate(self, alpha, units):
        # p and q a few units of 2^-1074: ln(hi/lo)/(hi - lo) overflows, alpha/(hi - lo) does not
        p, q = (Rat(k, 2**1074) for k in units)
        assert bracket_alpha(alpha, PqParams(p, q)).value == pytest.approx(decimal_bracket(alpha, p, q), rel=3e-16)

    def test_an_underflowing_difference_takes_the_direct_quotient(self):
        # p and q round to 3 and 2 units of 2^-1074, but their exact difference floats to 0.0
        unit, eps = Rat(1, 2**1074), Rat(1, 2**1200)
        params = PqParams(Rat(5, 2) * unit + eps, Rat(5, 2) * unit - eps)
        p, q = params.as_floats()
        assert (p, q, float(params.p - params.q)) == (3 * 5e-324, 2 * 5e-324, 0.0)
        assert bracket_alpha(0.5, params).value == (p**0.5 - q**0.5) / (p - q)

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


RECORDS = [
    FloatScalar(0.25),
    TruncationPolicy(),
    PqParams("3/2", "-1/3"),
    PqPowerExpr("1/2", 3, PqParams(2, "-1/3"), "2/3", Orientation.A_MINUS_X),
    PowerBasisExpansion("1/2", Orientation.X_MINUS_A, ["3/2", 0, -1]),
]


class TestRecordShape:
    """The five records are plain namedtuples: no instance dict, and copies equal to the original."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_no_instance_dict(self, record):
        assert type(record).__slots__ == () and not hasattr(record, "__dict__")

    def test_params_keep_no_derived_state(self):
        assert not {"__setattr__", "__reduce__"} & set(vars(PqParams))

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_copies_are_equal_records(self, record):
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for value in copies:
            assert type(value) is type(record) and value == record
            if isinstance(record, PqParams):
                assert value.as_ints() == record.as_ints()


class TestNamedTupleHelpersValidate:
    """The inherited _make, and _replace through it, run the validating constructor."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: PqParams(1, 2)._replace(q=1), ValueError, "p and q must differ"),
            (lambda: TruncationPolicy()._replace(max_terms=0), ValueError, "max_terms must be >= 1"),
            (lambda: FloatScalar._make([float("nan")]), ValueError, "must be finite"),
            (
                lambda: PqPowerExpr._make([0.5, 2, PqParams(2, 1), 1, Orientation.X_MINUS_A]),
                TypeError, "refusing to coerce float",
            ),
            (
                lambda: PowerBasisExpansion(1, Orientation.X_MINUS_A, [1])._replace(a=0.5),
                TypeError, "refusing to coerce float",
            ),
        ],
        ids=["PqParams", "TruncationPolicy", "FloatScalar", "PqPowerExpr", "PowerBasisExpansion"],
    )
    def test_invalid_values_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_valid_replace_coerces_to_rat(self):
        params = PqParams(1, 2)._replace(q="1/2")
        assert params == PqParams(1, rat("1/2")) and all(type(v) is Rat for v in params)
        assert PqParams._make(["3/2", 2]) == PqParams(rat("3/2"), 2)
        e = PqPowerExpr(1, 2, params)._replace(a=3, gamma="2/3")
        assert (type(e.a), type(e.gamma)) == (Rat, Rat)
        expansion = PowerBasisExpansion(1, Orientation.X_MINUS_A, [1, 2])._replace(coeffs=[3, 0])
        assert expansion.coeffs == (3,) and type(expansion.coeffs[0]) is Rat


class TestTupleBuiltRecords:
    """PqParams and PqPowerExpr validate, then build through ``tuple.__new__``: every way in still checks."""

    PARAMS = PqParams("3/2", "-1/3")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PqParams("3/2", "6/4"), "p and q must differ"),
            (lambda: PqParams(0, "-1/3"), "p and q must be nonzero"),
            (lambda: PqParams("3/2", "0/7"), "p and q must be nonzero"),
            (lambda: PqParams._make(["-1/3", "-1/3"]), "p and q must differ"),
            (lambda: PqParams._make([0, 1]), "p and q must be nonzero"),
            (lambda: TestTupleBuiltRecords.PARAMS._replace(q=TestTupleBuiltRecords.PARAMS.p), "p and q must differ"),
            (lambda: TestTupleBuiltRecords.PARAMS._replace(p=0), "p and q must be nonzero"),
        ],
        ids=["equal", "zero p", "zero q", "_make equal", "_make zero", "_replace equal", "_replace zero"],
    )
    def test_params_refuse(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    BUILDS = {
        "__new__": lambda a, gamma: PqPowerExpr(a, -2, TestTupleBuiltRecords.PARAMS, gamma, Orientation.A_MINUS_X),
        "_make": lambda a, gamma: PqPowerExpr._make([a, -2, TestTupleBuiltRecords.PARAMS, gamma, Orientation.A_MINUS_X]),
        "_replace": lambda a, gamma: PqPowerExpr(7, -2, TestTupleBuiltRecords.PARAMS, 7, Orientation.A_MINUS_X)._replace(
            a=a, gamma=gamma
        ),
    }

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_power_expr_coerces(self, build):
        for a, gamma in [(2, "-5/3"), ("1/2", 3), (rat("-4/7"), rat(0))]:
            e = self.BUILDS[build](a, gamma)
            assert type(e) is PqPowerExpr and (type(e.a), type(e.gamma)) == (Rat, Rat)
            assert e == (rat(a), -2, self.PARAMS, rat(gamma), Orientation.A_MINUS_X)

    @pytest.mark.parametrize("build", sorted(BUILDS))
    @pytest.mark.parametrize("a, gamma", [(0.5, 1), (1, 0.5)], ids=["float a", "float gamma"])
    def test_power_expr_refuses_a_float(self, build, a, gamma):
        with pytest.raises(TypeError, match="refusing to coerce float"):
            self.BUILDS[build](a, gamma)


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

    def test_falling_negative_k_rejected(self):
        with pytest.raises(NegativeArgumentError, match="^need k >= 0, got -1$"):
            bracket_falling(3, -1, PqParams(2, 1))

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
