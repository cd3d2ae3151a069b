"""CLI surface: output formats, JSON round trips, exit codes."""

import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pqcalc import cli
from pqcalc.cli import main
from pqcalc.identities import run_suite
from pqcalc.scalars import PqParams, bracket, bracket_falling, rat, rat_str

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestBracketCommand:
    def test_exact_integer(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "3", "--p", "2", "--q", "1")
        assert code == 0
        assert out == "7"

    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "0", "--p", "3/2", "--q", "1/2")
        assert (code, out) == (0, "0")

    def test_negative_index(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "-2", "--p", "2", "--q", "1/2")
        assert (code, out) == (0, "-5/2")

    def test_real_exponent_json(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "2.5", "--p", "2", "--q", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2**2.5 - 1)

    def test_rational_real_exponent(self, capsys):
        # "3/2" is no float literal, so the float bracket reads it as a rational
        code, out, _ = run_cli(capsys, "bracket", "3/2", "--p", "2", "--q", "1")
        assert (code, float(out)) == (0, 2**1.5 - 1)

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize("alpha", ["inf", "nan", "-inf"])
    def test_non_finite_real_exponent_exits_two(self, capsys, alpha, json_flag):
        # at p = 1, q = 1/2 the alpha -> inf limit is 2.0, which is no bracket value
        code, out, err = run_cli(capsys, "bracket", *json_flag, "--", alpha)
        assert (code, out) == (2, "")
        assert err == f"error: alpha must be finite, got {alpha}"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "token, shown", [("-inf", "-inf"), ("-nan", "nan"), ("-Infinity", "-inf"), ("-INF", "-inf")]
    )
    def test_negative_non_finite_token_is_a_value(self, capsys, token, shown, json_flag):
        # without the "--" above: argparse alone takes a token "-inf" for an unknown option
        code, out, err = run_cli(capsys, "bracket", token, *json_flag)
        assert (code, out, err) == (2, "", f"error: alpha must be finite, got {shown}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "pq, message",
        [
            (("1e400", "1"), "p is outside the double range: its float view overflows"),
            (("1", "1e-400"), "q is outside the double range: its float view is 0.0"),
            (("1" + "0" * 20 + "1/1" + "0" * 21, "1"), "p and q round to the same double 1.0"),
        ],
    )
    def test_real_exponent_outside_the_double_range_exits_two(self, capsys, pq, message, json_flag):
        code, out, err = run_cli(capsys, "bracket", "0.5", "--p", pq[0], "--q", pq[1], *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")
        code, out, _ = run_cli(capsys, "bracket", "2", "--p", pq[0], "--q", pq[1], *json_flag)
        assert code == 0 and out  # the exact bracket needs no float view

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "n, view",
        [("1e400", "overflows"), ("-1e400", "overflows"), ("1e-400", "is 0.0"), ("-1e-400", "is 0.0")],
        ids=["1e400", "-1e400", "1e-400", "-1e-400"],
    )
    def test_finite_literal_past_the_double_range_is_refused_as_n(self, capsys, n, view, json_flag):
        # float("1e400") is inf and float("1e-400") is 0.0, but the literals are finite and nonzero:
        # refused like --p 1e400 or --p 1e-400, not read as alpha = inf or alpha = 0
        code, out, err = run_cli(capsys, "bracket", *json_flag, "--", n)
        assert (code, out, err) == (2, "", f"error: n is outside the double range: its float view {view}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize("n", ["0.0", "-0.0", "0e-400"])
    def test_zero_real_literal_reads_alpha_zero(self, capsys, n, json_flag):
        code, out, err = run_cli(capsys, "bracket", *json_flag, "--", n)
        assert (code, err) == (0, "")
        assert (json.loads(out)["value"] if json_flag else float(out)) == 0.0

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize("alpha, p", [("1e308", "2"), ("1750.0", "3/2")], ids=["power", "quotient"])
    def test_real_exponent_overflow_names_alpha(self, capsys, alpha, p, json_flag):
        code, out, err = run_cli(capsys, "bracket", alpha, "--p", p, "--q", "1", *json_flag)
        assert (code, out) == (2, "")
        assert err == f"error: (p**alpha - q**alpha)/(p - q) overflows a double at alpha={float(alpha)!r}"

    def test_exact_json_uses_rational_strings(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "3", "--p", "2", "--q", "1", "--json")
        assert json.loads(out) == {"value": "7"}

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "abc", "--p", "2", "--q", "1")
        assert code == 2
        assert "error" in err

    def test_invalid_params_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "bracket", "3", "--p", "2", "--q", "2")
        assert code == 2

    def test_negative_rational_option_value(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "3", "--q", "-1/2")
        assert (code, out) == (0, "3/4")

    def test_real_exponent_overflow_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "bracket", "2000.5", "--p", "2", "--q", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("n", ["1000000", "-1000000"])
    def test_unprintable_bracket_exits_two_before_computing(self, capsys, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("bracket computed")

        monkeypatch.setattr(cli, "bracket", refuse)
        code, out, err = run_cli(capsys, "bracket", n, "--p", "3/2", "--q", "1/3")
        assert (code, out) == (2, "")
        assert "int-to-str limit" in err

    def test_large_printable_bracket_still_prints(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "3000", "--p", "3/2", "--q", "1/3")
        assert code == 0 and len(out) > 3000

    @pytest.mark.parametrize("n, value", [("1000000", "0"), ("1000001", "1")])
    def test_opposite_parameters_have_no_guard(self, capsys, n, value):
        code, out, _ = run_cli(capsys, "bracket", n, "--p", "1", "--q", "-1")
        assert (code, out) == (0, value)

    def test_opposite_parameters_refuse_an_unprintable_bracket_by_name(self, capsys):
        # at p = -q, |[j]| = |p|^(j-1) for odd j: 3^10000000 has 4.8 million digits
        code, out, err = run_cli(capsys, "bracket", "10000001", "--p", "3", "--q", "-3")
        assert (code, out) == (2, "")
        assert err == f"error: [10000001] has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"

    def test_long_denominator_is_refused_by_name(self, capsys, monkeypatch):
        # |[6040]| is about 10^882, but its denominator is a multiple of 15^6039: refused before computing
        computed = []
        monkeypatch.setattr(cli, "bracket", lambda *args: computed.append(args) or bracket(*args))
        code, out, err = run_cli(capsys, "bracket", "6040", "--p", "7/5", "--q", "2/3")
        assert (code, out, len(computed)) == (2, "", 0)
        assert err == f"error: [6040] has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"
        assert "Traceback" not in err

    def test_opposite_parameters_even_bracket_is_zero(self, capsys):
        assert run_cli(capsys, "bracket", "10000000", "--p", "3", "--q", "-3") == (0, "0", "")

    @pytest.mark.parametrize("p, q", [("3", "-3"), ("-1/2", "1/2"), ("3/2", "1/3"), ("-2", "5/7")])
    def test_falling_bounds_hold(self, p, q):
        params = PqParams(rat(p), rat(q))
        for n in range(-8, 13):
            for k in range(5):
                lo, hi, _ = cli._falling_bounds(n, k, params)
                value = bracket_falling(n, k, params)
                if value == 0:  # a zero product refuses nothing
                    assert (lo, hi) == (-math.inf, math.inf)
                else:
                    assert lo - 1e-9 <= cli._log10(value) <= hi + 1e-9

    def test_denominator_bound_holds(self):
        # the bound plus its one digit of margin stays below log10 of the reduced denominator
        rng = random.Random(31)
        for _ in range(150):
            p, q = (rat(f"{rng.choice((-1, 1)) * rng.randint(1, 30)}/{rng.randint(1, 40)}") for _ in "pq")
            if p == q:
                continue
            params = PqParams(p, q)
            for n in range(2, 31):
                digits = math.log10(bracket(n, params).denominator)
                assert cli._falling_bounds(n, 1, params)[2] + 1 <= digits + 1e-9, (p, q, n)

    def test_falling_denominator_bound_holds(self):
        # over a product of positive or of negative factors the bound adds up; a zero factor refuses nothing
        rng = random.Random(37)
        negative = 0
        for _ in range(60):
            p, q = (rat(f"{rng.choice((-1, 1)) * rng.randint(1, 12)}/{rng.randint(1, 15)}") for _ in "pq")
            if p == q:
                continue
            params = PqParams(p, q)
            for n in range(-8, 16):
                for k in range(6):
                    bound, value = cli._falling_bounds(n, k, params)[2], bracket_falling(n, k, params)
                    if value == 0:
                        assert bound == -math.inf, (p, q, n, k)
                    else:
                        assert bound + 1 <= math.log10(value.denominator) + 1e-9, (p, q, n, k)
                        negative += n < 0 and bound > 0
        assert negative >= 100


class TestDeriveCommand:
    def test_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "0,0,1", "--p", "2", "--q", "1")
        assert (code, out) == (0, "0,3")

    def test_negative_leading_coefficient(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "-1/2,1")
        assert (code, out) == (0, "1")

    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "5")
        assert (code, out) == (0, "0")

    def test_power_expression_k_fold(self, capsys):
        code, out, _ = run_cli(
            capsys, "derive", "pqpow(a=1, n=3)", "--k", "2", "--p", "2", "--q", "1/2"
        )
        assert code == 0
        assert out == "105/4 * pqpow(a=1, n=1, gamma=4)"

    def test_power_expression_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "derive", "pqpow(a=1, n=3)", "--k", "2", "--p", "2", "--q", "1/2", "--json"
        )
        payload = json.loads(out)
        assert rat(payload["coeff"]) == rat("105/4")
        assert payload["expr"] == "pqpow(a=1, n=1, gamma=4)"

    def test_reversed_expression(self, capsys):
        code, out, _ = run_cli(capsys, "derive", "pqpowrev(a=1, n=2)", "--p", "3", "--q", "2")
        assert code == 0
        assert out.startswith("-5 * pqpowrev(")

    @pytest.mark.parametrize("expr", ["pqpow(a=1, n=-3)", "pqpowrev(a=2, n=1600, gamma=5/7)"])
    def test_unprintable_coefficient_exits_two_before_computing(self, capsys, monkeypatch, expr):
        from pqcalc import pqpower

        def refuse(*args):
            raise AssertionError("coefficient computed")

        monkeypatch.setattr(pqpower, "derive_pq_power_iterated", refuse)
        code, out, err = run_cli(capsys, "derive", expr, "--k", "1500", "--p", "3/2", "--q", "1/3")
        assert (code, out) == (2, "")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: the coefficient has over {limit} digits, the int-to-str limit"

    def test_negative_k_exits_two(self, capsys):
        assert run_cli(capsys, "derive", "0,1", "--k", "-1") == (2, "", "error: --k must be >= 0, got -1")

    def test_opposite_parameters_refuse_an_unprintable_coefficient(self, capsys):
        code, out, err = run_cli(capsys, "derive", "pqpow(a=1,n=10000001)", "--k", "1", "--p", "3", "--q", "-3")
        assert (code, out) == (2, "")
        assert err == f"error: the coefficient has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_long_coefficient_denominator_is_refused_by_name(self, capsys, monkeypatch, json_flag):
        # the guard passes this coefficient, whose denominator holds 2^C(200,2): at p = 1/3, q = -1/2
        # every negative bracket is an integer, so the falling product gives no denominator bound
        from pqcalc import pqpower

        computed, derive = [], pqpower.derive_pq_power_iterated
        monkeypatch.setattr(pqpower, "derive_pq_power_iterated", lambda *a: computed.append(a) or derive(*a))
        argv = ["derive", "pqpowrev(a=3/2, n=-7, gamma=-2)", "--k", "200", "--p", "1/3", "--q", "-1/2", *json_flag]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, len(computed)) == (2, "", 1)
        assert err == f"error: the coefficient has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, what",
        [
            (("pqpow(a=1, n=99999999999)", "--k", "1"), "the coefficient"),
            (("pqpowrev(a=2, n=6000, gamma=-3)", "--k", "3"), "the coefficient"),
            (("pqpow(a=1, n=200)", "--k", "190"), "the coefficient"),
            (("pqpowrev(a=3/2, n=-7, gamma=-2)", "--k", "966", "--p", "7/5", "--q", "-1/2"), "the coefficient"),
            (("pqpow(a=1, n=3)", "--k", "1000000000", "--p", "2", "--q", "1/2"), "the residual's gamma"),
        ],
    )
    def test_long_result_is_refused_before_computing(self, capsys, monkeypatch, argv, what):
        # |coefficient| stays small, but the denominator of [n]...[n-k+1] holds 2^(sum of j-1) at q = 1/2,
        # or 7^472857 over the negative factors at p = 7/5; the last residual's gamma is 2^1000000000
        from pqcalc import pqpower

        def refuse(*args):
            raise AssertionError("coefficient computed")

        monkeypatch.setattr(pqpower, "derive_pq_power_iterated", refuse)
        code, out, err = run_cli(capsys, "derive", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {what} has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"

    def test_coefficient_bounds_hold(self):
        # lo <= log10|c| <= hi, and den plus its one digit of margin stays below log10 of c's reduced denominator
        from pqcalc.pqpower import Orientation, PqPowerExpr, derive_pq_power_iterated

        rng = random.Random(41)
        checked = 0
        for _ in range(120):
            p, q, gamma = (rat(f"{rng.choice((-1, 1)) * rng.randint(1, 12)}/{rng.randint(1, 15)}") for _ in "pqg")
            if p == q:
                continue
            params = PqParams(p, q)
            orientation = rng.choice(list(Orientation))
            expr = PqPowerExpr(rat(rng.randint(-3, 3)), rng.randint(-4, 14), params, gamma, orientation)
            k = rng.randint(0, 8)
            coeff, _ = derive_pq_power_iterated(expr, k)
            lo, hi, den = cli._coefficient_log10(expr, k, params)
            if coeff:
                assert lo - 1e-9 <= cli._log10(coeff) <= hi + 1e-9, (p, q, expr, k)
                assert den + 1 <= math.log10(coeff.denominator) + 1e-9, (p, q, expr, k)
                checked += den > 0
        assert checked >= 20

    def test_residual_gamma_bound_holds(self):
        # the bound plus its one digit of margin stays below log10 of the longer part of gamma base^k
        from pqcalc.pqpower import Orientation, PqPowerExpr, derive_pq_power_iterated

        rng = random.Random(43)
        checked = 0
        for _ in range(120):
            p, q, gamma = (rat(f"{rng.choice((-1, 1)) * rng.randint(1, 12)}/{rng.randint(1, 15)}") for _ in "pqg")
            if p == q:
                continue
            params = PqParams(p, q)
            orientation = rng.choice(list(Orientation))
            expr = PqPowerExpr(rat(rng.randint(-3, 3)), rng.randint(-4, 14), params, gamma, orientation)
            k = rng.randint(0, 12)
            residual = derive_pq_power_iterated(expr, k)[1].gamma
            bound = cli._gamma_log10(expr, k, params)
            digits = max(math.log10(abs(residual.numerator)), math.log10(residual.denominator))
            assert bound + 1 <= digits + 1e-9, (p, q, expr, k)
            checked += bound > 0
        assert checked >= 60

    def test_long_residual_gamma_is_refused_by_name(self, capsys):
        # the coefficient is 0 (n < k), but gamma (7/5)^7000 has a 4,893-digit denominator
        code, out, err = run_cli(capsys, "derive", "pqpow(a=1, n=3)", "--k", "7000", "--p", "7/5", "--q", "2/3")
        assert (code, out) == (2, "")
        assert err == f"error: the residual's gamma has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"

    def test_opposite_parameters_zero_coefficient(self, capsys):
        # the falling product [10000001][10000000] holds [10000000] = 0
        code, out, err = run_cli(capsys, "derive", "pqpow(a=1,n=10000001)", "--k", "2", "--p", "3", "--q", "-3")
        assert (code, out, err) == (0, "0 * pqpow(a=1, n=9999999, gamma=9)", "")

    @pytest.mark.parametrize("n, k", [(-3, 40), (60, 40), (39, 40)])
    def test_printable_coefficient_still_prints(self, capsys, n, k):
        code, out, _ = run_cli(capsys, "derive", f"pqpow(a=1, n={n})", "--k", str(k), "--p", "3/2", "--q", "1/3")
        assert code == 0 and out.partition(" * ")[2] == f"pqpow(a=1, n={n - k}, gamma={rat_str(rat('3/2') ** k)})"


class TestUnprintableOutput:
    """The outputs no guard bounds, refused in the bracket's and the coefficient's words past the int-to-str limit."""

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "argv, what",
        [
            # 10^-5000 has a 5001-digit denominator
            (("derive", "1e-5000,1", "--k", "0"), "the derivative"),
            (("taylor", "1,2,3", "1e-5000"), "the expansion"),
        ],
        ids=["derive-poly", "taylor"],
    )
    def test_names_the_value(self, capsys, argv, what, json_flag):
        code, out, err = run_cli(capsys, *argv, *json_flag)
        assert (code, out) == (2, "")
        assert err == f"error: {what} has over {sys.get_int_max_str_digits()} digits, the int-to-str limit"

    def test_with_no_limit_the_formatter_error_passes_through(self, capsys, monkeypatch):
        # 0 is no int-to-str limit: a formatter's ValueError is then its own, not an over-limit refusal
        def boom(value):
            raise ValueError("boom")

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        monkeypatch.setattr(cli, "rat_str", boom)
        assert run_cli(capsys, "bracket", "3") == (2, "", "error: boom")


class TestTaylorCommand:
    def test_expansion_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "taylor", "0,0,1", "1", "--p", "2", "--q", "1/2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "a": "1",
            "orientation": "x-a",
            "coeffs": ["1", "5/4", "1/2"],
            "exact": True,
        }

    def test_constant_single_coefficient(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "7/3", "2", "--json")
        payload = json.loads(out)
        assert payload["coeffs"] == ["7/3"]
        assert payload["exact"] is True

    def test_negative_rational_point(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "0,0,1", "-1/2", "--json")
        assert code == 0
        assert json.loads(out)["a"] == "-1/2"
        assert json.loads(out)["exact"] is True

    def test_reversed_orientation(self, capsys):
        code, out, _ = run_cli(capsys, "taylor", "0,1", "1", "--reversed", "--json")
        payload = json.loads(out)
        assert payload["orientation"] == "a-x"
        assert payload["exact"] is True


class TestIntegrateCommand:
    def test_linear_jackson(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "poly:0,1", "0", "1", "--p", "1", "--q", "1/2", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "converged"
        assert payload["value"] == pytest.approx(2 / 3, abs=1e-9)

    def test_zero_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "poly:0", "0", "5", "--json")
        payload = json.loads(out)
        assert payload["value"] == 0.0

    def test_reciprocal_divergence(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "recip", "0", "1", "--p", "2", "--q", "1", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "divergent"

    def test_improper_mode(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "poly:0,1", "--improper", "--json")
        payload = json.loads(out)
        assert payload["status"] == "divergent"  # x grows on the upper lattice

    def test_to_infinity_mode(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "powneg:3", "1", "--to-inf", "--json")
        payload = json.loads(out)
        assert payload["status"] == "converged"
        assert payload["value"] == pytest.approx(1 / 6, abs=1e-9)

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "integrate", "poly:1,2", "0", "2", "--json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_missing_bounds_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "poly:0,1", "1")
        assert code == 2

    def test_bad_interval_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "poly:0,1", "2", "1")
        assert code == 2

    def test_bound_overflow_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "poly:0,1", "0", "1e400")
        assert (code, out, err) == (2, "", "error: b is outside the double range: its float view overflows")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            # a bound that rounds to 0.0 used to integrate silently over [0, 1]
            (("recip", "1e-400", "1"), "a is outside the double range: its float view is 0.0"),
            (("recip", "1e-400", "--to-inf"), "a is outside the double range: its float view is 0.0"),
            (("poly:1", "1e-400", "1e400"), "a is outside the double range: its float view is 0.0"),
            (("poly:1", "0", "1e400"), "b is outside the double range: its float view overflows"),
            (("powneg:1e400", "1", "--to-inf"), "r is outside the double range: its float view overflows"),
            (("powneg:-1e-400", "1", "--to-inf"), "r is outside the double range: its float view is 0.0"),
        ],
        ids=["a-underflows", "to-inf-a-underflows", "both-out", "b-overflows", "r-overflows", "r-underflows"],
    )
    def test_bound_or_power_outside_the_double_range_exits_two(self, capsys, argv, message, json_flag):
        code, out, err = run_cli(capsys, "integrate", *argv, *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("recip", "1", "--to-inf", "--q", "1/1" + "0" * 400), "q is outside the double range: its float view is 0.0"),
            (("poly:1,1", "0", "1", "--p", "1" + "0" * 400), "p is outside the double range: its float view overflows"),
            (("poly:1", "1", "--to-inf", "--q", "1" + "0" * 20 + "1/1" + "0" * 21), "p and q round to the same double 1.0"),
        ],
        ids=["q-underflows", "p-overflows", "same-double"],
    )
    def test_lattice_outside_the_double_range_exits_two(self, capsys, argv, message, json_flag):
        code, out, err = run_cli(capsys, "integrate", *argv, *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize("tol, message", [("inf", "tail_tol must be finite"), ("nan", "tail_tol must be > 0")])
    def test_non_finite_tail_tol_exits_two(self, capsys, tol, message, json_flag):
        # with an infinite tolerance the sum stopped at 0.875 as converged; the exact value is 1
        code, out, err = run_cli(capsys, "integrate", "poly:1", "0", "1", "--tail-tol", tol, *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            # a dropped bound would answer another question than the one asked
            (("poly:1", "0", "1", "--improper"), "--improper integrates over [0, infinity) and reads no bound a, got a=0"),
            (("poly:1", "0", "--improper"), "--improper integrates over [0, infinity) and reads no bound a, got a=0"),
            (("poly:1", "1", "2", "--to-inf"), "--to-inf integrates over [a, infinity) and reads no bound b, got b=2"),
            (("poly:1", "--to-inf"), "--to-inf needs the lower bound a"),
        ],
        ids=["improper-a-b", "improper-a", "to-inf-b", "to-inf-no-a"],
    )
    def test_mode_refuses_a_bound_it_does_not_read(self, capsys, argv, message, json_flag):
        code, out, err = run_cli(capsys, "integrate", *argv, *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("poly:1e400", "coefficient 0 of poly:1e400 is outside the double range: its float view overflows"),
            # a coefficient that rounds to 0.0 would be integrated as 0
            ("poly:1e-400,1", "coefficient 0 of poly:1e-400,1 is outside the double range: its float view is 0.0"),
            ("poly:0,2,-1e400", "coefficient 2 of poly:0,2,-1e400 is outside the double range: its float view overflows"),
        ],
        ids=["overflows", "underflows", "last-overflows"],
    )
    def test_poly_coefficient_outside_the_double_range_exits_two(self, capsys, spec, message, json_flag):
        code, out, err = run_cli(capsys, "integrate", spec, "0", "1", *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "n, message",
        [("0", "max_terms must be >= 1"), (str(10**20), f"max_terms must be <= {sys.maxsize}, got {10**20}")],
        ids=["zero", "past-maxsize"],
    )
    def test_max_terms_out_of_range_exits_two(self, capsys, n, message, json_flag):
        # 10**20 used to fail inside the summer with Python's own islice message
        code, out, err = run_cli(capsys, "integrate", "poly:1,2", "0", "1", "--max-terms", n, *json_flag)
        assert (code, out, err) == (2, "", f"error: {message}")

    def test_log_is_accelerated_to_its_closed_form(self, capsys):
        # a ln(a/p) + a r ln r / (1 - r) at a = 1, p = 1, r = q/p = 1/2 is ln(1/2)
        code, out, _ = run_cli(capsys, "integrate", "log", "0", "1", "--p", "1", "--q", "1/2", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["stop_reason"] == "accelerated"
        assert abs(payload["value"] - math.log(0.5)) <= payload["tail"]

    def test_unknown_spec_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "tan", "0", "1")
        assert code == 2

    def test_policy_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "poly:0,1", "0", "1",
            "--max-terms", "5", "--tail-tol", "1e-12", "--json",
        )
        payload = json.loads(out)
        assert payload["status"] == "max_terms"
        assert payload["terms"] == 5
        assert payload["stop_reason"] == "max_terms"

    def test_slow_lattice_is_accelerated(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "poly:1,-2,0,3", "0", "1", "--p", "1", "--q", "999/1000", "--json"
        )
        payload = json.loads(out)
        assert (code, payload["status"], payload["stop_reason"]) == (0, "converged", "accelerated")
        assert payload["terms"] < 10_000
        exact = rat("2998001999/3994003999")  # F(1) - F(0), F the exact antiderivative
        assert abs(payload["value"] - float(exact)) <= payload["tail"] <= 1e-12

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "spec,pq", [("powneg:1/2", ("1", "-1/2")), ("powneg:1.5", ("-1", "-1/2")), ("powneg:3/2", ("-2", "1"))]
    )
    def test_complex_power_on_a_negative_lattice_exits_two(self, capsys, spec, pq, json_flag):
        # x**-r at a negative lattice point is complex for non-integer r
        code, out, err = run_cli(capsys, "integrate", spec, "0", "1", "--p", pq[0], "--q", pq[1], *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize("r", ["nan", "inf", "-inf"])
    def test_non_finite_power_exits_two(self, capsys, r, json_flag):
        code, out, err = run_cli(capsys, "integrate", f"powneg:{r}", "1", "--to-inf", *json_flag)
        assert (code, out) == (2, "")
        assert err == f"error: powneg:{r} needs a finite r"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize("pq", [("1", "-1/2"), ("-2", "1"), ("-1", "-1/2")])
    def test_log_on_a_negative_lattice_exits_two(self, capsys, pq, json_flag):
        code, out, err = run_cli(capsys, "integrate", "log", "0", "1", "--p", pq[0], "--q", pq[1], *json_flag)
        assert (code, out) == (2, "")
        assert err.startswith("error: log needs p, q > 0")

    def test_integer_power_on_a_negative_lattice_still_works(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "powneg:2", "1", "--to-inf", "--p", "1", "--q", "-1/2", "--json")
        payload = json.loads(out)
        # terms (3/2) (-1/2)^{k+1}: a geometric series summing to -1/2
        assert (code, payload["status"]) == (0, "converged")
        assert abs(payload["value"] + 0.5) <= payload["tail"]
        code, out, _ = run_cli(capsys, "integrate", "powneg:2", "0", "1", "--p", "1", "--q", "-1/2")
        assert code == 0 and out.startswith("value=") and "j " not in out


class TestUnparsableArguments:
    """A bound or a parameter that is no rational is refused by its name, with exit 2 and no traceback."""

    INF_HINT = "; integrate to infinity with --to-inf, or with --improper from 0"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
    @pytest.mark.parametrize(
        "argv, name, text",
        [
            (("integrate", "poly:1", "x", "1"), "a", "x"),
            (("integrate", "poly:1", "inf", "1"), "a", "inf"),
            (("integrate", "recip", "1/0", "--to-inf"), "a", "1/0"),
            (("integrate", "poly:1", "0", "1.5.2"), "b", "1.5.2"),
            (("integrate", "poly:1", "0", "1", "--q", "half"), "--q", "half"),
            (("bracket", "3", "--p", "x"), "--p", "x"),
            (("taylor", "0,0,1", "y"), "a", "y"),
            (("bracket", "abc"), "n", "abc"),
            (("bracket", "1/0"), "n", "1/0"),
            (("integrate", "powneg:x", "1", "--to-inf"), "r", "x"),
            (("integrate", "powneg:", "1", "--to-inf"), "r", ""),
            (("derive", "0,x"), "coefficient 1 of expr", "x"),
            (("derive", "0,,1"), "coefficient 1 of expr", ""),
            (("taylor", "0,x", "1"), "coefficient 1 of poly", "x"),
            (("integrate", "poly:1,x", "0", "1"), "coefficient 1 of poly:1,x", "x"),
            (("derive", "pqpow(a=x,n=2)"), "a", "x"),
            (("derive", "pqpowrev(a=1/0, n=2)"), "a", "1/0"),
            (("derive", "pqpow(a=1,n=2,gamma=y)"), "gamma", "y"),
            (("integrate", "recip", "-inf", "1"), "a", "-inf"),
            (("integrate", "poly:1", "0", "-Infinity"), "b", "-Infinity"),
            (("bracket", "3", "--q", "-nan"), "--q", "-nan"),
            (("taylor", "0,0,1", "-inf"), "a", "-inf"),
            (("derive", "-nan,1"), "coefficient 0 of expr", "-nan"),
            # two signs make no nan or infinity literal: refused as text, not as a non-finite value
            (("bracket", "+-inf"), "n", "+-inf"),
            (("integrate", "powneg:+-inf", "1", "--to-inf"), "r", "+-inf"),
            (("integrate", "poly:1", "0", "++inf"), "b", "++inf"),
            (("integrate", "poly:1", "0", "nan"), "b", "nan"),
        ],
        ids=[
            "a", "a-inf", "a-zero-den", "b", "q", "bracket-p", "taylor-a", "bracket-n", "bracket-n-zero-den",
            "powneg-r", "powneg-empty", "derive-poly", "derive-poly-empty", "taylor-poly", "integrate-poly",
            "pqpow-a", "pqpowrev-a-zero-den", "pqpow-gamma",
            "a-minus-inf", "b-minus-infinity", "q-minus-nan", "taylor-a-minus-inf", "derive-poly-minus-nan",
            "bracket-n-two-signs", "powneg-r-two-signs", "b-two-signs", "b-nan",
        ],
    )
    def test_names_the_argument(self, capsys, argv, name, text, json_flag):
        code, out, err = run_cli(capsys, *argv, *json_flag)
        assert (code, out, err) == (2, "", f"error: {name} must be a rational such as 3/2, got {text!r}")

    @pytest.mark.parametrize("b", ["inf", "+inf", "+Infinity", " Infinity "])
    def test_infinite_b_points_at_the_modes(self, capsys, b):
        code, out, err = run_cli(capsys, "integrate", "poly:1", "0", b)
        assert (code, out, err) == (2, "", f"error: b must be a rational such as 3/2, got {b!r}{self.INF_HINT}")


class TestIdentitiesCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--seed", "0", "--trials", "3")
        assert code == 0
        assert "overall: PASS" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "identities", "--seed", "1", "--trials", "2", "--only", "qbin", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["results"][0]["label"] == "qbin"

    def test_forced_failure_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "identities", "--trials", "2", "--only", "linearity", "--self-test-fail"
        )
        assert code == 1
        assert "FAIL" in out

    def test_forced_failure_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--trials", "3", "--only", "linearity", "--self-test-fail")
        assert code == 1
        assert out.splitlines() == [
            f"{'linearity':28s}      3 trials     0 failures  PASS",
            f"{'self-test-forced-failure':28s}      3 trials     3 failures  FAIL",
            "    intentional failure",
            "overall: FAIL (2 checks, 6 trials)",
        ]
        code, out, _ = run_cli(
            capsys, "identities", "--trials", "3", "--only", "linearity", "--self-test-fail", "--json"
        )
        payload = json.loads(out)
        assert (code, payload["passed"]) == (1, False)
        assert payload["results"] == [
            {"label": "linearity", "trials": 3, "failures": 0, "passed": True, "notes": []},
            {
                "label": "self-test-forced-failure",
                "trials": 3,
                "failures": 3,
                "passed": False,
                "notes": ["intentional failure"],
            },
        ]

    def test_json_results_are_the_suite_results(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--seed", "7", "--trials", "2", "--json")
        payload = json.loads(out)
        assert (code, list(payload)) == (0, ["seed", "trials", "passed", "results"])
        assert payload["results"] == [r.to_json_dict() for r in run_suite(seed=7, trials=2)]

    @pytest.mark.parametrize(
        "query, labels",
        [
            ("product-rule", ["product-rule-1", "product-rule-2"]),
            ("taylor-roundtrip", ["taylor-roundtrip", "taylor-roundtrip-reversed"]),
            ("derule1", ["derule1"]),
        ],
    )
    def test_only_takes_a_label_and_the_labels_that_extend_it_with_a_dash(self, capsys, query, labels):
        code, out, _ = run_cli(capsys, "identities", "--only", query, "--trials", "1", "--json")
        assert code == 0
        assert [r["label"] for r in json.loads(out)["results"]] == labels

    def test_only_is_no_plain_prefix_match(self, capsys):
        # derule1-derule4 exist, but none is "derule" or starts with "derule-"
        code, out, err = run_cli(capsys, "identities", "--only", "derule")
        assert (code, out) == (2, "")
        assert err.startswith("error: no identity label matches 'derule'; known labels: linearity, ")

    def test_only_prefix_match_heine(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--only", "heine", "--trials", "2")
        assert code == 0
        assert "heine-coefficients" in out
        assert "MATCH" in out
        assert "MISMATCH" in out

    def test_unknown_label_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "identities", "--only", "nope")
        assert code == 2
        assert "no identity label" in err

    def test_non_integer_trials_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identities", "--trials", "x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --trials: invalid int value: 'x'" in captured.err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["identities", "--trials", trials, "--only", "linearity"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--trials" in captured.err


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["bracket", "3"], ["identities", "--trials", "1"]], ids=["bracket", "identities"])
    def test_exits_141_without_a_word(self, argv, unbuffered):
        # the read end closes before pq writes, as when `pq identities | head -1` stops reading
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pqcalc.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")


class TestOutOfMemory:
    # both pass the digit guards; the kernel stands in for the memory running out
    @pytest.mark.parametrize(
        "argv, owner, kernel",
        [
            (["bracket", "100000000001", "--p", "1", "--q", "-1"], "cli", "bracket"),
            (["derive", "pqpow(a=1, n=99999999999)", "--p", "1", "--q", "-1"], "pqpower", "derive_pq_power_iterated"),
        ],
        ids=["bracket", "derive"],
    )
    def test_memory_error_exits_two_by_name(self, capsys, monkeypatch, argv, owner, kernel):
        def exhaust(*args):
            raise MemoryError

        monkeypatch.setattr(importlib.import_module(f"pqcalc.{owner}"), kernel, exhaust)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]}: out of memory; the result is too large to compute"
        assert "Traceback" not in err
