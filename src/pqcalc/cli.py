"""Command-line front end.

Examples::

    pq bracket 3 --p 2 --q 1
    pq bracket 2.5 --p 2 --q 1 --json
    pq derive "0,0,1" --p 2 --q 1
    pq derive "pqpow(a=1, n=3)" --k 2 --p 2 --q 1/2
    pq taylor "0,0,1" 1 --p 2 --q 1/2
    pq integrate poly:0,1 0 1 --p 1 --q 1/2
    pq integrate recip 0 1 --p 2 --q 1
    pq integrate powneg:3 1 --to-inf --p 1 --q 1/2
    pq identities --seed 0 --trials 50
    pq identities --only heine

Exit codes: 0 success, 1 identity-suite failure, 2 usage, parse, domain,
overflow or out-of-memory error, 141 a closed stdout.
Rationals are written as "num/den" or "int" everywhere, on input and in
JSON output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Optional, Sequence

from .errors import PqError
from .scalars import DEFAULT_POLICY, PqParams, Rat, _falling_vanishes, _float_view, bracket, bracket_alpha, rat_named, rat_str

if TYPE_CHECKING:
    from collections.abc import Callable

    from .polynomials import NumericFn
    from .pqpower import PqPowerExpr

# Each command imports its own layers inside its function, so a cold
# ``pq bracket`` never compiles the suite, the integrals or the power basis.


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token starting with "-" and a digit, "inf" or "nan" as a value.

    argparse alone admits only "-2" and "-2.5" as negative numbers, so
    "--q -1/2", a positional "-1/2" or "-1/2,1" and a bound "-inf" would be
    taken for unknown options.  No option of pq starts with a digit, and the
    only single-dash one is -h.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", default="1", metavar="RAT", help="parameter p (default 1)")
    parser.add_argument("--q", default="1/2", metavar="RAT", help="parameter q (default 1/2)")
    parser.add_argument("--json", action="store_true", help="machine-readable JSON output")


def _add_policy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-terms", type=int, default=DEFAULT_POLICY.max_terms, metavar="N")
    parser.add_argument("--tail-tol", type=float, default=DEFAULT_POLICY.tail_tol, metavar="EPS")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pq",
        description="Exact and numeric (p,q)-calculus: brackets, derivatives, "
        "power-basis expansions and lattice integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bracket = sub.add_parser("bracket", help="twin-basic number [n], or [alpha] for real alpha")
    p_bracket.add_argument("n", help="integer for the exact bracket, real for the float one")
    _add_common(p_bracket)

    p_derive = sub.add_parser("derive", help="(p,q)-derivative of a polynomial or power expression")
    p_derive.add_argument("expr", help='polynomial "c0,c1,..." or "pqpow(a=…, n=…[, gamma=…])"')
    p_derive.add_argument("--k", type=int, default=1, help="apply the derivative k times")
    _add_common(p_derive)

    p_taylor = sub.add_parser("taylor", help="expansion over the (p,q)-power basis at a")
    p_taylor.add_argument("poly", help='polynomial "c0,c1,..."')
    p_taylor.add_argument("a", help="expansion point (rational)")
    p_taylor.add_argument("--reversed", action="store_true", help="use the (a-x) basis")
    _add_common(p_taylor)

    p_int = sub.add_parser("integrate", help="(p,q)-integral of a named function")
    p_int.add_argument("fn", help='"poly:c0,c1,...", "recip", "log" or "powneg:r"')
    p_int.add_argument("a", nargs="?", help="lower bound (omit with --improper)")
    p_int.add_argument("b", nargs="?", help="upper bound (omit with --improper/--to-inf)")
    mode = p_int.add_mutually_exclusive_group()
    mode.add_argument("--improper", action="store_true", help="integrate over [0, infinity)")
    mode.add_argument("--to-inf", action="store_true", help="integrate over [a, infinity)")
    _add_common(p_int)
    _add_policy(p_int)

    p_ident = sub.add_parser("identities", help="run the seeded identity suite")
    p_ident.add_argument("--seed", type=int, default=0)
    p_ident.add_argument("--trials", type=_positive_int, default=50)
    p_ident.add_argument(
        "--only",
        action="append",
        metavar="LABEL",
        help="run only the check LABEL and the checks named LABEL-…; repeatable",
    )
    p_ident.add_argument(
        "--self-test-fail",
        action="store_true",
        help="inject a deliberately failing check to validate reporting",
    )
    p_ident.add_argument("--json", action="store_true", help="machine-readable JSON output")
    return parser


def _rat_arg(name: str, text: str) -> Rat:
    """``rat_named(name, text)``; a bound b that reads infinity is pointed at the infinite modes."""
    try:
        return rat_named(name, text)
    except ValueError as exc:
        if name != "b" or not (_non_finite(text) and float(text) == math.inf):
            raise
        raise ValueError(f"{exc}; integrate to infinity with --to-inf, or with --improper from 0") from None


def _non_finite(text: str) -> bool:
    """Whether ``text`` is a nan or infinity literal, a real that no rational spells."""
    return re.fullmatch(r"[+-]?(nan|inf|infinity)", text.strip().lower()) is not None


def _bound(name: str, text: str) -> float:
    return _float_view(name, _rat_arg(name, text))


def _params(args: argparse.Namespace) -> PqParams:
    return PqParams(_rat_arg("--p", args.p), _rat_arg("--q", args.q))


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    print(json.dumps(payload, allow_nan=False) if args.json else human)  # NaN and Infinity are not JSON


def _log10(x) -> float:
    return math.log10(abs(x.numerator)) - math.log10(x.denominator)


def _falling_bounds(n: int, k: int, params: PqParams) -> tuple[float, float, float]:
    """lo <= log10|[n][n-1]...[n-k+1]| <= hi, and den <= log10 of its reduced denominator, one digit short.

    With M = max(|p|,|q|) and m = min(|p|,|q|), the bounds
    M^j (1 - m/M) <= |p^j - q^j| <= 2 M^j for m < M, and |p^j - q^j| = 2 M^j
    for odd j at p = -q, bound |[j]| = |p^j - q^j| / |p - q| for j >= 1;
    [-j] = -[j]/(pq)^j, and the sums over j are closed forms.

    Write p = pn/pd and q = qn/qd.  For j >= 2 the reduced denominator of [j]
    is a multiple of B^(j-1), where B is pd qd without the primes pd and qd
    share: a prime r of pd alone divides Q but not P, so its numerator
    (P^j - Q^j)/(P - Q) = P^(j-1) != 0 mod r.  For m >= 1,
    [-m] = -B_m pd qd / (pn qn)^m with B_m = (P^m - Q^m)/(P - Q), so its
    reduced denominator is a multiple of A^m, where A is |pn qn| without the
    primes of pd qd and those pn and qn share: such a prime divides exactly
    one of P and Q, so neither B_m nor pd qd.  The numerators are prime to B
    or A, so over a product of positive or of negative factors the
    exponents add up.  A product with a zero factor gets (-inf, inf, -inf),
    which refuses nothing.
    """
    if _falling_vanishes(n, k, params.as_ints()):
        return -math.inf, math.inf, -math.inf
    big, small = sorted((abs(params.p), abs(params.q)), reverse=True)
    (pn, pd), (qn, qd) = params.p.as_integer_ratio(), params.q.as_integer_ratio()
    first = n - k + 1
    if first > 0:
        total, negative = _triangle(n) - _triangle(first - 1), 0
        exponent = _triangle(n - 1) - _triangle(max(first, 2) - 2)
        b, shared = pd * qd, math.gcd(pd, qd)
    else:  # no factor [0], so every factor is negative
        total = negative = exponent = _triangle(-first) - _triangle(-n - 1)
        b, shared = abs(pn * qn), pd * qd * math.gcd(pn, qn)
    mid = total * _log10(big) - negative * _log10(params.p * params.q) - k * _log10(params.p - params.q)
    low = math.log10(2) if big == small else _log10(1 - small / big)
    g = math.gcd(b, shared)
    while g > 1:
        b //= g
        g = math.gcd(b, g)
    return mid + k * low, mid + k * math.log10(2), exponent * math.log10(b) - 1


def _triangle(m: int) -> int:
    return m * (m + 1) // 2


def _coefficient_log10(expr: PqPowerExpr, k: int, params: PqParams) -> tuple[float, float, float]:
    """(lo, hi, den) for the coefficient c = g^k base^C(k,2) [n]...[n-k+1] of ``derive_pq_power_iterated``.

    With g = gamma != 0, lo <= log10|c| <= hi, and den is a lower bound on
    log10 of c's reduced denominator, one digit short: the numerator of
    g^k base^C(k,2) cancels at most its own digits of the falling product's
    denominator.
    """
    base, _ = expr.orientation.base_sign(params)
    c = k * (k - 1) // 2
    scale = k * _log10(expr.gamma) + c * _log10(base)
    cancel = k * math.log10(abs(expr.gamma.numerator)) + c * math.log10(abs(base.numerator))
    lo, hi, den = _falling_bounds(expr.n, k, params)
    return lo + scale, hi + scale, den - cancel


def _gamma_log10(expr: PqPowerExpr, k: int, params: PqParams) -> float:
    """A lower bound on log10 of the larger of the reduced numerator and denominator of gamma base^k, one digit short.

    With base = bn/bd and gamma = gn/gd in lowest terms, gn bn^k / (gd bd^k)
    reduces by at most gd in its numerator and by at most gn in its
    denominator.
    """
    base, _ = expr.orientation.base_sign(params)
    (bn, bd), (gn, gd) = base.as_integer_ratio(), expr.gamma.as_integer_ratio()
    return max(k * math.log10(abs(bn)) - math.log10(gd), k * math.log10(bd) - math.log10(abs(gn))) - 1


def _require_printable(digits: float, what: str) -> None:
    """Refuse, before computing it, a rational whose numerator or denominator has at least ``digits`` digits.

    If lo <= log10|value| <= hi, one of them has at least max(lo, -hi)
    digits, and str() refuses an int longer than the int-to-str limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and digits > limit:
        raise ValueError(f"{what} has over {limit} digits, the int-to-str limit")


def _printed(fmt: Callable[[Any], Any], value: object, what: str) -> Any:
    """``fmt(value)``, refused in ``_require_printable``'s words if it prints an int past the int-to-str limit.

    Every exact value pq prints comes through here: the guards refuse only what
    they can bound before computing, and Python's own message names no value.
    """
    try:
        return fmt(value)
    except ValueError:
        _require_printable(math.inf, what)
        raise  # no limit is in force: the error is the formatter's own


def cmd_bracket(args: argparse.Namespace) -> int:
    params = _params(args)
    try:
        n = int(args.n)
    except ValueError:
        n = None
    if n is not None:
        lo, hi, den = _falling_bounds(n, 1, params)
        _require_printable(max(lo, -hi, den), f"[{n}]")
        text = _printed(rat_str, bracket(n, params), f"[{n}]")
        _emit(args, {"value": text}, text)
    else:
        # a finite literal is read as a rational, so 1e400 and 1e-400 are refused as n and "0.0" reads 0
        alpha = float(args.n) if _non_finite(args.n) else _bound("n", args.n)
        value = bracket_alpha(alpha, params).value
        _emit(args, {"value": value}, repr(value))
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    from .polynomials import Polynomial, pq_derive_poly_k
    from .pqpower import derive_pq_power_iterated, format_power_expr, parse_power_expr

    params = _params(args)
    k = args.k
    if k < 0:
        raise ValueError(f"--k must be >= 0, got {k}")
    if args.expr.lstrip().startswith("pqpow"):
        expr = parse_power_expr(args.expr, params)
        if expr.gamma:
            lo, hi, den = _coefficient_log10(expr, k, params)
            _require_printable(max(lo, -hi, den), "the coefficient")
            _require_printable(_gamma_log10(expr, k, params), "the residual's gamma")
        coeff, residual = derive_pq_power_iterated(expr, k)
        coeff_text = _printed(rat_str, coeff, "the coefficient")
        text = _printed(format_power_expr, residual, "the residual's gamma")
        _emit(args, {"coeff": coeff_text, "expr": text}, f"{coeff_text} * {text}")
    else:
        result = pq_derive_poly_k(Polynomial.from_string(args.expr, "expr"), k, params)
        text = _printed(Polynomial.to_string, result, "the derivative")
        _emit(args, {"poly": text}, text)
    return 0


def cmd_taylor(args: argparse.Namespace) -> int:
    from .polynomials import Polynomial
    from .pqpower import Orientation
    from .taylor import PowerBasisExpansion, taylor_expand

    params = _params(args)
    f = Polynomial.from_string(args.poly)
    a = _rat_arg("a", args.a)
    expansion = taylor_expand(f, a, params, Orientation.A_MINUS_X if args.reversed else Orientation.X_MINUS_A)
    payload = _printed(PowerBasisExpansion.to_json_dict, expansion, "the expansion")
    payload["exact"] = expansion.to_polynomial(params) == f
    _emit(args, payload, json.dumps(payload, indent=2))
    return 0


def _parse_fn_spec(spec: str, params: PqParams) -> NumericFn:
    from .polynomials import NumericFn, Polynomial

    if spec.startswith("poly:"):
        f = Polynomial.from_string(spec[len("poly:"):], spec)
        for i, c in enumerate(f.coeffs):
            _float_view(f"coefficient {i} of {spec}", c)
        return NumericFn.from_polynomial(f)
    if spec == "recip":
        return NumericFn(lambda x: 1.0 / x)
    if spec == "log":
        if params.p < 0 or params.q < 0:
            raise ValueError("log needs p, q > 0: the logarithm of a negative lattice point is undefined")
        return NumericFn(math.log)
    if spec.startswith("powneg:"):
        text = spec[len("powneg:"):]
        if _non_finite(text):
            raise ValueError(f"{spec} needs a finite r")
        r = _bound("r", text)
        if not r.is_integer() and (params.p < 0 or params.q < 0):
            raise ValueError(f"{spec} needs p, q > 0: a non-integer power of a negative lattice point is complex")
        return NumericFn(lambda x: x**-r)
    raise ValueError(f"unknown function spec {spec!r} (use poly:…, recip, log, powneg:r)")


def cmd_integrate(args: argparse.Namespace) -> int:
    from .integration import TruncationPolicy, integral, integral_improper, integral_to_infinity

    params = _params(args)
    policy = TruncationPolicy(max_terms=args.max_terms, tail_tol=args.tail_tol)
    f = _parse_fn_spec(args.fn, params)
    if args.improper:
        if args.a is not None:  # b is read only after a
            raise ValueError(f"--improper integrates over [0, infinity) and reads no bound a, got a={args.a}")
        result = integral_improper(f, params, policy)
    elif args.to_inf:
        if args.a is None:
            raise ValueError("--to-inf needs the lower bound a")
        if args.b is not None:
            raise ValueError(f"--to-inf integrates over [a, infinity) and reads no bound b, got b={args.b}")
        result = integral_to_infinity(f, _bound("a", args.a), params, policy)
    else:
        if args.a is None or args.b is None:
            raise ValueError("need both bounds a and b (or --improper / --to-inf)")
        result = integral(f, _bound("a", args.a), _bound("b", args.b), params, policy)
    payload = result.to_json_dict()
    human = (
        f"value={result.value:.12g} status={result.status.value} "
        f"terms={result.terms_used} tail={result.tail_estimate:.3g} regime={result.regime.value}"
    )
    _emit(args, payload, human)
    return 0


def _select_labels(queries: Optional[list[str]]) -> Optional[list[str]]:
    from .identities import CHECKS

    if not queries:
        return None
    selected = []
    for query in queries:
        matches = [name for name in CHECKS if name == query or name.startswith(query + "-")]
        if not matches:
            raise ValueError(
                f"no identity label matches {query!r}; known labels: {', '.join(CHECKS)}"
            )
        selected.extend(m for m in matches if m not in selected)
    return selected


def cmd_identities(args: argparse.Namespace) -> int:
    from .identities import CheckResult, run_suite

    results = run_suite(seed=args.seed, trials=args.trials, only=_select_labels(args.only))
    if args.self_test_fail:  # a deliberately false identity shows that failures are reported
        results.append(CheckResult("self-test-forced-failure", args.trials, args.trials, ("intentional failure",)))
    passed = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "passed": passed,
        "results": [r.to_json_dict() for r in results],
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.label:28s} {r.trials:6d} trials {r.failures:5d} failures  {mark}")
        lines.extend(f"    {note}" for note in r.notes)
    total = sum(r.trials for r in results)
    lines.append(f"overall: {'PASS' if passed else 'FAIL'} ({len(results)} checks, {total} trials)")
    _emit(args, payload, "\n".join(lines))
    return 0 if passed else 1


_COMMANDS = {
    "bracket": cmd_bracket,
    "derive": cmd_derive,
    "taylor": cmd_taylor,
    "integrate": cmd_integrate,
    "identities": cmd_identities,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PqError, ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a value that passes the digit guard can still outgrow the memory
        print(f"error: {args.command}: out of memory; the result is too large to compute", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run ``pq``; a reader that closed stdout ends it with 141 (128 + SIGPIPE) and no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would fail again on what is left in the buffer
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
