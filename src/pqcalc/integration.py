"""(p,q)-antiderivatives and the lattice-series (p,q)-integrals.

Every definite integral here is a geometric-lattice sum: the integrand is
sampled on points a*(q/p)^k (scaled by 1/p or 1/q) and the weighted terms
are added until a :class:`TruncationPolicy` says stop.  Convergence means
``_SMALL_RUN`` (3) consecutive terms of magnitude at most ``tail_tol``;
divergence is declared after :data:`DIVERGENCE_WINDOW` consecutive
non-decreasing term magnitudes and is reported as a status, never raised,
so failure cases (1/x being the canonical one) can be demonstrated rather
than crashed on.  The reported ``tail_estimate`` is the magnitude of the
last term (of the last one above ``tail_tol`` when ``max_terms`` stops the
sum), not a bound on the error.

A term is float work only: one generator, :func:`lattice_terms`, walks
either direction and calls the integrand's plain ``fn``, and a polynomial
integrand arrives with its coefficients already floated
(:meth:`NumericFn.from_polynomial`).

The |q/p| = 1 regime has no defined lattice and is rejected outright.
"""

from __future__ import annotations

import enum
import math
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import DegenerateRegimeError, InvalidIntervalError, WrongRegimeError
from .polynomials import NumericFn, Polynomial, pq_derive_fn
from .scalars import DEFAULT_POLICY, PqParams, Regime, TruncationPolicy, bracket, rat


class IntegralStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_TERMS_REACHED = "max_terms"
    DIVERGENCE_DETECTED = "divergent"


_SEVERITY = {
    IntegralStatus.CONVERGED: 0,
    IntegralStatus.MAX_TERMS_REACHED: 1,
    IntegralStatus.DIVERGENCE_DETECTED: 2,
}


class IntegralResult(NamedTuple):
    value: float
    terms_used: int
    tail_estimate: float
    regime: Regime
    status: IntegralStatus

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "terms": self.terms_used,
            "tail": self.tail_estimate,
            "status": self.status.value,
            "regime": self.regime.value,
        }


class GapReport(NamedTuple):
    """Both sides of a two-sided identity and their absolute gap."""

    lhs: float
    rhs: float
    gap: float
    status: IntegralStatus


def _require_lattice(params: PqParams) -> Regime:
    regime = params.regime
    if regime is Regime.DEGENERATE:
        raise DegenerateRegimeError("|q/p| = 1 has no integral lattice")
    return regime


# consecutive sub-tolerance terms required before declaring convergence;
# guards against an integrand that merely has a zero on the lattice
_SMALL_RUN = 3
#: consecutive non-decreasing term magnitudes that declare a series divergent
DIVERGENCE_WINDOW = 8


def _sum_series(terms: Iterator[float], policy: TruncationPolicy) -> tuple[float, int, float, IntegralStatus]:
    total = 0.0
    count = 0
    run = 1
    small_run = 0
    last_mag = 0.0
    tail_tol = policy.tail_tol
    for term in islice(terms, policy.max_terms):
        count += 1
        total += term
        mag = abs(term)
        if mag <= tail_tol:
            small_run += 1
            if small_run >= _SMALL_RUN:
                return total, count, mag, IntegralStatus.CONVERGED
        else:
            small_run = 0
            if count > 1 and mag >= last_mag:
                run += 1
                if run >= DIVERGENCE_WINDOW:
                    return total, count, mag, IntegralStatus.DIVERGENCE_DETECTED
            else:
                run = 1
            last_mag = mag
    return total, count, last_mag, IntegralStatus.MAX_TERMS_REACHED


def _worse(a: IntegralStatus, b: IntegralStatus) -> IntegralStatus:
    """The more severe of two statuses; the first one on a tie."""
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _combine(a: IntegralResult, b: IntegralResult, value: float) -> IntegralResult:
    return IntegralResult(
        value=value,
        terms_used=a.terms_used + b.terms_used,
        tail_estimate=a.tail_estimate + b.tail_estimate,
        regime=a.regime,
        status=_worse(a.status, b.status),
    )


def lattice_terms(f: NumericFn, a: float, params: PqParams, to_zero: bool) -> Iterator[float]:
    """Terms of the series for the integral of f over [0, a] or [a, infinity).

    Regime |q/p| < 1:  (p-q) a sum_k (q^k / p^{k+1}) f(a q^k / p^{k+1})
    Regime |q/p| > 1:  the same with p and q exchanged

    so the [0, a] lattice always marches geometrically towards 0.  At p = 1
    it is termwise the classical Jackson sum (1-q) a q^k f(a q^k).  The
    [a, infinity) series keeps the prefactor on the reciprocal lattice,
    a (p/q)^k / q (respectively a (q/p)^k / p), and together the two tile
    exactly the bilateral lattice of the improper integral.
    """
    p, q = params.as_floats()
    lt1 = _require_lattice(params) is Regime.RATIO_LT_ONE
    pre = (p - q) * a if lt1 else (q - p) * a
    num, den = (q, p) if lt1 == to_zero else (p, q)
    ratio = num / den
    w = 1.0 / den
    fn = f.fn
    while True:
        yield pre * w * fn(a * w)
        w *= ratio


def _lattice_integral(terms: Iterator[float], regime: Regime, policy: TruncationPolicy) -> IntegralResult:
    value, count, tail, status = _sum_series(terms, policy)
    return IntegralResult(value, count, tail, regime, status)


def integral_zero_to(
    f: NumericFn, a: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Truncated series for the integral of f over [0, a], 0 <= a < infinity."""
    regime = _require_lattice(params)
    if not 0 <= a < math.inf:
        raise InvalidIntervalError(f"need a >= 0, got {a}")
    if a == 0:
        return IntegralResult(0.0, 0, 0.0, regime, IntegralStatus.CONVERGED)
    return _lattice_integral(lattice_terms(f, a, params, to_zero=True), regime, policy)


def integral_to_infinity(
    f: NumericFn, a: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Truncated series for the integral of f over [a, infinity), 0 < a < infinity."""
    regime = _require_lattice(params)
    if not 0 < a < math.inf:
        raise InvalidIntervalError(f"need a > 0, got {a}")
    return _lattice_integral(lattice_terms(f, a, params, to_zero=False), regime, policy)


def integral_improper(
    f: NumericFn, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Bilateral series for the integral of f over [0, infinity).

    The lattice is anchored at 1; each direction is truncated independently
    under the policy and a divergent direction shows up in the combined
    status.
    """
    down = integral_zero_to(f, 1.0, params, policy)
    up = integral_to_infinity(f, 1.0, params, policy)
    return _combine(down, up, down.value + up.value)


def integral(
    f: NumericFn, a: float, b: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Integral over [a, b], 0 <= a < b <= infinity.

    A finite b takes the difference of the two zero-based series; b = infinity
    takes the [a, infinity) series, or the bilateral one when a = 0.
    """
    if not 0 <= a < b:
        raise InvalidIntervalError(f"need 0 <= a < b, got a={a}, b={b}")
    if math.isinf(b):
        return integral_to_infinity(f, a, params, policy) if a else integral_improper(f, params, policy)
    upper = integral_zero_to(f, b, params, policy)
    lower = integral_zero_to(f, a, params, policy)
    return _combine(upper, lower, upper.value - lower.value)


def integral_riemann_stieltjes(
    f: NumericFn,
    g: NumericFn,
    x: float,
    params: PqParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> IntegralResult:
    """The sum for the integral of f against d_{p,q} g, |q/p| < 1 lattice.

    term_k = f(q^k x / p^{k+1}) * (g(q^k x / p^k) - g(q^{k+1} x / p^{k+1})),
    which telescopes to g(x) - g(0+) when f is identically 1.
    """
    regime = _require_lattice(params)
    if regime is not Regime.RATIO_LT_ONE:
        raise WrongRegimeError("the Riemann-Stieltjes form is derived for |q/p| < 1")
    if not 0 < x < math.inf:
        raise InvalidIntervalError(f"need x > 0, got {x}")
    p, q = params.as_floats()
    ratio = q / p
    fn, gn = f.fn, g.fn

    def terms() -> Iterator[float]:
        rk = 1.0
        while True:
            yield fn(x * rk / p) * (gn(x * rk) - gn(x * rk * ratio))
            rk *= ratio

    return _lattice_integral(terms(), regime, policy)


def antiderive_poly(f: Polynomial, params: PqParams, constant: object = 0) -> Polynomial:
    """The unique polynomial antiderivative with the given constant term.

    The x^n coefficient moves to x^{n+1} divided by [n+1]; differentiating
    the result reproduces f exactly.
    """
    out = [rat(constant)]
    for n, c in enumerate(f.coeffs):
        br = bracket(n + 1, params)
        if br == 0:
            raise DegenerateRegimeError(f"[{n + 1}] = 0 at p = -q; coefficient has no preimage")
        out.append(c / br)
    return Polynomial(out)


class BoundednessReport(NamedTuple):
    """Heuristic verdict on whether |f(x) x^alpha| stays bounded near 0."""

    bounded: bool
    observed_bound: float


def check_convergence_hypothesis(f: NumericFn, A: float, alpha: float) -> BoundednessReport:
    """Sample |f(x) x^alpha| on the 24-point geometric grid x = A / 2^i.

    Declares "unbounded" when the last 9 values keep growing strictly
    towards x = 0 without stalling.  This is a sampling heuristic, not a
    proof: it looks at those 24 points and nothing else.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"need 0 <= alpha < 1, got {alpha}")
    if not 0 < A < math.inf:
        raise ValueError(f"need 0 < A < inf, got {A}")
    grid = [abs(f(A * 0.5**i)) * (A * 0.5**i) ** alpha for i in range(24)]
    tail = grid[-9:]
    strictly_growing = all(later > earlier for earlier, later in zip(tail, tail[1:]))
    grew_enough = tail[0] == 0.0 or tail[-1] >= 1.5 * tail[0]
    return BoundednessReport(
        bounded=not (strictly_growing and grew_enough),
        observed_bound=max(grid),
    )


def newton_leibniz_check(
    F: NumericFn, a: float, b: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> GapReport:
    """Integrate the (p,q)-derivative of F over [a, b] and compare to F(b) - F(a).

    The claim behind it needs F continuous at 0 (the caller asserts this);
    b may be math.inf, in which case F must accept infinity.
    """
    integrand = NumericFn(lambda t: pq_derive_fn(F, t, params))
    result = integral(integrand, a, b, params, policy)
    rhs = F(b) - F(a)
    return GapReport(lhs=result.value, rhs=rhs, gap=abs(result.value - rhs), status=result.status)


def integrate_by_parts(
    f: NumericFn,
    g: NumericFn,
    a: float,
    b: float,
    params: PqParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> GapReport:
    """Check the (p,q)-integration-by-parts identity on [a, b].

    lhs = integral of f(px) Dg(x); rhs = f(b)g(b) - f(a)g(a) minus the
    integral of g(qx) Df(x).  Both integrands sample the derivative
    numerically, so f and g should be ordinarily differentiable near 0.
    """
    p, q = params.as_floats()
    left_int = NumericFn(lambda t: f(p * t) * pq_derive_fn(g, t, params))
    right_int = NumericFn(lambda t: g(q * t) * pq_derive_fn(f, t, params))
    left = integral(left_int, a, b, params, policy)
    right = integral(right_int, a, b, params, policy)
    lhs = left.value
    rhs = f(b) * g(b) - f(a) * g(a) - right.value
    return GapReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs), status=_worse(left.status, right.status))
