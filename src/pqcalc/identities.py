"""Seeded identity suite: every proposition the engine implements, as a law.

Each law draws random instances from a :class:`random.Random`, verifies
one labelled identity and reports a :class:`CheckResult`.  Algebraic laws
are checked in exact rational arithmetic (a failure means the identity is
false, not that a tolerance was tight); lattice-series laws are numeric
with the tolerances stated next to them.

Left-hand sides of derivative laws are genuine difference quotients of the
evaluated functions, so the checks do not reuse the code paths they judge.

Add a law by decorating one function with :func:`law`, which registers it
in :data:`CHECKS` (and, with ``exact=True``, in :data:`EXACT_LAW_LABELS`).
A plain law ``trial(rng, **bound) -> bool`` runs once per trial.  A
``cases=True`` law is a generator ``(rng, trials, **bound)`` that yields one
bool per case and a ``str`` per note, so a fixed grid can ignore ``trials``.
Other keywords of :func:`law` are passed to every call, so stacked decorators
let one function back several labels; they register bottom-up, and the
order of :data:`CHECKS` is the report order.  Write each outcome as a pass
condition (``gap < tol``), so that a NaN fails.
"""

from __future__ import annotations

import math
from itertools import islice
from random import Random
from typing import Callable, NamedTuple

from .errors import PoleError
from .integration import (
    IntegralStatus,
    TruncationPolicy,
    antiderive_poly,
    check_convergence_hypothesis,
    integral_improper,
    integral_to_infinity,
    integral_zero_to,
    integrate_by_parts,
    integral_riemann_stieltjes,
    lattice_terms,
    newton_leibniz_check,
)
from .polynomials import (
    NumericFn,
    Polynomial,
    eval_poly,
    pq_derive_poly,
    pq_derive_poly_k,
    pq_difference_quotient,
)
from .pqpower import (
    Orientation,
    PqPowerExpr,
    additive_law_check,
    derive_pq_power,
    derive_pq_power_iterated,
    eval_pq_power,
    expand_expr,
    reciprocal_rules_check,
)
from .scalars import (
    PqParams,
    Rat,
    Regime,
    bracket,
    bracket_alpha,
    pq_binomial,
    rat,
)
from .taylor import (
    connect_monomial,
    connect_power_to_power,
    heine_coefficients_match,
    heine_series_eval,
    q_binomial_reduction_check,
    taylor_expand,
    taylor_expand_reversed,
)


class CheckResult(NamedTuple):
    label: str
    trials: int
    failures: int
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ----------------------------------------------------------------- registry

CHECKS: dict[str, Callable[[Random, int], CheckResult]] = {}
_exact_labels: list[str] = []


def law(label: str, *, exact: bool = False, cases: bool = False, **bound):
    """Register the decorated trial, or case generator if ``cases``, as the check ``label``."""

    def register(fn):
        def check(rng: Random, trials: int) -> CheckResult:
            runs = fn(rng, trials, **bound) if cases else (fn(rng, **bound) for _ in range(trials))
            outcomes = list(runs)
            verdicts = [ok for ok in outcomes if not isinstance(ok, str)]
            notes = tuple(note for note in outcomes if isinstance(note, str))
            return CheckResult(label, len(verdicts), sum(not ok for ok in verdicts), notes)

        CHECKS[label] = check
        if exact:
            _exact_labels.append(label)
        return fn

    return register


# ---------------------------------------------------------------- sampling

_PARAM_POOL = [
    rat("1/3"), rat("1/2"), rat("2/3"), rat("3/2"), rat(2), rat(3), rat("5/2"),
    rat("-1/2"), rat("-1/3"), rat(-2),
]
# positive, ratio bounded away from 1: what the convergence theory covers
_POSITIVE_POOL = [rat("1/3"), rat("1/2"), rat(1), rat("3/2"), rat(2), rat(3)]
# the parameter set used by the Taylor round-trip checks
_TAYLOR_POOL = [rat("1/3"), rat("-1/3"), rat("1/2"), rat("-1/2"), rat(2), rat(3), rat("5/2")]


def _rand_rat(rng: Random, max_num: int = 8, max_den: int = 5, nonzero: bool = False) -> Rat:
    while True:
        value = rat(rng.randint(-max_num, max_num)) / rng.randint(1, max_den)
        if value != 0 or not nonzero:
            return value


def _rand_params(rng: Random, pool: list = _PARAM_POOL, spread: Rat | None = None) -> PqParams:
    """A pair from ``pool`` with p != +-q; with ``spread``, max(|q/p|, |p/q|) >= spread.

    The spread keeps the lattice decay away from 1, so that series settle quickly.
    """
    while True:
        p, q = rng.choice(pool), rng.choice(pool)
        if p != q and p != -q and (spread is None or max(abs(q / p), abs(p / q)) >= spread):
            return PqParams(p, q)


def _rand_poly(rng: Random, max_deg: int, max_num: int = 9, max_den: int = 5) -> Polynomial:
    degree = rng.randint(0, max_deg)
    return Polynomial(_rand_rat(rng, max_num, max_den) for _ in range(degree + 1))


def _rand_x(rng: Random, avoid: Callable[[Rat], bool] | None = None) -> Rat:
    """A nonzero rational sample point, resampled away from poles."""
    for _ in range(200):
        x = _rand_rat(rng, max_num=9, max_den=5, nonzero=True)
        if avoid is None or not avoid(x):
            return x
    raise RuntimeError("could not find a safe sample point")


def _pole(*points: tuple[PqPowerExpr, Rat]) -> bool:
    """Whether some (expression, x) pair evaluates at a pole."""
    try:
        for e, x in points:
            eval_pq_power(e, x)
    except PoleError:
        return True
    return False


# ------------------------------------------------------ derivative algebra

@law("linearity", exact=True)
def _linearity(rng: Random) -> bool:
    params = _rand_params(rng)
    f, g = _rand_poly(rng, 5), _rand_poly(rng, 5)
    a, b = _rand_rat(rng), _rand_rat(rng)
    lhs = pq_derive_poly(a * f + b * g, params)
    rhs = a * pq_derive_poly(f, params) + b * pq_derive_poly(g, params)
    return lhs == rhs


@law("product-rule-2", exact=True, first_form=False)
@law("product-rule-1", exact=True, first_form=True)
def _product_rule(rng: Random, first_form: bool) -> bool:
    params = _rand_params(rng)
    p, q = params.p, params.q
    f, g = _rand_poly(rng, 4), _rand_poly(rng, 4)
    df, dg = pq_derive_poly(f, params), pq_derive_poly(g, params)
    x = _rand_x(rng)
    lhs = eval_poly(pq_derive_poly(f * g, params), x)
    if first_form:
        rhs = eval_poly(f, p * x) * eval_poly(dg, x) + eval_poly(g, q * x) * eval_poly(df, x)
    else:
        rhs = eval_poly(g, p * x) * eval_poly(df, x) + eval_poly(f, q * x) * eval_poly(dg, x)
    return lhs == rhs


@law("quotient-rule-2", exact=True, first_form=False)
@law("quotient-rule-1", exact=True, first_form=True)
def _quotient_rule(rng: Random, first_form: bool) -> bool:
    params = _rand_params(rng)
    p, q = params.p, params.q
    f = _rand_poly(rng, 3)
    while True:
        g = _rand_poly(rng, 3)
        if not g.is_zero():
            break
    x = _rand_x(rng, avoid=lambda t: eval_poly(g, p * t) == 0 or eval_poly(g, q * t) == 0)
    lhs = pq_difference_quotient(lambda t: eval_poly(f, t) / eval_poly(g, t), x, params)
    df_x = eval_poly(pq_derive_poly(f, params), x)
    dg_x = eval_poly(pq_derive_poly(g, params), x)
    denom = eval_poly(g, p * x) * eval_poly(g, q * x)
    if first_form:
        rhs = (eval_poly(g, q * x) * df_x - eval_poly(f, q * x) * dg_x) / denom
    else:
        rhs = (eval_poly(g, p * x) * df_x - eval_poly(f, p * x) * dg_x) / denom
    return lhs == rhs


# -------------------------------------------------------- power basis laws

@law("derule1", exact=True)
def _derule1(rng: Random) -> bool:
    """D (x (-) a)^n = [n] (px (-) a)^{n-1} as polynomials, n >= 0."""
    params = _rand_params(rng)
    a = _rand_rat(rng)
    n = rng.randint(0, 6)
    lhs = pq_derive_poly(expand_expr(PqPowerExpr(a, n, params)), params)
    if n == 0:
        return lhs.is_zero()
    residual = PqPowerExpr(a, n - 1, params, gamma=params.p)
    return lhs == bracket(n, params) * expand_expr(residual)


@law("derule2", exact=True)
def _derule2(rng: Random) -> bool:
    """Scaled law D (g x (-) a)^n = g [n] (g p x (-) a)^{n-1} as polynomials."""
    params = _rand_params(rng)
    a = _rand_rat(rng)
    gamma = _rand_rat(rng, nonzero=True)
    n = rng.randint(1, 5)
    e = PqPowerExpr(a, n, params, gamma=gamma)
    coeff, residual = derive_pq_power(e)
    if coeff != gamma * bracket(n, params) or residual.gamma != gamma * params.p:
        return False
    return pq_derive_poly(expand_expr(e), params) == coeff * expand_expr(residual)


@law("derule3", exact=True)
def _derule3(rng: Random) -> bool:
    """k-fold closed form on the forward basis, plus its coefficient recursion."""
    params = _rand_params(rng)
    a = _rand_rat(rng)
    n = rng.randint(0, 6)
    e = PqPowerExpr(a, n, params)
    f = expand_expr(e)
    previous, p = None, params.p
    for k in range(n + 1):
        coeff, residual = derive_pq_power_iterated(e, k)
        if pq_derive_poly_k(f, k, params) != coeff * expand_expr(residual):
            return False
        if previous is not None:
            # coeff(k)/coeff(k-1) = p^{k-1} [n-k+1]
            if coeff != previous * p ** (k - 1) * bracket(n - k + 1, params):
                return False
        previous = coeff
    return True


@law("der3", exact=True)
def _der3(rng: Random) -> bool:
    """Single-derivative law for every integer n in [-4, 6], pointwise exact."""
    params = _rand_params(rng)
    a = _rand_rat(rng, nonzero=True)
    for n in range(-4, 7):
        e = PqPowerExpr(a, n, params)
        coeff, residual = derive_pq_power(e)
        x = _rand_x(rng, avoid=lambda t: _pole((e, params.p * t), (e, params.q * t), (residual, t)))
        lhs = pq_difference_quotient(lambda t: eval_pq_power(e, t), x, params)
        rhs = rat(0) if coeff == 0 else coeff * eval_pq_power(residual, x)
        if lhs != rhs:
            return False
    return True


@law("derule4", exact=True)
def _derule4(rng: Random) -> bool:
    """k-fold closed form on the reversed basis, as polynomials."""
    params = _rand_params(rng)
    a = _rand_rat(rng)
    n = rng.randint(0, 5)
    e = PqPowerExpr(a, n, params, orientation=Orientation.A_MINUS_X)
    f = expand_expr(e)
    for k in range(n + 1):
        coeff, residual = derive_pq_power_iterated(e, k)
        if pq_derive_poly_k(f, k, params) != coeff * expand_expr(residual):
            return False
    return True


@law("r3", exact=True, which=2)
@law("r2", exact=True, which=1)
@law("r1", exact=True, which=0)
def _reciprocal(rng: Random, which: int) -> bool:
    params = _rand_params(rng)
    a = _rand_rat(rng, nonzero=True)
    n = rng.randint(0, 4)

    def poles(t: Rat) -> bool:
        p, q = params.p, params.q
        for orientation in (Orientation.X_MINUS_A, Orientation.A_MINUS_X):
            base = PqPowerExpr(a, n, params, orientation=orientation)
            if eval_pq_power(base, p * t) == 0 or eval_pq_power(base, q * t) == 0:
                return True
        up_q = PqPowerExpr(a, n + 1, params, gamma=params.q)
        up_p = PqPowerExpr(a, n + 1, params, gamma=params.p, orientation=Orientation.A_MINUS_X)
        return eval_pq_power(up_q, t) == 0 or eval_pq_power(up_p, t) == 0

    x = _rand_x(rng, avoid=poles)
    return reciprocal_rules_check(a, n, params, x)[which]


@law("expand1", exact=True)
def _expand1(rng: Random) -> bool:
    """Additive law over the full sign grid m, n in [-3, 3]^2."""
    params = _rand_params(rng)
    a = _rand_rat(rng, nonzero=True)
    for m in range(-3, 4):
        for n in range(-3, 4):
            for _ in range(50):
                x = _rand_rat(rng, nonzero=True)
                try:
                    if not additive_law_check(a, m, n, params, x):
                        return False
                    break
                except PoleError:
                    continue
            else:
                return False
    return True


@law("negdef", exact=True)
def _negdef(rng: Random) -> bool:
    """(x (-) a)^{-n} (p^{-n} x (-) q^{-n} a)^n = 1 at non-pole points."""
    params = _rand_params(rng)
    p, q = params.p, params.q
    a = _rand_rat(rng, nonzero=True)
    n = rng.randint(0, 4)
    negative = PqPowerExpr(a, -n, params)
    partner = PqPowerExpr(q**-n * a, n, params, gamma=p**-n)
    x = _rand_x(rng, avoid=lambda t: _pole((negative, t)))
    return eval_pq_power(negative, x) * eval_pq_power(partner, x) == 1


@law("expand-eval-coherence")
def _expand_eval_coherence(rng: Random) -> bool:
    """eval of the product form equals eval of the expanded polynomial."""
    params = _rand_params(rng)
    e = PqPowerExpr(
        _rand_rat(rng),
        rng.randint(0, 6),
        params,
        gamma=_rand_rat(rng, nonzero=True),
        orientation=rng.choice((Orientation.X_MINUS_A, Orientation.A_MINUS_X)),
    )
    x = _rand_rat(rng)
    return eval_pq_power(e, x) == eval_poly(expand_expr(e), x)


@law("reversed-basis-distinct", cases=True)
def _reversed_basis_distinct(rng: Random, trials: int):
    """Witness that (a (-) x)^n is not (-1)^n (x (-) a)^n when p != q."""
    params = PqParams(2, 1)
    forward = eval_pq_power(PqPowerExpr(0, 2, params), 1)
    reverse = eval_pq_power(PqPowerExpr(0, 2, params, orientation=Orientation.A_MINUS_X), 1)
    yield forward == 2 and reverse == 1 and forward != (-1) ** 2 * reverse


# ------------------------------------------------------------- scalar laws

@law("bracket-invariants")
def _bracket_invariants(rng: Random) -> bool:
    """Symmetry, the sum form, the q-reduction, binomial symmetry and scaling."""
    params = _rand_params(rng)
    p, q = params.p, params.q
    n = rng.randint(-5, 8)
    if bracket(n, params) != bracket(n, params.swapped()):
        return False
    m = rng.randint(1, 8)
    if bracket(m, params) != sum(p ** (m - 1 - k) * q**k for k in range(m)):
        return False
    if q != 1:
        jackson = PqParams(1, q)
        if bracket(m, jackson) != (1 - q**m) / (1 - q):
            return False
    k = rng.randint(0, m)
    if pq_binomial(m, k, params) != pq_binomial(m, m - k, params):
        return False
    scaled = PqParams(1, q / p)
    if pq_binomial(m, k, params) != p ** (k * (m - k)) * pq_binomial(m, k, scaled):
        return False
    if p > 0 and q > 0:
        if not bracket_alpha(float(m), params).close_to(float(bracket(m, params))):
            return False
    return True


# ------------------------------------------------------------ Taylor layer

@law("taylor-roundtrip-reversed", reverse=True)
@law("taylor-roundtrip", reverse=False)
def _taylor_roundtrip(rng: Random, reverse: bool) -> bool:
    params = _rand_params(rng, pool=_TAYLOR_POOL)
    f = Polynomial(
        rat(rng.randint(-50, 50)) / rng.randint(1, 50) for _ in range(rng.randint(1, 9))
    )
    a = _rand_rat(rng)
    expand = taylor_expand_reversed if reverse else taylor_expand
    expansion = expand(f, a, params)
    if expansion.to_polynomial(params) != f:
        return False
    if not f.is_zero() and len(expansion.coeffs) != len(f.coeffs):
        return False
    return True


@law("conec2", orientation=Orientation.A_MINUS_X)
@law("conec1", orientation=Orientation.X_MINUS_A)
def _connect_monomial(rng: Random, orientation: Orientation) -> bool:
    params = _rand_params(rng, pool=_TAYLOR_POOL)
    n = rng.randint(0, 8)
    a = _rand_rat(rng)
    coeffs = connect_monomial(n, a, params, orientation)
    expand = taylor_expand if orientation is Orientation.X_MINUS_A else taylor_expand_reversed
    expansion = expand(Polynomial.monomial(n), a, params)
    padded = expansion.coeffs + (rat(0),) * (len(coeffs) - len(expansion.coeffs))
    return coeffs == padded


@law("conecc4", orientation=Orientation.A_MINUS_X)
@law("conecc3", orientation=Orientation.X_MINUS_A)
def _connect_power(rng: Random, orientation: Orientation) -> bool:
    params = _rand_params(rng, pool=_TAYLOR_POOL)
    n = rng.randint(0, 6)
    a, b = _rand_rat(rng), _rand_rat(rng)
    coeffs = connect_power_to_power(b, a, n, params, orientation)
    lhs = expand_expr(PqPowerExpr(b, n, params, orientation=orientation))
    rhs = Polynomial.zero()
    for k, c in enumerate(coeffs):
        rhs = rhs + c * expand_expr(PqPowerExpr(a, k, params, orientation=orientation))
    return lhs == rhs


@law("qbin")
def _qbin(rng: Random) -> bool:
    """Classical q-binomial theorem instances at p = 1, exact."""
    a = rat(rng.randint(1, 9)) / rng.randint(10, 20)
    b = rat(rng.randint(1, 9)) / rng.randint(10, 20)
    q = rat(rng.randint(1, 9)) / rng.randint(10, 20)
    return q_binomial_reduction_check(a, b, rng.randint(0, 6), q)


@law("heine-coefficients", cases=True)
def _heine_coefficients(rng: Random, trials: int):
    """Claimed reciprocal-power coefficients against the long-division oracle.

    At p = 1 the claim is the classical Heine binomial formula and must
    match; away from p = 1 the suite only reports the verdict, since the
    claim is stated without proof there.
    """
    for params in (
        PqParams(1, rat("1/2")),
        PqParams(1, rat("1/3")),
        PqParams(rat("3/2"), rat("1/2")),
        PqParams(2, rat("1/3")),
    ):
        for n in (1, 2, 3):
            matched = heine_coefficients_match(n, params, num_terms=8)
            yield f"p={params.p}, q={params.q}, n={n}: {'MATCH' if matched else 'MISMATCH'}"
            yield matched or params.p != 1


@law("heine-series", cases=True)
def _heine_series(rng: Random, trials: int):
    """Truncated series against the direct reciprocal product, p = 1, 1e-8."""
    for q_exact in (rat("1/2"), rat("1/3")):
        params = PqParams(1, q_exact)
        q = float(q_exact)
        for n in (1, 2, 3):
            for x in (0.2, 0.25):
                product = 1.0
                for j in range(n):
                    product *= 1 - q**j * x
                value = heine_series_eval(n, x, params)
                yield abs(value - 1.0 / product) <= 1e-8


# --------------------------------------------------------- integration layer

@law("antiderivative-roundtrip")
def _antiderivative_roundtrip(rng: Random) -> bool:
    params = _rand_params(rng)
    f = _rand_poly(rng, 10)
    constant = _rand_rat(rng)
    F = antiderive_poly(f, params, constant)
    if pq_derive_poly(F, params) != f:
        return False
    constant_term = F.coeffs[0] if F.coeffs else rat(0)
    return constant_term == constant


@law("telescoping-partial-sum")
def _telescoping_partial_sum(rng: Random) -> bool:
    """Exact: N+1 series terms of the integral of DF equal F(a) - F(a r^{N+1})."""
    params = _rand_params(rng)
    p, q = params.p, params.q
    F = _rand_poly(rng, 6)
    dF = pq_derive_poly(F, params)
    a = rat(rng.randint(1, 8)) / rng.randint(1, 5)
    count = rng.randint(1, 8)
    if abs(q / p) < 1:
        pre, num, den = (p - q) * a, q, p
    else:
        pre, num, den = (q - p) * a, p, q
    total = rat(0)
    w = 1 / rat(den)
    for _ in range(count):
        total += pre * w * eval_poly(dF, a * w)
        w *= num / rat(den)
    deep = a * (num / rat(den)) ** count
    return total == eval_poly(F, a) - eval_poly(F, deep)


@law("monomial-integral", cases=True)
def _monomial_integral(rng: Random, trials: int):
    """Integral of x^n over [0, a] equals a^{n+1}/[n+1] within 1e-9, <= 500 terms."""
    for p, q in ((rat(1), rat("1/3")), (rat(1), rat("1/2")), (rat(1), rat(3)), (rat("2/3"), rat(2))):
        params = PqParams(p, q)
        for n in range(7):
            for a in (0.5, 1.0, 2.0):
                result = integral_zero_to(NumericFn(lambda x, n=n: x**n), a, params)
                target = a ** (n + 1) / float(bracket(n + 1, params))
                yield (
                    result.status is IntegralStatus.CONVERGED
                    and result.terms_used <= 500
                    and abs(result.value - target) < 1e-9
                )


@law("jackson-reduction", cases=True)
def _jackson_reduction(rng: Random, trials: int):
    """At p = 1 the series terms are the classical Jackson terms, 1e-15 relative."""
    params = PqParams(1, rat("1/2"))
    q = 0.5
    for f in (
        NumericFn(lambda x: 1.0 / (1.0 + x)),
        NumericFn(lambda x: x * x - 3.0 * x),
        NumericFn(lambda x: math.exp(-x)),
    ):
        for a in (0.5, 1.0, 2.0):
            ours = list(islice(lattice_terms(f, a, params, to_zero=True), 30))
            jackson = [(1 - q) * a * q**k * f(q**k * a) for k in range(30)]
            yield all(
                abs(x - y) <= 1e-15 * max(abs(x), abs(y)) or x == y == 0.0
                for x, y in zip(ours, jackson)
            )


@law("regime-symmetry")
def _regime_symmetry(rng: Random) -> bool:
    """Swapping p and q leaves the [0, a] integral unchanged within 1e-10."""
    params = _rand_params(rng, _POSITIVE_POOL, spread=rat("4/3"))
    f = NumericFn.from_polynomial(_rand_poly(rng, 5, max_num=6, max_den=3))
    a = rng.choice((0.5, 1.0, 2.0))
    direct = integral_zero_to(f, a, params)
    swapped = integral_zero_to(f, a, params.swapped())
    return abs(direct.value - swapped.value) < 1e-10


@law("fundamental-theorem", cases=True)
def _fundamental_theorem(rng: Random, trials: int):
    """Integral of DF over [a, b] against F(b) - F(a), gap < 1e-8."""
    for _ in range(trials):
        params = _rand_params(rng, _POSITIVE_POOL, spread=rat("4/3"))
        F = NumericFn.from_polynomial(_rand_poly(rng, 6, max_num=10, max_den=4))
        for a, b in ((0.0, 1.0), (1.0, 2.0), (0.5, 3.0)):
            report = newton_leibniz_check(F, a, b, params)
            yield report.gap < 1e-8 and report.status is IntegralStatus.CONVERGED


@law("integration-by-parts", cases=True)
def _integration_by_parts(rng: Random, trials: int):
    """Both sides of the by-parts identity, gap < 1e-8 on (0,1) and (1,2)."""
    for _ in range(trials):
        params = _rand_params(rng, _POSITIVE_POOL, spread=rat("4/3"))
        f = NumericFn.from_polynomial(_rand_poly(rng, 4, max_num=8, max_den=4))
        g = NumericFn.from_polynomial(_rand_poly(rng, 4, max_num=8, max_den=4))
        for a, b in ((0.0, 1.0), (1.0, 2.0)):
            yield integrate_by_parts(f, g, a, b, params).gap < 1e-8


@law("divergence-demo", cases=True)
def _divergence_demo(rng: Random, trials: int):
    """1/x must be detected divergent fast, and flagged unbounded at every alpha."""
    recip = NumericFn(lambda x: 1.0 / x)
    result = integral_zero_to(recip, 1.0, PqParams(2, 1))
    yield result.status is IntegralStatus.DIVERGENCE_DETECTED and result.terms_used <= 64
    yield f"1/x on (0,1], q/p=1/2: {result.status.value} after {result.terms_used} terms"
    for alpha in (0.0, 0.25, 0.5, 0.75):
        yield not check_convergence_hypothesis(recip, 1.0, alpha).bounded
    yield check_convergence_hypothesis(NumericFn(lambda x: 1.0), 1.0, 0.5).bounded
    yield check_convergence_hypothesis(NumericFn(lambda x: x**-0.25), 1.0, 0.5).bounded


@law("improper-split", cases=True)
def _improper_split(rng: Random, trials: int):
    """[0,1] + [1,inf) must reassemble the bilateral improper sum."""
    policy = TruncationPolicy()
    witness = NumericFn(lambda x: x if x <= 1 else x**-3)
    smooth = NumericFn(lambda x: x / (1 + x**4))
    for f in (witness, smooth):
        for params in (PqParams(1, rat("1/2")), PqParams(2, rat("2/3")), PqParams(rat("1/2"), rat("3/2"))):
            down = integral_zero_to(f, 1.0, params, policy)
            up = integral_to_infinity(f, 1.0, params, policy)
            whole = integral_improper(f, params, policy)
            yield (
                down.status is IntegralStatus.CONVERGED
                and up.status is IntegralStatus.CONVERGED
                and whole.status is IntegralStatus.CONVERGED
                and abs(whole.value - (down.value + up.value)) <= 2 * policy.tail_tol
            )


@law("riemann-stieltjes")
def _riemann_stieltjes(rng: Random) -> bool:
    """g = id reduces to the plain integral; f = 1 telescopes to g(x) - g(0)."""
    while True:
        params = _rand_params(rng, _POSITIVE_POOL, spread=rat("4/3"))
        if params.regime is Regime.RATIO_LT_ONE:
            break
    f = NumericFn.from_polynomial(_rand_poly(rng, 4, max_num=6, max_den=3))
    x = rng.choice((0.5, 1.0, 2.0))
    reduced = integral_riemann_stieltjes(f, NumericFn(lambda t: t), x, params)
    plain = integral_zero_to(f, x, params)
    if not abs(reduced.value - plain.value) <= 1e-10:
        return False
    g_poly = _rand_poly(rng, 3, max_num=6, max_den=3)
    g = NumericFn.from_polynomial(g_poly)
    telescoped = integral_riemann_stieltjes(NumericFn(lambda t: 1.0), g, x, params)
    target = g(x) - float(eval_poly(g_poly, rat(0)))
    return abs(telescoped.value - target) < 1e-9


#: The purely algebraic derivative/power laws, checked in exact arithmetic.
EXACT_LAW_LABELS = tuple(_exact_labels)


def run_suite(
    seed: int = 0,
    trials: int = 50,
    only: list[str] | None = None,
    include_forced_failure: bool = False,
) -> list[CheckResult]:
    """Run the selected checks, each with its own seeded generator.

    A check's generator is keyed on ``(seed, label)`` alone, so a label
    draws the same instances in the full run as when it runs by itself.
    ``include_forced_failure`` appends a deliberately false identity, which
    shows that failures are reported.
    """
    labels = list(CHECKS) if only is None else list(only)
    unknown = [label for label in labels if label not in CHECKS]
    if unknown:
        raise KeyError(f"unknown identity labels: {', '.join(unknown)}")
    results = []
    for label in labels:
        # the 0 keeps the key that a label running alone has always had
        results.append(CHECKS[label](Random(repr((seed, 0, label))), trials))
    if include_forced_failure:
        forced = CheckResult("self-test-forced-failure", trials, trials, ("intentional failure",))
        results.append(forced)
    return results
