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
let one function back several labels; they register bottom-up, a later call
``law(label, ...)(fn)`` registers ``fn`` at that point, and the order of
:data:`CHECKS` is the report order.  Write each outcome as a pass condition
(``gap < tol``), so that a NaN fails.
"""

from __future__ import annotations

import math
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
    newton_leibniz_check,
)
from .polynomials import (
    NumericFn,
    Polynomial,
    eval_poly,
    pq_derive_poly,
    pq_difference_quotient,
)
from .pqpower import (
    Orientation,
    PqPowerExpr,
    derive_pq_power,
    derive_pq_power_iterated,
    eval_pq_power,
    expand_expr,
    pq_power_value,
)
from .scalars import (
    PqParams,
    Rat,
    Regime,
    bracket,
    bracket_alpha,
    pq_binomial,
    rat,
    rat_from_ints,
)
from .taylor import (
    connect_monomial,
    connect_power_to_power,
    heine_coeff,
    heine_series_eval,
    reciprocal_power_series,
    taylor_expand,
)


class CheckResult(NamedTuple):
    label: str
    trials: int
    failures: int
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "trials": self.trials,
            "failures": self.failures,
            "passed": self.passed,
            "notes": list(self.notes),
        }


# ----------------------------------------------------------------- registry

CHECKS: dict[str, Callable[[Random, int], CheckResult]] = {}
_exact_labels: list[str] = []


def law(label: str, *, exact: bool = False, cases: bool = False, **bound):
    """Register the decorated trial, or case generator if ``cases``, as the check ``label``.

    Called as ``law(label, ...)(fn)`` after other laws, it registers ``fn`` at that point of the report order.
    """

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


def _below(rng: Random, n: int) -> int:
    """``rng.randrange(n)`` draw for draw, by CPython's rule since 3.10, without ``randint``'s three frames."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _rand_rat(rng: Random, max_num: int = 8, max_den: int = 5, nonzero: bool = False) -> Rat:
    while True:
        num, den = _below(rng, 2 * max_num + 1) - max_num, _below(rng, max_den) + 1
        if num or not nonzero:
            return rat_from_ints(num, den)


def _rand_params(rng: Random, pool: list = _PARAM_POOL, spread: Rat | None = None) -> PqParams:
    """A pair from ``pool`` with p != +-q; with ``spread``, max(|q/p|, |p/q|) >= spread.

    The spread keeps the lattice decay away from 1, so that series settle quickly.
    """
    while True:
        p, q = pool[_below(rng, len(pool))], pool[_below(rng, len(pool))]
        if p != q and p != -q and (spread is None or max(abs(q / p), abs(p / q)) >= spread):
            return PqParams(p, q)


def _rand_poly(rng: Random, max_deg: int, max_num: int = 9, max_den: int = 5) -> Polynomial:
    degree = _below(rng, max_deg + 1)
    return Polynomial(_rand_rat(rng, max_num, max_den) for _ in range(degree + 1))


def _rand_x(rng: Random, avoid: Callable[[Rat], bool] | None = None) -> Rat:
    """A nonzero rational sample point, resampled away from poles."""
    for _ in range(200):
        x = _rand_rat(rng, max_num=9, max_den=5, nonzero=True)
        if avoid is None or not avoid(x):
            return x
    raise RuntimeError("could not find a safe sample point")


def _at_non_pole(rng: Random, holds: Callable[[Rat], bool], draw: Callable[[Random], Rat] = _rand_x) -> bool:
    """``holds(x)`` at the first point ``draw(rng)`` gives where it raises no ``PoleError``."""
    for _ in range(200):
        try:
            return holds(draw(rng))
        except PoleError:
            continue
    raise RuntimeError("could not find a safe sample point")


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
    """D(fg)(x) = f(px) Dg(x) + g(qx) Df(x); the second form is the first with f and g exchanged."""
    params = _rand_params(rng)
    f, g = _rand_poly(rng, 4), _rand_poly(rng, 4)
    x = _rand_x(rng)
    lhs = eval_poly(pq_derive_poly(f * g, params), x)
    f, g = (f, g) if first_form else (g, f)
    df, dg = pq_derive_poly(f, params), pq_derive_poly(g, params)
    return lhs == eval_poly(f, params.p * x) * eval_poly(dg, x) + eval_poly(g, params.q * x) * eval_poly(df, x)


@law("quotient-rule-2", exact=True, first_form=False)
@law("quotient-rule-1", exact=True, first_form=True)
def _quotient_rule(rng: Random, first_form: bool) -> bool:
    """D(f/g)(x) = (g(rx) Df(x) - f(rx) Dg(x)) / (g(px) g(qx)), with r = q in the first form and r = p in the second."""
    params = _rand_params(rng)
    p, q = params.p, params.q
    f = _rand_poly(rng, 3)
    while True:
        g = _rand_poly(rng, 3)
        if not g.is_zero():
            break
    x = _rand_x(rng, avoid=lambda t: eval_poly(g, p * t) == 0 or eval_poly(g, q * t) == 0)
    lhs = pq_difference_quotient(lambda t: eval_poly(f, t) / eval_poly(g, t), x, params)
    df, dg = pq_derive_poly(f, params), pq_derive_poly(g, params)
    rx = (q if first_form else p) * x
    numerator = eval_poly(g, rx) * eval_poly(df, x) - eval_poly(f, rx) * eval_poly(dg, x)
    return lhs == numerator / (eval_poly(g, p * x) * eval_poly(g, q * x))


# -------------------------------------------------------- power basis laws

@law("derule2", exact=True, scaled=True)
@law("derule1", exact=True, scaled=False)
def _derule(rng: Random, scaled: bool) -> bool:
    """D (g x (-) a)^n = g [n] (g p x (-) a)^{n-1} as polynomials; derule1 is g = 1 with n >= 0."""
    params = _rand_params(rng)
    a = _rand_rat(rng)
    gamma = _rand_rat(rng, nonzero=True) if scaled else rat(1)
    n = rng.randint(1, 5) if scaled else rng.randint(0, 6)
    e = PqPowerExpr(a, n, params, gamma=gamma)
    coeff, residual = gamma * bracket(n, params), PqPowerExpr(a, n - 1, params, gamma=gamma * params.p)
    if derive_pq_power(e) != (coeff, residual):
        return False
    lhs = pq_derive_poly(expand_expr(e), params)
    return lhs.is_zero() if n == 0 else lhs == coeff * expand_expr(residual)


@law("derule3", exact=True, orientation=Orientation.X_MINUS_A, top=6)
def _derule_k(rng: Random, orientation: Orientation, top: int) -> bool:
    """k-fold closed form against the expansion, derived once more per k, n in [0, top]; and the recursion

        coeff(k) = coeff(k-1) [n-k+1] p^{k-1}  forward,  coeff(k-1) [n-k+1] (-q^{k-1})  reversed
    """
    params = _rand_params(rng)
    a = _rand_rat(rng)
    n = rng.randint(0, top)
    e = PqPowerExpr(a, n, params, orientation=orientation)
    f, previous = expand_expr(e), None
    for k in range(n + 1):
        coeff, residual = derive_pq_power_iterated(e, k)
        if k:
            f = pq_derive_poly(f, params)
            step = params.p ** (k - 1) if orientation is Orientation.X_MINUS_A else -params.q ** (k - 1)
            if coeff != previous * step * bracket(n - k + 1, params):
                return False
        if f != coeff * expand_expr(residual):
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

        def holds(x: Rat) -> bool:  # the residual is evaluated even at coeff = 0, so its poles are redrawn
            lhs = pq_difference_quotient(lambda t: eval_pq_power(e, t), x, params)
            return lhs == coeff * eval_pq_power(residual, x)

        if not _at_non_pole(rng, holds):
            return False
    return True


law("derule4", exact=True, orientation=Orientation.A_MINUS_X, top=5)(_derule_k)  # reported after der3


@law("r3", exact=True, which=2)
@law("r2", exact=True, which=1)
@law("r1", exact=True, which=0)
def _reciprocal(rng: Random, which: int) -> bool:
    """The reciprocal and reversed laws, n >= 0, pointwise exact:

        r1:  D 1/(x (-) a)^n = -q [n] / (q x (-) a)^{n+1}
        r2:  D (a (-) x)^n   = -[n] (a (-) q x)^{n-1}
        r3:  D 1/(a (-) x)^n =  p [n] / (a (-) p x)^{n+1}

    x avoids the poles of all three, so each label draws the same instances.
    """
    params = _rand_params(rng)
    p, q = params.p, params.q
    a = _rand_rat(rng, nonzero=True)
    n = rng.randint(0, 4)
    forward = PqPowerExpr(a, n, params)
    reverse = PqPowerExpr(a, n, params, orientation=Orientation.A_MINUS_X)
    up_q = PqPowerExpr(a, n + 1, params, gamma=q)
    up_p = PqPowerExpr(a, n + 1, params, gamma=p, orientation=Orientation.A_MINUS_X)

    def poles(t: Rat) -> bool:
        points = (forward, p * t), (forward, q * t), (reverse, p * t), (reverse, q * t), (up_q, t), (up_p, t)
        return any(eval_pq_power(e, u) == 0 for e, u in points)

    x = _rand_x(rng, avoid=poles)
    if which == 1:  # at n = 0 the residual (a (-) q x)^{-1} may have a pole at x, and [0] = 0
        lhs = pq_difference_quotient(lambda t: eval_pq_power(reverse, t), x, params)
        down = PqPowerExpr(a, n - 1, params, gamma=q, orientation=Orientation.A_MINUS_X)
        return lhs == (0 if n == 0 else -bracket(n, params) * eval_pq_power(down, x))
    base, up, coeff = (forward, up_q, -q) if which == 0 else (reverse, up_p, p)
    lhs = pq_difference_quotient(lambda t: 1 / eval_pq_power(base, t), x, params)
    return lhs == coeff * bracket(n, params) / eval_pq_power(up, x)


@law("expand1", exact=True)
def _expand1(rng: Random) -> bool:
    """(x (-) a)^{m+n} = (x (-) a)^m (p^m x (-) q^m a)^n, m, n in [-3, 3], at a non-pole x."""
    params = _rand_params(rng)
    p, q = params.p, params.q
    a = _rand_rat(rng, nonzero=True)
    for m in range(-3, 4):
        left, right_a, right_gamma = PqPowerExpr(a, m, params), q**m * a, p**m
        for n in range(-3, 4):
            whole, right = PqPowerExpr(a, m + n, params), PqPowerExpr(right_a, n, params, gamma=right_gamma)

            def holds(x: Rat) -> bool:
                return eval_pq_power(whole, x) == eval_pq_power(left, x) * eval_pq_power(right, x)

            if not _at_non_pole(rng, holds, draw=lambda r: _rand_rat(r, nonzero=True)):
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
    return _at_non_pole(rng, lambda x: eval_pq_power(negative, x) * eval_pq_power(partner, x) == 1)


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
        real = bracket_alpha(float(m), params).value
        if not math.isclose(real, float(bracket(m, params)), rel_tol=1e-12, abs_tol=1e-12):
            return False
    return True


# ------------------------------------------------------------ Taylor layer

@law("taylor-roundtrip-reversed", orientation=Orientation.A_MINUS_X)
@law("taylor-roundtrip", orientation=Orientation.X_MINUS_A)
def _taylor_roundtrip(rng: Random, orientation: Orientation) -> bool:
    params = _rand_params(rng, pool=_TAYLOR_POOL)
    f = _rand_poly(rng, 8, max_num=50, max_den=50)
    a = _rand_rat(rng)
    expansion = taylor_expand(f, a, params, orientation)
    if expansion.to_polynomial(params) != f:
        return False
    return f.is_zero() or len(expansion.coeffs) == len(f.coeffs)


@law("conec2", orientation=Orientation.A_MINUS_X)
@law("conec1", orientation=Orientation.X_MINUS_A)
def _connect_monomial(rng: Random, orientation: Orientation) -> bool:
    params = _rand_params(rng, pool=_TAYLOR_POOL)
    n = rng.randint(0, 8)
    a = _rand_rat(rng)
    coeffs = connect_monomial(n, a, params, orientation)
    expansion = taylor_expand(Polynomial.monomial(n), a, params, orientation)
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
    """Classical q-binomial theorem at p = 1, exact, on the q-Pochhammer products (u;q)_k:

        (ab;q)_n = sum_k qbinom(n,k) a^{n-k} (b;q)_{n-k} (a;q)_k

    both as written and through the power-to-power connection coefficients at x = 1.
    """
    a = Rat(rng.randint(1, 9), rng.randint(10, 20))
    b = Rat(rng.randint(1, 9), rng.randint(10, 20))
    q = Rat(rng.randint(1, 9), rng.randint(10, 20))
    n = rng.randint(0, 6)
    params = PqParams(1, q)
    a_poch = [pq_power_value(1, a, k, params) for k in range(n + 1)]
    literal = sum(
        pq_binomial(n, k, params) * a ** (n - k) * pq_power_value(1, b, n - k, params) * a_poch[k]
        for k in range(n + 1)
    )
    connect = connect_power_to_power(a * b, a, n, params, Orientation.X_MINUS_A)
    via_connection = sum(c * a_poch[k] for k, c in enumerate(connect))
    return pq_power_value(1, a * b, n, params) == literal == via_connection


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
            oracle = reciprocal_power_series(n, params, 8)
            matched = all(heine_coeff(n, j, params) == oracle[j] for j in range(8))
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
    a = Rat(rng.randint(1, 8), rng.randint(1, 5))
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
    """At p = 1 the [0, a] integral is within its tail of the naive Jackson sum (1-q) a sum_{k<100} q^k f(a q^k)."""
    params = PqParams(1, rat("1/2"))
    q = 0.5
    for f in (
        NumericFn(lambda x: 1.0 / (1.0 + x)),
        NumericFn(lambda x: x * x - 3.0 * x),
        NumericFn(lambda x: math.exp(-x)),
    ):
        for a in (0.5, 1.0, 2.0):
            result = integral_zero_to(f, a, params)
            jackson = math.fsum((1 - q) * a * q**k * f(a * q**k) for k in range(100))
            yield result.status is IntegralStatus.CONVERGED and abs(result.value - jackson) <= result.tail_estimate


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


def run_suite(seed: int = 0, trials: int = 50, only: list[str] | None = None) -> list[CheckResult]:
    """Run the selected checks, each with its own seeded generator.

    A check's generator is keyed on ``(seed, label)`` alone, so a label
    draws the same instances in the full run as when it runs by itself.
    """
    labels = list(CHECKS) if only is None else list(only)
    unknown = [label for label in labels if label not in CHECKS]
    if unknown:
        raise KeyError(f"unknown identity labels: {', '.join(unknown)}")
    results = []
    for label in labels:
        # the 0 keeps the key that a label running alone has always had
        results.append(CHECKS[label](Random(repr((seed, 0, label))), trials))
    return results
