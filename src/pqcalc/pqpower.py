"""The (p,q)-power basis (gamma*x (-) a)^n and its derivative laws.

A power expression is the product

    forward :  (gx - a)(p gx - q a)(p^2 gx - q^2 a) ... ,   g = gamma
    reversed:  (a - gx)(p a - q gx)(p^2 a - q^2 gx) ...

with one factor per step, p-powers always attached to the first slot.
The two orientations are NOT sign-flips of each other when p != q
(the p/q roles interleave oppositely), which is why the orientation is
an explicit flag instead of a negated gamma.

Negative exponents scale both slots before inverting:
(x (-) a)^{-n} = 1 / (p^{-n} x (-) q^{-n} a)^n, and symmetrically for
the reversed orientation.  Evaluation at a zero of the denominator
product raises :class:`PoleError`; exact arithmetic has no infinities.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import NegativeArgumentError, OutOfRangeError, PoleError
from .polynomials import Polynomial, pq_difference_quotient
from .scalars import PqParams, Rat, bracket, bracket_falling, rat, rat_str


class Orientation(enum.Enum):
    X_MINUS_A = "x-a"
    A_MINUS_X = "a-x"


@dataclass(frozen=True)
class PqPowerExpr:
    """(gamma*x (-) a)^n or (a (-) gamma*x)^n for any integer n."""

    a: Rat
    n: int
    params: PqParams
    gamma: Rat = 1
    orientation: Orientation = Orientation.X_MINUS_A

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "gamma", rat(self.gamma))

    @property
    def reversed_basis(self) -> bool:
        return self.orientation is Orientation.A_MINUS_X


def pq_power_value(first: object, second: object, n: int, params: PqParams) -> Rat:
    """The scalar product (first (-) second)^n for n >= 0.

    This is the raw n-factor product with both slots already numbers; the
    connection formulas use it for values like (a (-) b)^{n-k}.
    """
    if n < 0:
        raise NegativeArgumentError(f"need n >= 0, got {n}")
    u, v = rat(first), rat(second)
    p, q = params.p, params.q
    pd, qd = p.denominator, q.denominator
    a, b = u.numerator * v.denominator, v.numerator * u.denominator
    big_p, big_q = p.numerator * qd, q.numerator * pd
    # factor j is (a*P^j - b*Q^j) / (ud*vd*(pd*qd)^j); normalise once at the end
    num, den = 1, (u.denominator * v.denominator) ** n * (pd * qd) ** (n * (n - 1) // 2)
    for _ in range(n):
        num *= a - b
        a *= big_p
        b *= big_q
    return Rat(num, den)


def _inverted(e: PqPowerExpr) -> PqPowerExpr:
    """Rewrite e with n < 0 as the positive-exponent denominator expression."""
    m = -e.n
    p, q = e.params.p, e.params.q
    if e.orientation is Orientation.X_MINUS_A:
        return PqPowerExpr(
            a=q**-m * e.a, n=m, params=e.params, gamma=p**-m * e.gamma, orientation=e.orientation
        )
    return PqPowerExpr(
        a=p**-m * e.a, n=m, params=e.params, gamma=q**-m * e.gamma, orientation=e.orientation
    )


def eval_pq_power(e: PqPowerExpr, x: object) -> Rat:
    """Exact value of the expression at rational x."""
    x = rat(x)
    if e.n >= 0:
        if e.orientation is Orientation.X_MINUS_A:
            return pq_power_value(e.gamma * x, e.a, e.n, e.params)
        return pq_power_value(e.a, e.gamma * x, e.n, e.params)
    denom = eval_pq_power(_inverted(e), x)
    if denom == 0:
        raise PoleError(f"denominator of {format_power_expr(e)} vanishes at x = {rat_str(x)}")
    return 1 / denom


def expand_expr(e: PqPowerExpr) -> Polynomial:
    """Canonical-basis polynomial equal to the expression (n >= 0 only)."""
    if e.n < 0:
        raise NegativeArgumentError("negative powers are not polynomials")
    p, q = e.params.p, e.params.q
    pd, qd = p.denominator, q.denominator
    big_p, big_q = p.numerator * qd, q.numerator * pd
    # factor j is the integer linear factor over gd*ad*(pd*qd)^j:
    #   forward  c1*P^j x - c0*Q^j,   reversed  c0*P^j - c1*Q^j x
    c0 = e.a.numerator * e.gamma.denominator
    c1 = e.gamma.numerator * e.a.denominator
    if e.orientation is Orientation.X_MINUS_A:
        lo, hi, lo_step, hi_step = -c0, c1, big_q, big_p
    else:
        lo, hi, lo_step, hi_step = c0, -c1, big_p, big_q
    out = [1]
    for _ in range(e.n):
        out = [lo * c + hi * d for c, d in zip(out + [0], [0] + out)]
        lo *= lo_step
        hi *= hi_step
    den = (e.a.denominator * e.gamma.denominator) ** e.n * (pd * qd) ** (e.n * (e.n - 1) // 2)
    return Polynomial([Rat(c, den) for c in out])


def expand_pq_power(a: object, n: int, params: PqParams) -> Polynomial:
    """Expansion of the plain forward power (x (-) a)^n, n >= 0."""
    return expand_expr(PqPowerExpr(a=a, n=n, params=params))


def derive_pq_power(e: PqPowerExpr) -> tuple[Rat, PqPowerExpr]:
    """One (p,q)-derivative: returns (coefficient, residual expression).

    Forward:  D (g x (-) a)^n = g [n] (g p x (-) a)^{n-1}
    Reversed: D (a (-) g x)^n = -g [n] (a (-) g q x)^{n-1}

    Valid for every integer n; n = 0 yields coefficient 0 (the residual
    expression is then irrelevant but kept consistent).
    """
    p, q = e.params.p, e.params.q
    br = bracket(e.n, e.params)
    if e.orientation is Orientation.X_MINUS_A:
        coeff = e.gamma * br
        residual = PqPowerExpr(e.a, e.n - 1, e.params, gamma=p * e.gamma, orientation=e.orientation)
    else:
        coeff = -e.gamma * br
        residual = PqPowerExpr(e.a, e.n - 1, e.params, gamma=q * e.gamma, orientation=e.orientation)
    return coeff, residual


def derive_pq_power_iterated(e: PqPowerExpr, k: int) -> tuple[Rat, PqPowerExpr]:
    """k single derivatives folded together; coefficient may reach exact 0."""
    if k < 0:
        raise NegativeArgumentError(f"need k >= 0, got {k}")
    coeff = rat(1)
    for _ in range(k):
        step, e = derive_pq_power(e)
        coeff *= step
    return coeff, e


def derive_pq_power_k(a: object, n: int, k: int, params: PqParams) -> tuple[Rat, PqPowerExpr]:
    """Closed form of the k-fold derivative of (x (-) a)^n, 0 <= k <= n.

    D^k (x (-) a)^n = p^{k(k-1)/2} [n][n-1]...[n-k+1] (p^k x (-) a)^{n-k}.
    """
    if k < 0 or k > n:
        raise OutOfRangeError(f"need 0 <= k <= n, got n={n}, k={k}")
    p = params.p
    coeff = p ** (k * (k - 1) // 2) * bracket_falling(n, k, params)
    residual = PqPowerExpr(a, n - k, params, gamma=p**k)
    return coeff, residual


def derive_reversed_k(a: object, n: int, k: int, params: PqParams) -> tuple[Rat, PqPowerExpr]:
    """Closed form of the k-fold derivative of (a (-) x)^n, 0 <= k <= n.

    D^k (a (-) x)^n = (-1)^k q^{k(k-1)/2} [n][n-1]...[n-k+1] (a (-) q^k x)^{n-k}.
    """
    if k < 0 or k > n:
        raise OutOfRangeError(f"need 0 <= k <= n, got n={n}, k={k}")
    q = params.q
    coeff = (-1) ** k * q ** (k * (k - 1) // 2) * bracket_falling(n, k, params)
    residual = PqPowerExpr(a, n - k, params, gamma=q**k, orientation=Orientation.A_MINUS_X)
    return coeff, residual


def additive_law_check(a: object, m: int, n: int, params: PqParams, x: object) -> bool:
    """Pointwise (x (-) a)^{m+n} = (x (-) a)^m (p^m x (-) q^m a)^n at x.

    Holds for any integers m, n; raises :class:`PoleError` when x hits a
    pole of either side.
    """
    a = rat(a)
    p, q = params.p, params.q
    lhs = eval_pq_power(PqPowerExpr(a, m + n, params), x)
    left = eval_pq_power(PqPowerExpr(a, m, params), x)
    right = eval_pq_power(PqPowerExpr(q**m * a, n, params, gamma=p**m), x)
    return lhs == left * right


def reciprocal_rules_check(a: object, n: int, params: PqParams, x: object) -> tuple[bool, bool, bool]:
    """Check the three reciprocal/reversed derivative laws at rational x.

        D 1/(x (-) a)^n  = -q [n] / (q x (-) a)^{n+1}
        D (a (-) x)^n    = -[n] (a (-) q x)^{n-1}
        D 1/(a (-) x)^n  =  p [n] / (a (-) p x)^{n+1}

    Left sides are exact difference quotients of the evaluated functions,
    so the check is implementation-free.  n must be nonnegative.
    """
    if n < 0:
        raise NegativeArgumentError(f"need n >= 0, got {n}")
    a = rat(a)
    x = rat(x)
    p, q = params.p, params.q
    br = bracket(n, params)

    forward = PqPowerExpr(a, n, params)
    revd = PqPowerExpr(a, n, params, orientation=Orientation.A_MINUS_X)

    def recip(e: PqPowerExpr, t: Rat) -> Rat:
        return 1 / _nonzero(e, t)

    lhs1 = pq_difference_quotient(lambda t: recip(forward, t), x, params)
    rhs1 = rat(0) if n == 0 else -q * br / _nonzero(PqPowerExpr(a, n + 1, params, gamma=q), x)
    lhs2 = pq_difference_quotient(lambda t: eval_pq_power(revd, t), x, params)
    rhs2 = rat(0) if n == 0 else -br * eval_pq_power(
        PqPowerExpr(a, n - 1, params, gamma=q, orientation=Orientation.A_MINUS_X), x
    )
    lhs3 = pq_difference_quotient(lambda t: recip(revd, t), x, params)
    rhs3 = rat(0) if n == 0 else p * br / _nonzero(
        PqPowerExpr(a, n + 1, params, gamma=p, orientation=Orientation.A_MINUS_X), x
    )
    return lhs1 == rhs1, lhs2 == rhs2, lhs3 == rhs3


def _nonzero(e: PqPowerExpr, x: Rat) -> Rat:
    value = eval_pq_power(e, x)
    if value == 0:
        raise PoleError(f"{format_power_expr(e)} vanishes at x = {rat_str(x)}")
    return value


_POWER_RE = re.compile(
    r"^\s*(pqpow|pqpowrev)\s*\(\s*a\s*=\s*([^,\s]+)\s*,\s*n\s*=\s*([+-]?\d+)\s*"
    r"(?:,\s*gamma\s*=\s*([^,\s)]+)\s*)?\)\s*$"
)


def parse_power_expr(text: str, params: PqParams) -> PqPowerExpr:
    """Parse "pqpow(a=<rat>, n=<int>[, gamma=<rat>])" or "pqpowrev(...)"."""
    match = _POWER_RE.match(text)
    if not match:
        raise ValueError(f"not a power expression: {text!r}")
    kind, a_text, n_text, gamma_text = match.groups()
    orientation = Orientation.A_MINUS_X if kind == "pqpowrev" else Orientation.X_MINUS_A
    return PqPowerExpr(
        a=rat(a_text),
        n=int(n_text),
        params=params,
        gamma=rat(gamma_text) if gamma_text is not None else rat(1),
        orientation=orientation,
    )


def format_power_expr(e: PqPowerExpr) -> str:
    name = "pqpowrev" if e.reversed_basis else "pqpow"
    return f"{name}(a={rat_str(e.a)}, n={e.n}, gamma={rat_str(e.gamma)})"
