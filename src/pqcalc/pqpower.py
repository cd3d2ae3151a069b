"""The (p,q)-power basis (gamma*x (-) a)^n and its derivative laws.

A power expression is the product

    forward :  (gx - a)(p gx - q a)(p^2 gx - q^2 a) ... ,   g = gamma
    reversed:  (a - gx)(p a - q gx)(p^2 a - q^2 gx) ...

with one factor per step, p-powers always attached to the first slot.
The two orientations are NOT sign-flips of each other when p != q
(the p/q roles interleave oppositely), which is why the orientation is
an explicit flag instead of a negated gamma.

Negative exponents invert a scaled product, (x (-) a)^{-m} =
1 / (p^{-m} x (-) q^{-m} a)^m, evaluated with factor j times p^m q^m so
that every n runs one integer loop; a zero of the denominator product
raises :class:`PoleError`, since exact arithmetic has no infinities.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple

from .errors import NegativeArgumentError, PoleError
from .polynomials import Polynomial, pq_difference_quotient
from .scalars import PqParams, Rat, bracket, bracket_falling, rat, rat_str


class Orientation(enum.Enum):
    X_MINUS_A = "x-a"
    A_MINUS_X = "a-x"

    def base_sign(self, params: PqParams) -> tuple[Rat, int]:
        """(p, 1) forward, (q, -1) reversed: D scales gamma by base and the coefficient by sign."""
        return (params.p, 1) if self is Orientation.X_MINUS_A else (params.q, -1)


class PqPowerExpr(namedtuple("PqPowerExpr", "a n params gamma orientation")):
    """(gamma*x (-) a)^n or (a (-) gamma*x)^n for any integer n."""

    __slots__ = ()

    def __new__(
        cls, a: object, n: int, params: PqParams, gamma: object = 1, orientation: Orientation = Orientation.X_MINUS_A
    ) -> "PqPowerExpr":
        return super().__new__(cls, rat(a), n, params, rat(gamma), orientation)


def _power_ints(a: int, b: int, d: int, n: int, params: PqParams) -> tuple[int, int]:
    """(a/d (-) b/d)^n, any integer n, as unreduced (num, den); factor j is (a P^j - b Q^j)/(d S^j).

    For n = -m the slots start at a Q^m and b P^m; den is 0 exactly at a pole.
    """
    big_p, big_q, s = params.as_ints()
    m = abs(n)
    if n < 0:
        a, b = a * big_q**m, b * big_p**m
    num = 1
    for _ in range(m):
        num *= a - b
        a *= big_p
        b *= big_q
    if n >= 0:
        return num, d**n * s ** (n * (n - 1) // 2)
    return d**m * (big_p * big_q) ** (m * m), num * s ** (m * (m + 1) // 2)


def pq_power_value(first: object, second: object, n: int, params: PqParams) -> Rat:
    """The scalar product (first (-) second)^n for n >= 0.

    This is the raw n-factor product with both slots already numbers, as in
    the values (b;q)_{n-k} of the q-binomial check.
    """
    if n < 0:
        raise NegativeArgumentError(f"need n >= 0, got {n}")
    u, v = rat(first), rat(second)
    ud, vd = u.denominator, v.denominator
    return Rat(*_power_ints(u.numerator * vd, v.numerator * ud, ud * vd, n, params))


def eval_pq_power(e: PqPowerExpr, x: object) -> Rat:
    """Exact value of the expression at rational x, with gamma*x and a over one denominator."""
    x = rat(x)
    gx_d = e.gamma.denominator * x.denominator
    gx, a = e.gamma.numerator * x.numerator * e.a.denominator, e.a.numerator * gx_d
    first, second = (gx, a) if e.orientation is Orientation.X_MINUS_A else (a, gx)
    num, den = _power_ints(first, second, gx_d * e.a.denominator, e.n, e.params)
    if den == 0:
        raise PoleError(f"denominator of {format_power_expr(e)} vanishes at x = {rat_str(x)}")
    return Rat(num, den)


def expand_expr(e: PqPowerExpr) -> Polynomial:
    """Canonical-basis polynomial equal to the expression (n >= 0 only)."""
    if e.n < 0:
        raise NegativeArgumentError("negative powers are not polynomials")
    big_p, big_q, s = e.params.as_ints()
    # factor j is the integer linear factor over gd*ad*S^j:
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
    den = (e.a.denominator * e.gamma.denominator) ** e.n * s ** (e.n * (e.n - 1) // 2)
    return Polynomial([Rat(c, den) for c in out])


def derive_pq_power(e: PqPowerExpr) -> tuple[Rat, PqPowerExpr]:
    """One (p,q)-derivative: returns (coefficient, residual expression).

    Forward:  D (g x (-) a)^n = g [n] (g p x (-) a)^{n-1}
    Reversed: D (a (-) g x)^n = -g [n] (a (-) g q x)^{n-1}

    Valid for every integer n; n = 0 yields coefficient 0 (the residual
    expression is then irrelevant but kept consistent).
    """
    base, sign = e.orientation.base_sign(e.params)
    residual = PqPowerExpr(e.a, e.n - 1, e.params, gamma=base * e.gamma, orientation=e.orientation)
    return sign * e.gamma * bracket(e.n, e.params), residual


def derive_pq_power_iterated(e: PqPowerExpr, k: int) -> tuple[Rat, PqPowerExpr]:
    """The k-fold derivative in closed form, for every integer n and k >= 0.

    D^k (g x (-) a)^n = g^k p^{C(k,2)} [n][n-1]...[n-k+1] (g p^k x (-) a)^{n-k}
    D^k (a (-) g x)^n = (-g)^k q^{C(k,2)} [n][n-1]...[n-k+1] (a (-) g q^k x)^{n-k}

    This is k folds of :func:`derive_pq_power`; the coefficient is exactly 0
    once the falling product passes [0], i.e. for 0 <= n < k.
    """
    if k < 0:
        raise NegativeArgumentError(f"need k >= 0, got {k}")
    base, sign = e.orientation.base_sign(e.params)
    g, falling, c = e.gamma, bracket_falling(e.n, k, e.params), k * (k - 1) // 2
    residual = PqPowerExpr(e.a, e.n - k, e.params, gamma=g * base**k, orientation=e.orientation)
    if falling == 0:
        return falling, residual
    # the three factors over one denominator, normalised once
    num = (sign * g.numerator) ** k * base.numerator**c * falling.numerator
    return Rat(num, g.denominator**k * base.denominator**c * falling.denominator), residual


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
    name = "pqpowrev" if e.orientation is Orientation.A_MINUS_X else "pqpow"
    return f"{name}(a={rat_str(e.a)}, n={e.n}, gamma={rat_str(e.gamma)})"
