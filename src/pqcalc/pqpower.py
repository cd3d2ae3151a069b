"""The (p,q)-power basis (gamma*x (-) a)^n and its derivatives.

A power expression is the product

    forward :  (gx - a)(p gx - q a)(p^2 gx - q^2 a) ... ,   g = gamma
    reversed:  (a - gx)(p a - q gx)(p^2 a - q^2 gx) ...

with one factor per step, p-powers always attached to the first slot.
The two orientations are NOT sign-flips of each other when p != q
(the p/q roles interleave oppositely), which is why the orientation is
an explicit flag instead of a negated gamma.

Negative exponents invert a scaled product, (x (-) a)^{-m} =
1 / (p^{-m} x (-) q^{-m} a)^m.  :func:`_power_rat` evaluates either sign
of n in one pass over integers: the n factors of the product, or for
n = -m the m factors of the inverted one, each times p^m q^m so that its
slots stay integers, then one normalisation.  A zero of the denominator
product raises :class:`PoleError`, since exact arithmetic has no infinities.

The k-fold derivative is one closed form; the single step is its k = 1 case.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple

from .errors import NegativeArgumentError, PoleError
from .polynomials import Polynomial
from .scalars import PqParams, Rat, bracket_falling, rat, rat_from_ints, rat_named, rat_str


class Orientation(enum.Enum):
    X_MINUS_A = "x-a"
    A_MINUS_X = "a-x"

    def base_sign(self, params: PqParams) -> tuple[Rat, int]:
        """(p, 1) forward, (q, -1) reversed: D scales gamma by base and the coefficient by sign."""
        return (params.p, 1) if self is Orientation.X_MINUS_A else (params.q, -1)

    def factor_steps(self, c0: int, c1: int, ints: tuple[int, int, int]) -> tuple[int, int, int, int]:
        """(lo, hi, lo_step, hi_step): factor j of the power product is lo lo_step^j + hi hi_step^j x.

        With ``ints`` = (P, Q, S), as ``params.as_ints()`` computes it, that is c1 P^j x - c0 Q^j
        forward and c0 P^j - c1 Q^j x reversed.
        """
        big_p, big_q, _ = ints
        return (-c0, c1, big_q, big_p) if self is Orientation.X_MINUS_A else (c0, -c1, big_p, big_q)


_ONE = rat(1)


class PqPowerExpr(namedtuple("PqPowerExpr", "a n params gamma orientation")):
    """(gamma*x (-) a)^n or (a (-) gamma*x)^n for any integer n."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace goes through _make, so both validate

    def __new__(
        cls, a: object, n: int, params: PqParams, gamma: object = _ONE, orientation: Orientation = Orientation.X_MINUS_A
    ) -> "PqPowerExpr":
        if type(a) is not Rat:
            a = rat(a)
        if type(gamma) is not Rat:
            gamma = rat(gamma)
        return tuple.__new__(cls, (a, n, params, gamma, orientation))  # not the namedtuple's Python-level __new__


def _power_rat(a: int, b: int, d: int, n: int, ints: tuple[int, int, int]) -> Rat:
    """(a/d (-) b/d)^n for any integer n, reduced, with ``ints`` = (P, Q, S) from ``params.as_ints()``.

    Factor j is (a P^j - b Q^j)/(d S^j).  For n = -m the slots start at a Q^m
    and b P^m and the product is the denominator, so a pole raises
    ``ZeroDivisionError``.
    """
    big_p, big_q, s = ints
    num = 1
    if n >= 0:
        for _ in range(n):
            num *= a - b
            a *= big_p
            b *= big_q
        return rat_from_ints(num, d**n * s ** (n * (n - 1) // 2))
    m = -n
    a *= big_q**m
    b *= big_p**m
    for _ in range(m):
        num *= a - b
        a *= big_p
        b *= big_q
    return rat_from_ints(d**m * (big_p * big_q) ** (m * m), num * s ** (m * (m + 1) // 2))


def pq_power_value(first: object, second: object, n: int, params: PqParams) -> Rat:
    """The scalar product (first (-) second)^n for n >= 0.

    This is the raw n-factor product with both slots already numbers, as in
    the values (b;q)_{n-k} of the q-binomial check.
    """
    if n < 0:
        raise NegativeArgumentError(f"need n >= 0, got {n}")
    u, v = rat(first), rat(second)
    ud, vd = u._denominator, v._denominator
    return _power_rat(u._numerator * vd, v._numerator * ud, ud * vd, n, params.as_ints())


def eval_pq_power(e: PqPowerExpr, x: object) -> Rat:
    """Exact value of the expression at rational x, with gamma*x and a over one denominator."""
    if type(x) is not Rat:
        x = rat(x)
    a, n, params, g, orientation = e
    ad = a._denominator
    gx_d = g._denominator * x._denominator
    gx, ax = g._numerator * x._numerator * ad, a._numerator * gx_d
    try:
        if orientation is Orientation.X_MINUS_A:
            return _power_rat(gx, ax, gx_d * ad, n, params.as_ints())
        return _power_rat(ax, gx, gx_d * ad, n, params.as_ints())
    except ZeroDivisionError:
        raise PoleError(f"denominator of {format_power_expr(e)} vanishes at x = {rat_str(x)}") from None


def expand_expr(e: PqPowerExpr) -> Polynomial:
    """Canonical-basis polynomial equal to the expression (n >= 0 only)."""
    if e.n < 0:
        raise NegativeArgumentError("negative powers are not polynomials")
    # factor j is the integer linear factor of factor_steps over gd*ad*S^j
    a, g, n, params = e.a, e.gamma, e.n, e.params
    ad, gd = a._denominator, g._denominator
    ints = params.as_ints()
    lo, hi, lo_step, hi_step = e.orientation.factor_steps(a._numerator * gd, g._numerator * ad, ints)
    s = ints[2]
    out = [1]
    for _ in range(n):
        out = [lo * c + hi * d for c, d in zip(out + [0], [0] + out)]
        lo *= lo_step
        hi *= hi_step
    den = (ad * gd) ** n * s ** (n * (n - 1) // 2)
    return Polynomial([rat_from_ints(c, den) for c in out])


def derive_pq_power(e: PqPowerExpr) -> tuple[Rat, PqPowerExpr]:
    """One (p,q)-derivative: returns (coefficient, residual expression).

    Forward:  D (g x (-) a)^n = g [n] (g p x (-) a)^{n-1}
    Reversed: D (a (-) g x)^n = -g [n] (a (-) g q x)^{n-1}

    This is the k = 1 closed form of :func:`derive_pq_power_iterated`, valid
    for every integer n; n = 0 yields coefficient 0 (the residual expression
    is then irrelevant but kept consistent).
    """
    return derive_pq_power_iterated(e, 1)


def derive_pq_power_iterated(e: PqPowerExpr, k: int) -> tuple[Rat, PqPowerExpr]:
    """The k-fold derivative in closed form, for every integer n and k >= 0.

    D^k (g x (-) a)^n = g^k p^{C(k,2)} [n][n-1]...[n-k+1] (g p^k x (-) a)^{n-k}
    D^k (a (-) g x)^n = (-g)^k q^{C(k,2)} [n][n-1]...[n-k+1] (a (-) g q^k x)^{n-k}

    This is k folds of the single step D (the two lines at k = 1, which is
    :func:`derive_pq_power`); the coefficient is exactly 0
    once the falling product passes [0], i.e. for 0 <= n < k.
    """
    if k < 0:
        raise NegativeArgumentError(f"need k >= 0, got {k}")
    base, sign = e.orientation.base_sign(e.params)
    g, falling, c = e.gamma, bracket_falling(e.n, k, e.params), k * (k - 1) // 2
    gn, gd, bn, bd = g._numerator, g._denominator, base._numerator, base._denominator
    residual = PqPowerExpr(e.a, e.n - k, e.params, rat_from_ints(gn * bn**k, gd * bd**k), e.orientation)
    if falling == 0:
        return falling, residual
    # the three factors over one denominator, normalised once
    num = (sign * gn) ** k * bn**c * falling._numerator
    return rat_from_ints(num, gd**k * bd**c * falling._denominator), residual


_POWER_RE = re.compile(
    r"^\s*(pqpow|pqpowrev)\s*\(\s*a\s*=\s*([^,\s]+)\s*,\s*n\s*=\s*([+-]?\d+)\s*"
    r"(?:,\s*gamma\s*=\s*([^,\s)]+)\s*)?\)\s*$"
)


def parse_power_expr(text: str, params: PqParams) -> PqPowerExpr:
    """Parse "pqpow(a=<rat>, n=<int>[, gamma=<rat>])" or "pqpowrev(...)"; a bad a or gamma is refused by name."""
    match = _POWER_RE.match(text)
    if not match:
        raise ValueError(f"not a power expression: {text!r}")
    kind, a_text, n_text, gamma_text = match.groups()
    a = rat_named("a", a_text)
    gamma = 1 if gamma_text is None else rat_named("gamma", gamma_text)
    orientation = Orientation.A_MINUS_X if kind == "pqpowrev" else Orientation.X_MINUS_A
    return PqPowerExpr(a, int(n_text), params, gamma, orientation)


def format_power_expr(e: PqPowerExpr) -> str:
    name = "pqpowrev" if e.orientation is Orientation.A_MINUS_X else "pqpow"
    return f"{name}(a={rat_str(e.a)}, n={e.n}, gamma={rat_str(e.gamma)})"
