"""Exact rational scalars, the (p,q) parameter pair and twin-basic quantities.

Every algebraic identity in this package is checked in exact rational
arithmetic.  The scalar type ``Rat`` is ``fractions.Fraction``: values in
lowest terms with a positive denominator, parsed from and printed as
``"num/den"`` literals.

The hot exact kernels (brackets, Horner, polynomial ``scale``,
``pq_derive_poly``, ``pqpower._power_rat``, the one integer pass behind
every power-basis value at every n, ``expand_expr``, the (p,q)-binomials,
each one integer over a power of S (``binomial_row``), and the Taylor
formulas, reconstruction, connection and Heine coefficients) work
fraction-free: they read each value's integers, carry integer numerators
over one common denominator, and normalise once per result instead of
after every multiply.  Each result is built by :func:`rat_from_ints`, one gcd and a
sign fix without ``Fraction``'s type dispatch, and the integers they start
from come from the form (P, Q, S) that :meth:`PqParams.as_ints` computes
each time it is asked, once per kernel call: a kernel hands it on to
``bracket_numerators`` and ``Orientation.factor_steps``.  Every kernel
reads a value's integers from the slots ``_numerator``/``_denominator``,
not the Python-level properties: this module (``PqParams``,
``rat_float``), ``pqpower``, ``polynomials``, ``taylor`` and
``integration`` (``antiderive_poly``).

Floating point appears only where the theory itself is non-algebraic:
the real-exponent bracket and truncated series, carried by
:class:`FloatScalar` (a finite double) and summed under the stopping rules
that ``pqcalc.integration`` states, tuned by a :class:`TruncationPolicy`.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from fractions import Fraction as Rat

from .errors import (
    DegenerateRegimeError,
    NegativeArgumentError,
    NonPositiveBaseError,
    OutOfRangeError,
)


def rat(value: object) -> Rat:
    """Coerce ``value`` to the exact rational type.

    Accepts ``Rat`` itself, ints, and strings in the literal form used by
    the CLI and JSON output: ``"7"``, ``"-1"``, ``"3/2"``.
    Floats are rejected on purpose: silently binarising 0.1 would poison
    exact identity checks.
    """
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to exact rational; pass a string like '1/10'")
    return Rat(value)


def rat_named(name: str, text: str) -> Rat:
    """``rat(text)``, refused by ``name`` if ``text`` is no rational literal."""
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational such as 3/2, got {text!r}") from None


_new_object = object.__new__


def rat_from_ints(num: int, den: int) -> Rat:
    """``Rat(num, den)`` for ints: one gcd and a sign fix, without ``Fraction``'s type dispatch.

    It fills the two slots ``Fraction`` declares, the only place in the
    package that writes them; the kernels named in the module docstring
    read them, and a ``Fraction`` with other slots fails the test that pins
    them.  ``den == 0`` raises ``ZeroDivisionError``.
    """
    g = math.gcd(num, den)
    if den <= 0:
        if not den:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        g = -g
    value = _new_object(Rat)
    value._numerator = num // g
    value._denominator = den // g
    return value


def rat_str(value: object) -> str:
    """Literal form of an exact rational: ``"7"`` or ``"3/2"``."""
    return str(rat(value))


def rat_float(x: Rat) -> float:
    """The double nearest to ``x``, bit for bit ``float(x)``.

    ``numbers.Rational.__float__`` is this same int/int true division,
    reached through a slower Python-level method.  A value past the
    double range raises ``OverflowError``; one below it rounds to 0.0.
    """
    return x._numerator / x._denominator


class Regime(enum.Enum):
    """Classification of |q/p| against 1, selecting the integral lattice."""

    RATIO_LT_ONE = "lt1"
    RATIO_GT_ONE = "gt1"
    DEGENERATE = "degenerate"


class PqParams(namedtuple("PqParams", "p q")):
    """The pair (p, q) with p != q and p, q != 0.

    Both restrictions are load bearing: p - q divides every bracket, and
    negative powers as well as the integral lattices divide by p and q.
    ``__new__`` checks both on the integer form (P, Q, S) that
    :meth:`as_ints` computes (P != Q, and nonzero numerators).  The regime
    is derived from that form: it orders |q| against |p| in integers over
    their common denominator.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace goes through _make, so both validate

    def __new__(cls, p: object, q: object) -> "PqParams":
        p, q = rat(p), rat(q)
        pn, pd, qn, qd = p._numerator, p._denominator, q._numerator, q._denominator
        if pn * qd == qn * pd:
            raise ValueError("p and q must differ (p - q appears in every denominator)")
        if not (pn and qn):
            raise ValueError("p and q must be nonzero")
        return tuple.__new__(cls, (p, q))  # not the namedtuple's Python-level __new__

    @property
    def regime(self) -> Regime:
        p, q, _ = self.as_ints()
        if abs(q) < abs(p):
            return Regime.RATIO_LT_ONE
        return Regime.RATIO_GT_ONE if abs(q) > abs(p) else Regime.DEGENERATE

    def swapped(self) -> "PqParams":
        return PqParams(self.q, self.p)

    def as_floats(self) -> tuple[float, float]:
        """(p, q) as doubles; refused by name if one overflows or is 0.0, or both are one double."""
        p, q = _float_view("p", self.p), _float_view("q", self.q)
        if p == q:  # p - q would be 0.0, though the exact p and q differ
            raise OutOfRangeError(f"p and q round to the same double {p!r}")
        return p, q

    def as_ints(self) -> tuple[int, int, int]:
        """(P, Q, S) with p = P/S and q = Q/S: P = pn*qd, Q = qn*pd, S = pd*qd."""
        p, q = self
        pd, qd = p._denominator, q._denominator
        return p._numerator * qd, q._numerator * pd, pd * qd

    def __str__(self) -> str:
        return f"(p={self.p}, q={self.q})"


def _float_view(name: str, x: Rat) -> float:
    """``rat_float(x)``, refused by name if it overflows or if a nonzero x rounds to 0.0."""
    try:
        value = rat_float(x)
    except OverflowError:
        raise OutOfRangeError(f"{name} is outside the double range: its float view overflows") from None
    if value == 0.0 and x:
        raise OutOfRangeError(f"{name} is outside the double range: its float view is 0.0")
    return value


class FloatScalar(namedtuple("FloatScalar", "value")):
    """A finite double; the tolerance of a comparison belongs to the law that makes it."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, value: float) -> "FloatScalar":
        if not math.isfinite(value):
            raise ValueError(f"FloatScalar must be finite, got {value!r}")
        return super().__new__(cls, value)

    def __float__(self) -> float:
        return self.value


class TruncationPolicy(namedtuple("TruncationPolicy", "max_terms tail_tol")):
    """The knobs of every series evaluation: at most ``max_terms`` terms, and the absolute ``tail_tol``.

    The rules that read them, the stop reasons and what a reported tail
    means are stated once, in the module docstring of ``pqcalc.integration``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, max_terms: int = 10_000, tail_tol: float = 1e-12) -> "TruncationPolicy":
        if not isinstance(max_terms, int):
            raise ValueError(f"max_terms must be an int, got {max_terms!r}")
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if max_terms > sys.maxsize:  # a sum that trips no stop rule would run for ever
            raise ValueError(f"max_terms must be <= {sys.maxsize}, got {max_terms}")
        if not tail_tol > 0:
            raise ValueError("tail_tol must be > 0")
        if tail_tol == math.inf:  # every term would count as small
            raise ValueError("tail_tol must be finite")
        return super().__new__(cls, max_terms, tail_tol)


DEFAULT_POLICY = TruncationPolicy()


def bracket(n: int, params: PqParams) -> Rat:
    """Twin-basic number [n] = (p^n - q^n)/(p - q), exact, any integer n.

    For n >= 1 this equals the sum p^{n-1} + p^{n-2} q + ... + q^{n-1};
    negative n is allowed because p and q are nonzero.

    With p = P/S and q = Q/S (:meth:`PqParams.as_ints`) and m = |n|, the
    division in the integer b = ((P^m - Q^m) // (P - Q)) S is exact, and
    [n] = b / S^m for n >= 0 and [n] = -b S^m / (PQ)^m for n < 0, since
    [-m] = -[m] / (pq)^m.  At p = -q, [n] = 0 for every even n, returned
    without forming a power.
    """
    return rat_from_ints(*_bracket_ints(n, params.as_ints()))


def _bracket_ints(n: int, ints: tuple[int, int, int]) -> tuple[int, int]:
    """[n] over a positive denominator, not reduced, from ``ints`` = (P, Q, S) (see ``bracket``)."""
    big_p, big_q, s = ints
    m = abs(n)
    if big_p == -big_q and not m % 2:
        return 0, 1
    b = (big_p**m - big_q**m) // (big_p - big_q) * s
    if n >= 0:
        return b, s**m
    return -b * s**m, (big_p * big_q) ** m


def bracket_numerators(n: int, ints: tuple[int, int, int]) -> list[int]:
    """The table [B_0, ..., B_n] with [k] = B_k / S^(k-1) as in ``bracket``, from ``ints`` = (P, Q, S).

    B_k = (P^k - Q^k)/(P - Q) is built by B_{k+1} = P B_k + Q^k, with no
    power and no division.  B_k = 0 only at p = -q.
    """
    big_p, big_q, _ = ints
    table, q_k = [0], 1
    for _ in range(n):
        table.append(big_p * table[-1] + q_k)
        q_k *= big_q
    return table[: n + 1]


def bracket_alpha(alpha: float, params: PqParams) -> FloatScalar:
    """Real-exponent bracket (p^alpha - q^alpha)/(p - q) in floating point, for finite alpha.

    The bracket is symmetric in p and q.  With lo = min(p, q), hi = max(p, q)
    and t = alpha ln(hi/lo) = alpha log1p((hi - lo)/lo), where |t| <= 1 it is
    lo^alpha expm1(t)/(hi - lo), with hi - lo formed from the exact p and q
    and floated once: there the two powers are close and their direct
    difference cancels (a small alpha, or q/p near 1).  Where t is
    subnormal, expm1(t) = t has already lost digits, so it is lo^alpha
    (alpha (ln(hi/lo)/(hi - lo))), rounded into the subnormals once.
    Elsewhere, and where hi - lo underflows to 0.0, it is the direct quotient.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    p, q = params.as_floats()
    if p <= 0 or q <= 0:
        raise NonPositiveBaseError(f"real exponents need p, q > 0, got p={p}, q={q}")
    big_p, big_q, s = params.as_ints()
    lo, hi = (p, q) if p < q else (q, p)
    diff = abs(big_p - big_q) / s
    ratio = diff / lo  # hi/lo - 1 >= 0, where log1p is well conditioned
    log_ratio = math.log1p(ratio) if ratio < math.inf else math.log(hi) - math.log(lo)
    t = alpha * log_ratio
    try:
        if abs(t) < sys.float_info.min and diff:
            slope = log_ratio / diff  # overflows only where p and q are subnormal, and then alpha / diff does not
            value = lo**alpha * (alpha * slope if slope < math.inf else alpha / diff * log_ratio)
        elif abs(t) <= 1 and diff:
            value = lo**alpha * math.expm1(t) / diff
        else:
            value = (p**alpha - q**alpha) / (p - q)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):  # a power, or their quotient by a small p - q, left the double range
        raise OverflowError(f"(p**alpha - q**alpha)/(p - q) overflows a double at alpha={alpha!r}")
    return FloatScalar(value)


def pq_factorial(n: int, params: PqParams) -> Rat:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise NegativeArgumentError(f"factorial needs n >= 0, got {n}")
    return bracket_falling(n, n, params)


def bracket_falling(n: int, k: int, params: PqParams) -> Rat:
    """The product [n][n-1]...[n-k+1], i.e. [n]!/[n-k]! without the division.

    Computed as a plain product so it stays defined even when some bracket
    vanishes (p = -q), where the factorial ratio would be 0/0.  A product
    with a zero factor (see ``_falling_vanishes``) is not multiplied out.
    The numerators and the denominators are multiplied as integers and the
    quotient is normalised once; (P, Q, S) is read once for every factor.
    """
    if k < 0:
        raise NegativeArgumentError(f"need k >= 0, got {k}")
    ints = params.as_ints()
    if _falling_vanishes(n, k, ints):
        return rat(0)
    num = den = 1
    for j in range(n - k + 1, n + 1):
        b, d = _bracket_ints(j, ints)
        num *= b
        den *= d
    return rat_from_ints(num, den)


def _falling_vanishes(n: int, k: int, ints: tuple[int, int, int]) -> bool:
    """Whether [n][n-1]...[n-k+1] has a zero factor: [0] (0 <= n < k), or an even j at p = -q."""
    if 0 <= n < k:
        return True
    big_p, big_q, _ = ints  # p = -q exactly when P = -Q, without forming -q
    return (k > 1 or k == 1 and not n % 2) and big_p == -big_q


def pq_binomial(n: int, k: int, params: PqParams) -> Rat:
    """(p,q)-binomial coefficient [n]!/([k]![n-k]!), 0 <= k <= n."""
    if k < 0 or k > n:
        raise OutOfRangeError(f"need 0 <= k <= n, got n={n}, k={k}")
    ints = params.as_ints()
    return rat_from_ints(binomial_row(n, ints)[k], ints[2] ** (k * (n - k)))


def binomial_row(n: int, ints: tuple[int, int, int]) -> list[int]:
    """[G_0, ..., G_n] with [n k] = G_k / S^(k(n-k)), from ``ints`` = (P, Q, S), for n >= 0.

    G_{k+1} = G_k B_{n-k} / B_{k+1} in the numerators of ``bracket_numerators``; the
    division is exact, since the binomial is a polynomial in p and q with integer coefficients.
    """
    if ints[0] == -ints[1] and n >= 2:  # [2] = p + q = 0 there, so the defining ratio is 0/0
        raise DegenerateRegimeError("binomial coefficients are undefined at p = -q for n >= 2")
    table, row = bracket_numerators(n, ints), [1]
    for k in range(n):
        row.append(row[-1] * table[n - k] // table[k + 1])
    return row
