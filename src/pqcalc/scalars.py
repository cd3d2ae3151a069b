"""Exact rational scalars, the (p,q) parameter pair and twin-basic quantities.

Every algebraic identity in this package is checked in exact rational
arithmetic.  The scalar type is ``gmpy2.mpq`` when gmpy2 is installed
(much faster on big numerators) and ``fractions.Fraction`` otherwise;
both keep values in lowest terms with a positive denominator, parse the
same ``"num/den"`` literals and print them back identically, so the
choice is invisible to callers.

The hot exact kernels (brackets, Horner, the power product at every n,
``expand_expr``, and the Taylor formulas, reconstruction and connection
coefficients) work fraction-free: they read ``numerator``/``denominator``
(which both backends provide), carry integer numerators over one common
denominator, and normalise once per result instead of after every multiply.

Floating point appears only where the theory itself is non-algebraic:
the real-exponent bracket and truncated series, carried by
:class:`FloatScalar` with a fixed comparison tolerance and summed under the
stopping rules of :class:`TruncationPolicy`.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import (
    DegenerateRegimeError,
    NegativeArgumentError,
    NonPositiveBaseError,
    OutOfRangeError,
)

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat


def rat(value: object) -> Rat:
    """Coerce ``value`` to the exact rational type.

    Accepts the backend type itself, ints, and strings in the literal
    form used by the CLI and JSON output: ``"7"``, ``"-1"``, ``"3/2"``.
    Floats are rejected on purpose: silently binarising 0.1 would poison
    exact identity checks.
    """
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to exact rational; pass a string like '1/10'")
    return Rat(value)


def rat_str(value: object) -> str:
    """Literal form of an exact rational: ``"7"`` or ``"3/2"``."""
    return str(rat(value))


class Regime(enum.Enum):
    """Classification of |q/p| against 1, selecting the integral lattice."""

    RATIO_LT_ONE = "lt1"
    RATIO_GT_ONE = "gt1"
    DEGENERATE = "degenerate"


class PqParams(namedtuple("PqParams", "p q")):
    """The pair (p, q) with p != q and p, q != 0.

    Both restrictions are load bearing: p - q divides every bracket, and
    negative powers as well as the integral lattices divide by p and q.
    The regime is always derived from the stored values, never cached.
    """

    __slots__ = ()

    def __new__(cls, p: object, q: object) -> "PqParams":
        p, q = rat(p), rat(q)
        if p == q:
            raise ValueError("p and q must differ (p - q appears in every denominator)")
        if p == 0 or q == 0:
            raise ValueError("p and q must be nonzero")
        return super().__new__(cls, p, q)

    @property
    def regime(self) -> Regime:
        r = abs(self.q / self.p)
        if r < 1:
            return Regime.RATIO_LT_ONE
        if r > 1:
            return Regime.RATIO_GT_ONE
        return Regime.DEGENERATE

    def swapped(self) -> "PqParams":
        return PqParams(self.q, self.p)

    def as_floats(self) -> tuple[float, float]:
        return float(self.p), float(self.q)

    def as_ints(self) -> tuple[int, int, int]:
        """(P, Q, S) with p = P/S and q = Q/S: P = pn*qd, Q = qn*pd, S = pd*qd."""
        p, q = self.p, self.q
        return p.numerator * q.denominator, q.numerator * p.denominator, p.denominator * q.denominator

    def __str__(self) -> str:
        return f"(p={self.p}, q={self.q})"


class FloatScalar(namedtuple("FloatScalar", "value")):
    """A double that compares with 1e-12 relative and absolute tolerance."""

    __slots__ = ()

    def __new__(cls, value: float) -> "FloatScalar":
        if not math.isfinite(value):
            raise ValueError(f"FloatScalar must be finite, got {value!r}")
        return super().__new__(cls, value)

    def close_to(self, other: float | "FloatScalar") -> bool:
        other_value = other.value if isinstance(other, FloatScalar) else other
        return math.isclose(self.value, other_value, rel_tol=1e-12, abs_tol=1e-12)

    def __float__(self) -> float:
        return self.value


class TruncationPolicy(namedtuple("TruncationPolicy", "max_terms tail_tol")):
    """Stopping rules for all series evaluations.

    ``tail_tol`` is absolute on the term magnitude; the tail estimate of a
    converged sum is the last included term, which bounds the true tail up
    to the geometric factor that made the series converge in the first
    place.
    """

    __slots__ = ()

    def __new__(cls, max_terms: int = 10_000, tail_tol: float = 1e-12) -> "TruncationPolicy":
        if max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if not tail_tol > 0:
            raise ValueError("tail_tol must be > 0")
        return super().__new__(cls, max_terms, tail_tol)


DEFAULT_POLICY = TruncationPolicy()


def bracket(n: int, params: PqParams) -> Rat:
    """Twin-basic number [n] = (p^n - q^n)/(p - q), exact, any integer n.

    For n >= 1 this equals the sum p^{n-1} + p^{n-2} q + ... + q^{n-1};
    negative n is allowed because p and q are nonzero.

    For n >= 1, with p = P/S and q = Q/S (:meth:`PqParams.as_ints`),
    [n] = ((P^n - Q^n) / (P - Q)) / S^(n-1), where the first quotient is an
    exact integer division.
    """
    if n < 1:
        return (params.p**n - params.q**n) / (params.p - params.q)
    big_p, big_q, s = params.as_ints()
    return Rat((big_p**n - big_q**n) // (big_p - big_q), s ** (n - 1))


def bracket_numerators(n: int, params: PqParams) -> list[int]:
    """The table [B_0, ..., B_n] with [k] = B_k / S^(k-1) as in ``bracket``; B_k = 0 only at p = -q."""
    big_p, big_q, _ = params.as_ints()
    return [(big_p**k - big_q**k) // (big_p - big_q) for k in range(n + 1)]


def bracket_alpha(alpha: float, params: PqParams) -> FloatScalar:
    """Real-exponent bracket (p^alpha - q^alpha)/(p - q) in floating point."""
    p, q = params.as_floats()
    if p <= 0 or q <= 0:
        raise NonPositiveBaseError(f"real exponents need p, q > 0, got p={p}, q={q}")
    return FloatScalar((p**alpha - q**alpha) / (p - q))


def pq_factorial(n: int, params: PqParams) -> Rat:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise NegativeArgumentError(f"factorial needs n >= 0, got {n}")
    return bracket_falling(n, n, params)


def bracket_falling(n: int, k: int, params: PqParams) -> Rat:
    """The product [n][n-1]...[n-k+1], i.e. [n]!/[n-k]! without the division.

    Computed as a plain product so it stays defined even when some bracket
    vanishes (p = -q), where the factorial ratio would be 0/0.  For
    0 <= n < k the product passes [0] = 0 and is not multiplied out.
    """
    if k < 0:
        raise NegativeArgumentError(f"need k >= 0, got {k}")
    if 0 <= n < k:
        return rat(0)
    out = rat(1)
    for j in range(n - k + 1, n + 1):
        out *= bracket(j, params)
    return out


def pq_binomial(n: int, k: int, params: PqParams) -> Rat:
    """(p,q)-binomial coefficient [n]!/([k]![n-k]!), 0 <= k <= n."""
    if k < 0 or k > n:
        raise OutOfRangeError(f"need 0 <= k <= n, got n={n}, k={k}")
    if params.regime is Regime.DEGENERATE and n >= 2:
        # [2] = p + q = 0 there, so the defining ratio is 0/0.
        raise DegenerateRegimeError("binomial coefficients are undefined at p = -q for n >= 2")
    return bracket_falling(n, k, params) / pq_factorial(k, params)
