"""Canonical-basis polynomials and the (p,q)-derivative.

Two derivative paths live here.  The exact path acts on coefficient
sequences: D maps x^n to [n] x^{n-1}, so it is a plain reindexing with
bracket factors.  The numeric path applies the defining difference
quotient (f(px) - f(qx)) / ((p-q)x) to a black-box evaluator and falls
back to a shrinking-h probe at x = 0.

``pq_difference_quotient`` is the same quotient over exact rationals;
the identity suite leans on it as the model-free oracle for every
derivative law.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import MissingDerivativeAtZeroError
from .scalars import PqParams, Rat, bracket, rat, rat_str

_NEG_INF = float("-inf")


class Polynomial:
    """Immutable dense polynomial; coeffs[i] is the coefficient of x^i.

    Trailing zeros are stripped, so equal polynomials compare equal and
    the zero polynomial is the empty tuple (degree -inf).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[object] = ()) -> None:
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def monomial(cls, n: int, coeff: object = 1) -> "Polynomial":
        return cls([0] * n + [coeff])

    @classmethod
    def from_string(cls, text: str) -> "Polynomial":
        """Parse the dense form "c0,c1,...,cN" of rational literals."""
        parts = [part.strip() for part in text.split(",")]
        return cls(rat(part) for part in parts)

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(rat_str(c) for c in self.coeffs)

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial.zero()
            out = [rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(other)

    def __rmul__(self, other: object) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: object) -> "Polynomial":
        c = rat(c)
        return Polynomial(c * a for a in self.coeffs)

    def __call__(self, x: object) -> object:
        return eval_poly(self, x)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


def eval_poly(f: Polynomial, x: object) -> object:
    """Horner evaluation; exact for rational x, double for float x."""
    if isinstance(x, float):
        acc = 0.0
        for c in reversed(f.coeffs):
            acc = acc * x + float(c)
        return acc
    x = rat(x)
    # Horner on ints over the common denominator den * xd^deg; scale carries
    # xd^(deg-i).  The lcm argument is a list because CPython packs a
    # *generator by resizing a tuple, which leaves one tuple per call on its
    # free lists and grows the resident size with every evaluation.
    xn, xd = x.numerator, x.denominator
    den = math.lcm(*[c.denominator for c in f.coeffs])
    num, scale = 0, 1
    for c in reversed(f.coeffs):
        num = num * xn + c.numerator * (den // c.denominator) * scale
        scale *= xd
    return Rat(num * xd, den * scale)


def pq_derive_poly(f: Polynomial, params: PqParams) -> Polynomial:
    """Exact (p,q)-derivative: the x^n coefficient moves to x^{n-1} times [n]."""
    return Polynomial(bracket(n, params) * c for n, c in enumerate(f.coeffs) if n >= 1)


def pq_derive_poly_k(f: Polynomial, k: int, params: PqParams) -> Polynomial:
    """k-fold exact (p,q)-derivative; k = 0 is the identity."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    for _ in range(k):
        if f.is_zero():
            break
        f = pq_derive_poly(f, params)
    return f


def pq_difference_quotient(fn: Callable[[Rat], Rat], x: object, params: PqParams) -> Rat:
    """Exact (f(px) - f(qx)) / ((p-q)x) for a rational-valued callable, x != 0."""
    x = rat(x)
    if x == 0:
        raise ZeroDivisionError("difference quotient undefined at x = 0")
    p, q = params.p, params.q
    return (fn(p * x) - fn(q * x)) / ((p - q) * x)


class NumericFn(NamedTuple):
    """A deterministic real evaluator, optionally with its derivative at 0.

    The derivative at 0 is the value the difference quotient cannot reach;
    integral lattices never sample x = 0, so it only matters when callers
    differentiate at the origin explicitly.
    """

    fn: Callable[[float], float]
    deriv_at_zero: Optional[float] = None

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "NumericFn":
        """Float Horner over coefficients floated once, bit for bit eval_poly's float branch."""
        d0 = float(f.coeffs[1]) if len(f.coeffs) > 1 else 0.0
        cs = [float(c) for c in reversed(f.coeffs)]

        def horner(x: float) -> float:
            acc = 0.0
            for c in cs:
                acc = acc * x + c
            return acc

        return cls(fn=horner, deriv_at_zero=d0)

    def __call__(self, x: float) -> float:
        return self.fn(x)


def pq_derive_fn(f: NumericFn, x: float, params: PqParams) -> float:
    """Numeric (p,q)-derivative of ``f`` at ``x``.

    At x = 0 the defining quotient collapses, where the derivative is
    f'(0) by definition.  If ``f.deriv_at_zero`` is absent, probe the
    quotient at x = 2^-10 ... 2^-40 and accept once two successive
    probes agree to 1e-8 relative (with a 1e-10 absolute floor so a
    derivative that is genuinely zero can settle too); the quotient
    tends to f'(0) for functions ordinarily differentiable near 0.
    """
    p, q = params.as_floats()
    if x != 0.0:
        return (f(p * x) - f(q * x)) / ((p - q) * x)
    if f.deriv_at_zero is not None:
        return f.deriv_at_zero
    previous = None
    for exponent in range(10, 41):
        h = 2.0**-exponent
        value = (f(p * h) - f(q * h)) / ((p - q) * h)
        if previous is not None and math.isclose(value, previous, rel_tol=1e-8, abs_tol=1e-10):
            return value
        previous = value
    raise MissingDerivativeAtZeroError(
        "no derivative at 0 supplied and the shrinking-h probe did not settle"
    )
