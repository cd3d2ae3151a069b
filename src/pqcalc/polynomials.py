"""Canonical-basis polynomials and the (p,q)-derivative.

Two derivative paths live here.  The exact path acts on coefficient
sequences: D maps x^n to [n] x^{n-1}, so it is a plain reindexing with
bracket factors.  The numeric path applies the defining difference
quotient (f(px) - f(qx)) / ((p-q)x) to a black-box evaluator and falls
back to a shrinking-h probe at x = 0.

``pq_difference_quotient`` is the same quotient over exact rationals;
the identity suite leans on it as the model-free oracle for every
derivative law.

The exact kernels ``scale``, exact Horner and ``pq_derive_poly`` are
fraction-free: they multiply integer numerators and build one ``Rat`` per
output coefficient with :func:`~pqcalc.scalars.rat_from_ints`;
``pq_derive_poly`` reads [n] = B_n / S^(n-1) from
:func:`~pqcalc.scalars.bracket_numerators` and S from the integer form
(P, Q, S) that :meth:`~pqcalc.scalars.PqParams.as_ints` computes.  They and
``Polynomial``'s zero strip read the slots ``_numerator``/``_denominator``,
as every slot reader named in ``scalars`` does.  ``Polynomial``
keeps a coefficient that is already a ``Rat`` as it is.  ``+``, ``-`` and ``*`` stay
plain ``Fraction`` arithmetic: the identity suite calls them too rarely
for an integer form of them to pay.

At a float, :func:`eval_poly` converts each coefficient to a double as it
reaches it, once per evaluation, and runs Horner's loop;
:meth:`NumericFn.from_polynomial` converts them once per evaluator and runs
the same steps written out as straight-line code, from one maker per degree
(:func:`_horner_maker`, the one place the package compiles code).  Both
convert with :func:`~pqcalc.scalars.rat_float`, bit for bit ``float(c)``, and
take the steps ``acc * x + c`` in one order, so the two agree bit for bit.
``eval_poly`` keeps its loop: building an evaluator inside every float
:func:`eval_poly` call made the ``lattice-grid`` set-up of
``perfbench/run.py`` slower (Python 3.11.7, 2 vCPUs), by 24-54% through
``from_polynomial`` and by 24% (0.149 to 0.186 s) through one closure
builder shared with it.

:meth:`Polynomial.from_string` is the one reader of "c0,c1,...", the
``pq`` commands' polynomial arguments included.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import MissingDerivativeAtZeroError
from .scalars import PqParams, Rat, bracket_numerators, rat, rat_float, rat_from_ints, rat_named, rat_str

_NEG_INF = float("-inf")


class Polynomial:
    """Immutable dense polynomial; coeffs[i] is the coefficient of x^i.

    Trailing zeros are stripped, so equal polynomials compare equal and
    the zero polynomial is the empty tuple (degree -inf).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[object] = ()) -> None:
        cs = [c if type(c) is Rat else rat(c) for c in coeffs]
        while cs and not cs[-1]._numerator:
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
    def from_string(cls, text: str, name: str = "poly") -> "Polynomial":
        """Parse "c0,c1,...,cN"; a part that is no rational literal is refused as "coefficient i of ``name``"."""
        return cls(rat_named(f"coefficient {i} of {name}", c) for i, c in enumerate(text.split(",")))

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
        cn, cd = c._numerator, c._denominator
        if not cn:
            return Polynomial.zero()
        return Polynomial([rat_from_ints(cn * a._numerator, cd * a._denominator) for a in self.coeffs])

    def __call__(self, x: object) -> object:
        return eval_poly(self, x)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


def eval_poly(f: Polynomial, x: object) -> object:
    """Horner evaluation; exact for rational x, double for float x.

    The float branch converts each coefficient with ``rat_float`` and starts
    from the leading one, so it is bit for bit that Horner with ``float(c)``:
    at x = +-inf a polynomial whose leading coefficient is a nonzero double
    reads its limit, not NaN, and the zero polynomial reads 0.0.  A leading
    coefficient whose double underflows to 0.0 would start Horner at
    0.0 * inf; there the limit is read from the exact coefficient instead.
    """
    if isinstance(x, float):
        cs = f.coeffs
        acc = rat_float(cs[-1]) if cs else 0.0
        if not acc and len(cs) > 1 and math.isinf(x):
            return _limit_at_inf(cs[-1], len(cs) - 1, x)
        for c in reversed(cs[:-1]):
            acc = acc * x + rat_float(c)
        return acc
    x = rat(x)
    # Horner on ints over the common denominator den * xd^deg; scale carries
    # xd^(deg-i).  The lcm argument is a list because CPython packs a
    # *generator by resizing a tuple, which leaves one tuple per call on its
    # free lists and grows the resident size with every evaluation.
    xn, xd = x._numerator, x._denominator
    den = math.lcm(*[c._denominator for c in f.coeffs])
    num, scale = 0, 1
    for c in reversed(f.coeffs):
        num = num * xn + c._numerator * (den // c._denominator) * scale
        scale *= xd
    return rat_from_ints(num * xd, den * scale)


def _limit_at_inf(lead: Rat, degree: int, x: float) -> float:
    """The limit at x = +-inf of a polynomial of degree >= 1 with nonzero leading coefficient ``lead``."""
    negative = (lead._numerator < 0) != (x < 0 and degree % 2 == 1)
    return -math.inf if negative else math.inf


def pq_derive_poly(f: Polynomial, params: PqParams) -> Polynomial:
    """Exact (p,q)-derivative: the x^n coefficient moves to x^{n-1} times [n].

    With [n] = B_n / S^(n-1) from ``bracket_numerators``, each new
    coefficient is one ``Rat`` of integer products, normalised once.
    """
    cs = f.coeffs
    if len(cs) < 2:
        return Polynomial.zero()
    ints = params.as_ints()
    s = ints[2]
    out, s_pow = [], 1
    for b, c in zip(bracket_numerators(len(cs) - 1, ints)[1:], cs[1:]):
        out.append(rat_from_ints(b * c._numerator, s_pow * c._denominator))
        s_pow *= s
    return Polynomial(out)


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


#: Horner steps per statement of a written-out evaluator; CPython's parser refuses 200 nested parentheses
_HORNER_CHUNK = 16


@functools.cache  # one maker per degree in use, each O(degree) code
def _horner_maker(degree: int) -> Callable[..., Callable[[float], float]]:
    """The maker of degree ``degree``'s evaluator: ``make(c0, ..., cd)(x)`` is Horner from the leading c0.

    The evaluator is Horner's loop ``acc = acc * x + c`` written out, one
    nested expression per ``_HORNER_CHUNK`` steps, so every step is the
    loop's two float operations in the loop's order.  This is the one place
    the package compiles code.
    """
    names = ", ".join(f"c{i}" for i in range(degree + 1))
    lines, expr = [f"def make({names}):", "    def horner(x):"], "c0"
    for i in range(1, degree + 1):
        if i % _HORNER_CHUNK == 0:
            lines.append(f"        acc = {expr}")
            expr = "acc"
        expr = f"({expr}) * x + c{i}"
    source = "\n".join([*lines, f"        return {expr}", "    return horner"])
    namespace: dict = {}
    exec(compile(source, f"<horner of degree {degree}>", "exec"), namespace)
    return namespace["make"]


class NumericFn(NamedTuple):
    """A deterministic real evaluator, optionally with its derivative at 0 and its component count.

    The derivative at 0 is the value the difference quotient cannot reach;
    integral lattices never sample x = 0, so it only matters when callers
    differentiate at the origin explicitly.

    ``components`` is d + 1 for a nonzero polynomial of degree d, whose
    lattice partial sums have d + 1 geometric components; the lattice summer
    sums by it alone, and 0, no count, is a black box (:mod:`.integration`).
    """

    fn: Callable[[float], float]
    deriv_at_zero: Optional[float] = None
    components: int = 0

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "NumericFn":
        """Float Horner over coefficients floated once, bit for bit eval_poly's float branch.

        The evaluator is the written-out Horner of f's degree
        (:func:`_horner_maker`), so a call runs no loop.  Only a polynomial
        whose leading coefficient floats to 0.0 gets the wrapper that reads
        x = +-inf as the limit, so the others pay nothing per call.  The zero
        polynomial floats to the constant 0.0 and counts none: a black box.
        """
        cs = [rat_float(c) for c in reversed(f.coeffs)] or [0.0]
        horner = _horner_maker(len(cs) - 1)(*cs)
        if not cs[0] and len(cs) > 1:
            plain, top, degree = horner, f.coeffs[-1], len(cs) - 1

            def horner(x: float) -> float:
                return _limit_at_inf(top, degree, x) if math.isinf(x) else plain(x)

        return cls(fn=horner, deriv_at_zero=cs[-2] if len(cs) > 1 else 0.0, components=len(f.coeffs))

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
    return _pq_derivative(f, *params.as_floats())(x)


def _pq_derivative(f: NumericFn, p: float, q: float) -> Callable[[float], float]:
    """``pq_derive_fn`` as a function of x, for lattice callers: p and q come floated, and ``f.fn`` is bound once."""
    fn = f.fn

    def derivative(x: float) -> float:
        if x != 0.0:
            return (fn(p * x) - fn(q * x)) / ((p - q) * x)
        if f.deriv_at_zero is not None:
            return f.deriv_at_zero
        previous = None
        for exponent in range(10, 41):
            value = derivative(2.0**-exponent)
            if previous is not None and math.isclose(value, previous, rel_tol=1e-8, abs_tol=1e-10):
                return value
            previous = value
        raise MissingDerivativeAtZeroError(
            "no derivative at 0 supplied and the shrinking-h probe did not settle"
        )

    return derivative
