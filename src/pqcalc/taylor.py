"""Taylor expansions in both (p,q)-power bases and the connection formulas.

For a polynomial f of degree N the coefficients come straight from the
evaluation formulas

    forward  basis (x (-) a)^k:  c_k = p^{-C(k,2)} (D^k f)(a p^{-k}) / [k]!
    reversed basis (a (-) x)^k:  c_k = (-1)^k q^{-C(k,2)} (D^k f)(a q^{-k}) / [k]!

with one bracket table per call, and Horner's rule in the power basis,
c_0 + L_0 (c_1 + L_1 (c_2 + ...)) over its linear factors L_j, rebuilds f
exactly; both are O(N^2) integer work.  (An independent triangular linear
solve lives in the test suite as the oracle for these formulas.)  They are
one formula: ``taylor_expand`` takes the basis as its ``orientation``
argument, as the connection formulas do, and ``taylor_expand_reversed`` is
``taylor_expand`` with ``Orientation.A_MINUS_X``.

Both formulas divide by [k]!, which vanishes at p = -q; that degenerate
parameter pair is rejected even though the expansion coefficients would
still exist abstractly.  Every term of the k-th Horner value carries the
numerator B_1...B_k of [k]!, which is divided out exactly before the one
normalisation of c_k.  The connection and Heine coefficients read each
(p,q)-binomial as one integer over a power of S (``binomial_row``), so
each result here is normalised once.

The reciprocal-power series (Heine-type expansion) is included with its
exact long-division oracle: coefficients of 1/(1 (-) x)^n as claimed,
binom(n+j-1, j) p^{j - C(j,2)}, against the coefficients obtained by
actually dividing 1 by the expanded denominator.  The suite reports
whether they agree; at p = 1 they provably do (classical Heine).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import count
from math import comb, gcd, lcm

from .errors import DegenerateRegimeError, DivergenceError, OutOfRangeError
from .polynomials import Polynomial
from .pqpower import Orientation, PqPowerExpr, expand_expr
from .scalars import DEFAULT_POLICY, PqParams, Rat, TruncationPolicy, bracket, bracket_numerators
from .scalars import binomial_row, rat, rat_float, rat_from_ints, rat_str


class PowerBasisExpansion(namedtuple("PowerBasisExpansion", "a orientation coeffs")):
    """Coefficients of a polynomial over (x (-) a)^k or (a (-) x)^k, trailing zeros stripped."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # _replace goes through _make, so both validate

    def __new__(cls, a: object, orientation: Orientation, coeffs: Iterable[object]) -> "PowerBasisExpansion":
        return super().__new__(cls, rat(a), orientation, Polynomial(coeffs).coeffs)

    def to_polynomial(self, params: PqParams) -> Polynomial:
        """Reconstruct the canonical-basis polynomial, nested from the top coefficient down.

        L_j is (lo lo_step^j + hi hi_step^j x) / (ad S^j) by ``factor_steps``; ``out`` stays over ``den * scale``.
        """
        cs = self.coeffs
        ints = params.as_ints()
        ad, s = self.a._denominator, ints[2]
        lo, hi, lo_step, hi_step = self.orientation.factor_steps(self.a._numerator, ad, ints)
        den = lcm(*[c._denominator for c in cs])
        out, scale = [0], 1
        for k in reversed(range(len(cs))):
            out[0] += cs[k]._numerator * (den // cs[k]._denominator) * scale
            if k:
                lo_j, hi_j = lo * lo_step ** (k - 1), hi * hi_step ** (k - 1)
                out = [lo_j * c + hi_j * d for c, d in zip(out + [0], [0] + out)]
                scale *= ad * s ** (k - 1)
        return Polynomial([rat_from_ints(c, den * scale) for c in out])

    def to_json_dict(self) -> dict:
        return {
            "a": rat_str(self.a),
            "orientation": self.orientation.value,
            "coeffs": [rat_str(c) for c in self.coeffs],
        }


def taylor_expand(
    f: Polynomial, a: object, params: PqParams, orientation: Orientation = Orientation.X_MINUS_A
) -> PowerBasisExpansion:
    """Expand f over (x (-) a)^k, or over (a (-) x)^k for ``Orientation.A_MINUS_X``; round trips exactly."""
    a = rat(a)
    base, sign = orientation.base_sign(params)
    bn, bd = base._numerator, base._denominator
    ints = params.as_ints()
    s = ints[2]
    brackets = bracket_numerators(len(f.coeffs) - 1, ints)
    den = lcm(*[c._denominator for c in f.coeffs])
    # (D^k f)(y) = sum_j d[j] y^j / (den S^(kj + C(k,2))), and [k]! = fact / S^C(k,2)
    d = [c._numerator * (den // c._denominator) for c in f.coeffs]
    coeffs, fact = [], 1
    for k in range(len(d)):
        if k >= 1:
            if brackets[k] == 0:
                raise DegenerateRegimeError(f"[{k}] = 0 at p = -q; expansion formula divides by it")
            fact *= brackets[k]
            d = [c * br for c, br in zip(d[1:], brackets[1:])]
        # Horner at y = a base^-k = yn / yd, carried over z = yd S^k in lowest terms
        yn, z = a._numerator * bd**k, a._denominator * (bn * s) ** k
        g = gcd(yn, z)
        yn, z = yn // g, z // g
        num, scale = d[-1], 1
        for c in reversed(d[:-1]):
            scale *= z
            num = num * yn + c * scale
        # d[j] = den c_(j+k) G(j+k, k) fact for f's coefficients c, so fact divides num exactly
        e = k * (k - 1) // 2
        coeffs.append(rat_from_ints(sign**k * (num // fact) * bd**e, den * scale * bn**e))
    return PowerBasisExpansion(a=a, orientation=orientation, coeffs=tuple(coeffs))


def taylor_expand_reversed(f: Polynomial, a: object, params: PqParams) -> PowerBasisExpansion:
    """``taylor_expand`` over the reversed basis (a (-) x)^k."""
    return taylor_expand(f, a, params, Orientation.A_MINUS_X)


def connect_monomial(
    n: int, a: object, params: PqParams, orientation: Orientation = Orientation.X_MINUS_A
) -> tuple[Rat, ...]:
    """Coefficients of x^n over (x (-) a)^k or (a (-) x)^k.

    x^n = (x (-) 0)^n / p^{C(n,2)} = (-1)^n (0 (-) x)^n / q^{C(n,2)}, so these
    are the power-to-power coefficients from b = 0, scaled.
    """
    base, sign = orientation.base_sign(params)
    e = n * (n - 1) // 2
    return _connect(0, a, n, params, orientation, (sign**n * base._denominator**e, base._numerator**e))


def connect_power_to_power(
    b: object, a: object, n: int, params: PqParams, orientation: Orientation
) -> tuple[Rat, ...]:
    """Coefficients connecting the power at b to the power basis at a.

    Forward:  (x (-) b)^n = sum_k binom(n,k) (a (-) b)^{n-k} (x (-) a)^k
    Reversed: (b (-) x)^n = sum_k binom(n,k) (b (-) a)^{n-k} (a (-) x)^k

    Each scalar factor (a (-) b)^m is the first m factors of one integer product.
    """
    return _connect(b, a, n, params, orientation, (1, 1))


def _connect(
    b: object, a: object, n: int, params: PqParams, orientation: Orientation, scale: tuple[int, int]
) -> tuple[Rat, ...]:
    """``connect_power_to_power`` with every coefficient times ``scale`` = (num, den), normalised once."""
    if n < 0:
        raise OutOfRangeError(f"need n >= 0, got {n}")
    a, b = rat(a), rat(b)
    first, second = (a, b) if orientation is Orientation.X_MINUS_A else (b, a)
    ints = params.as_ints()
    big_p, big_q, s = ints
    # binom(n,m) = binoms[m] / S^(m(n-m)) and (first (-) second)^m = prods[m] / (d^m S^C(m,2))
    binoms, (num_scale, den_scale) = binomial_row(n, ints), scale
    u, v = first._numerator * second._denominator, second._numerator * first._denominator
    d = first._denominator * second._denominator
    prods = [num_scale]
    for _ in range(n):
        prods.append(prods[-1] * (u - v))
        u *= big_p
        v *= big_q
    # a list, not a generator: CPython builds tuple(<generator>) by resizing,
    # which parks one tuple per call on its free lists
    return tuple([
        rat_from_ints(binoms[m] * prods[m], den_scale * d**m * s ** (m * (2 * n - m - 1) // 2))
        for m in reversed(range(n + 1))
    ])


def heine_coeff(n: int, j: int, params: PqParams) -> Rat:
    """The claimed x^j coefficient of 1/(1 (-) x)^n: binom(n+j-1, j) p^{j-C(j,2)}."""
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    if j < 0:
        raise OutOfRangeError(f"need j >= 0, got {j}")
    ints, e = params.as_ints(), j - comb(j, 2)
    # binom(n+j-1, j) = G / S^(j(n-1)) and p^e = P^e / S^e, so the value is G P^e / S^t, t = j(n-1) + e
    big_p, s, t = ints[0], ints[2], j * (n - 1) + e
    g = binomial_row(n + j - 1, ints)[j]
    return rat_from_ints(g * big_p ** max(e, 0) * s ** max(-t, 0), big_p ** max(-e, 0) * s ** max(t, 0))


def reciprocal_power_series(n: int, params: PqParams, num_terms: int) -> tuple[Rat, ...]:
    """Exact power-series coefficients of 1/(1 (-) x)^n by long division.

    The denominator (1 (-) x)^n expands to a polynomial with constant term
    p^{C(n,2)} != 0, so the reciprocal has a formal series; this is the
    independent oracle the claimed coefficients are judged against.
    """
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    g = expand_expr(PqPowerExpr(a=1, n=n, params=params, orientation=Orientation.A_MINUS_X))
    g0 = g.coeffs[0]
    series = [1 / g0]
    for m in range(1, num_terms):
        acc = rat(0)
        for i in range(1, min(m, len(g.coeffs) - 1) + 1):
            acc += g.coeffs[i] * series[m - i]
        series.append(-acc / g0)
    return tuple(series[:num_terms])


def heine_series_eval(
    n: int, x: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """Truncated sum of the claimed series sum_j heine_coeff(n,j) x^j.

    The terms are summed under the stopping rules of ``pqcalc.integration``.
    A ``divergent`` stop, which is how |q/p| >= 1 or |x| too large announce
    themselves, raises :class:`DivergenceError`; every other stop returns
    the partial sum.  At p = -q the coefficient after the second term
    divides by [2] = 0 and raises :class:`DegenerateRegimeError`.
    """
    # imported here so that the Taylor layer alone does not load the integrals
    from .integration import DIVERGENCE_WINDOW, _sum_series

    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")

    def terms():
        coeff, p = rat(1), params.p
        for j in count():
            yield rat_float(coeff) * x**j
            # c_{j+1} / c_j = [n+j]/[j+1] * p^{1-j}
            divisor = bracket(j + 1, params)
            if divisor == 0:
                raise DegenerateRegimeError(f"[{j + 1}] = 0 at p = -q; the series coefficients divide by it")
            coeff *= bracket(n + j, params) / divisor * p ** (1 - j)

    total, used, _, reason = _sum_series(terms(), policy)
    if reason == "divergent":
        raise DivergenceError(
            f"term magnitudes non-decreasing for {DIVERGENCE_WINDOW} consecutive terms"
            f" at j={used - 1}"
        )
    return total
