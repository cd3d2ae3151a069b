"""Taylor expansions in both (p,q)-power bases and the connection formulas.

For a polynomial f of degree N the coefficients come straight from the
evaluation formulas

    forward  basis (x (-) a)^k:  c_k = p^{-C(k,2)} (D^k f)(a p^{-k}) / [k]!
    reversed basis (a (-) x)^k:  c_k = (-1)^k q^{-C(k,2)} (D^k f)(a q^{-k}) / [k]!

and reconstruction through the expanded basis polynomials returns f
exactly.  (An independent triangular linear solve lives in the test
suite as the oracle for these formulas.)

Both formulas divide by [k]!, which vanishes at p = -q; that degenerate
parameter pair is rejected even though the expansion coefficients would
still exist abstractly.

The reciprocal-power series (Heine-type expansion) is included with its
exact long-division oracle: coefficients of 1/(1 (-) x)^n as claimed,
binom(n+j-1, j) p^{j - C(j,2)}, against the coefficients obtained by
actually dividing 1 by the expanded denominator.  The suite reports
whether they agree; at p = 1 they provably do (classical Heine).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .errors import DegenerateRegimeError, DivergenceError, OutOfRangeError
from .polynomials import Polynomial, eval_poly, pq_derive_poly
from .pqpower import Orientation, PqPowerExpr, expand_expr, pq_power_value
from .scalars import DEFAULT_POLICY, PqParams, Rat, TruncationPolicy, bracket, pq_binomial, rat, rat_str


@dataclass(frozen=True)
class PowerBasisExpansion:
    """Coefficients of a polynomial over (x (-) a)^k or (a (-) x)^k."""

    a: Rat
    orientation: Orientation
    coeffs: tuple[Rat, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", rat(self.a))
        cs = [rat(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def to_polynomial(self, params: PqParams) -> Polynomial:
        """Reconstruct the canonical-basis polynomial this expansion represents."""
        out = Polynomial.zero()
        for k, c in enumerate(self.coeffs):
            basis = PqPowerExpr(self.a, k, params, orientation=self.orientation)
            out = out + c * expand_expr(basis)
        return out

    def to_json_dict(self) -> dict:
        return {
            "a": rat_str(self.a),
            "orientation": self.orientation.value,
            "coeffs": [rat_str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PowerBasisExpansion":
        return cls(
            a=rat(payload["a"]),
            orientation=Orientation(payload["orientation"]),
            coeffs=tuple(rat(c) for c in payload["coeffs"]),
        )


def _expand_by_formula(
    f: Polynomial, a: Rat, params: PqParams, orientation: Orientation
) -> PowerBasisExpansion:
    base = params.p if orientation is Orientation.X_MINUS_A else params.q
    sign = 1 if orientation is Orientation.X_MINUS_A else -1
    coeffs = []
    derivative = f
    factorial = rat(1)
    base_pow = rat(1)  # base^-k
    base_tri = rat(1)  # base^-C(k,2)
    for k in range(len(f.coeffs)):
        if k >= 1:
            br = bracket(k, params)
            if br == 0:
                raise DegenerateRegimeError(f"[{k}] = 0 at p = -q; expansion formula divides by it")
            factorial *= br
            base_tri = base_pow * base_tri  # base^-C(k,2) picks up base^-(k-1)
            base_pow /= base
            derivative = pq_derive_poly(derivative, params)
        value = eval_poly(derivative, a * base_pow)
        coeffs.append(sign**k * base_tri * value / factorial)
    return PowerBasisExpansion(a=a, orientation=orientation, coeffs=tuple(coeffs))


def taylor_expand(f: Polynomial, a: object, params: PqParams) -> PowerBasisExpansion:
    """Expand f over the forward basis (x (-) a)^k; round trips exactly."""
    return _expand_by_formula(f, rat(a), params, Orientation.X_MINUS_A)


def taylor_expand_reversed(f: Polynomial, a: object, params: PqParams) -> PowerBasisExpansion:
    """Expand f over the reversed basis (a (-) x)^k; round trips exactly."""
    return _expand_by_formula(f, rat(a), params, Orientation.A_MINUS_X)


def connect_monomial(n: int, a: object, params: PqParams) -> tuple[Rat, ...]:
    """Coefficients of x^n over (x (-) a)^k.

    c_k = p^{-C(k,2)} binom(n,k) (a p^{-k})^{n-k}, with 0^0 = 1 covering
    the a = 0, k = n term.
    """
    if n < 0:
        raise OutOfRangeError(f"need n >= 0, got {n}")
    a = rat(a)
    p = params.p
    return tuple([
        p ** (-comb(k, 2)) * pq_binomial(n, k, params) * (a * p**-k) ** (n - k)
        for k in range(n + 1)
    ])


def connect_monomial_reversed(n: int, a: object, params: PqParams) -> tuple[Rat, ...]:
    """Coefficients of x^n over (a (-) x)^k."""
    if n < 0:
        raise OutOfRangeError(f"need n >= 0, got {n}")
    a = rat(a)
    q = params.q
    return tuple([
        (-1) ** k * q ** (-comb(k, 2)) * pq_binomial(n, k, params) * (a * q**-k) ** (n - k)
        for k in range(n + 1)
    ])


def connect_power_to_power(
    b: object, a: object, n: int, params: PqParams, orientation: Orientation
) -> tuple[Rat, ...]:
    """Coefficients connecting the power at b to the power basis at a.

    Forward:  (x (-) b)^n = sum_k binom(n,k) (a (-) b)^{n-k} (x (-) a)^k
    Reversed: (b (-) x)^n = sum_k binom(n,k) (b (-) a)^{n-k} (a (-) x)^k

    The scalar factors (a (-) b)^{n-k} are themselves (p,q)-power values
    with the full interleaved product structure.
    """
    if n < 0:
        raise OutOfRangeError(f"need n >= 0, got {n}")
    a, b = rat(a), rat(b)
    if orientation is Orientation.X_MINUS_A:
        first, second = a, b
    else:
        first, second = b, a
    # a list, not a generator: CPython builds tuple(<generator>) by resizing,
    # which parks one tuple per call on its free lists
    return tuple([
        pq_binomial(n, k, params) * pq_power_value(first, second, n - k, params)
        for k in range(n + 1)
    ])


def q_binomial_reduction_check(a: object, b: object, n: int, q: object) -> bool:
    """Check the classical q-binomial theorem instance at p = 1.

    (ab;q)_n = sum_k qbinom(n,k) a^{n-k} (b;q)_{n-k} (a;q)_k

    Verified two ways: via the literal right-hand side and via the
    power-to-power connection coefficients specialised to x = 1, p = 1,
    both against the direct q-Pochhammer product on the left.
    """
    if n < 0:
        raise OutOfRangeError(f"need n >= 0, got {n}")
    params = PqParams(1, q)
    a, b = rat(a), rat(b)
    lhs = pq_power_value(1, a * b, n, params)
    literal = sum(
        pq_binomial(n, k, params)
        * a ** (n - k)
        * pq_power_value(1, b, n - k, params)
        * pq_power_value(1, a, k, params)
        for k in range(n + 1)
    )
    connect = connect_power_to_power(a * b, a, n, params, Orientation.X_MINUS_A)
    via_connection = sum(
        c * pq_power_value(1, a, k, params) for k, c in enumerate(connect)
    )
    return lhs == literal and lhs == via_connection


def heine_coeff(n: int, j: int, params: PqParams) -> Rat:
    """The claimed x^j coefficient of 1/(1 (-) x)^n: binom(n+j-1, j) p^{j-C(j,2)}."""
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    if j < 0:
        raise OutOfRangeError(f"need j >= 0, got {j}")
    return pq_binomial(n + j - 1, j, params) * params.p ** (j - comb(j, 2))


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


def heine_coefficients_match(n: int, params: PqParams, num_terms: int = 8) -> bool:
    """Whether the claimed coefficients equal the long-division series."""
    oracle = reciprocal_power_series(n, params, num_terms)
    return all(heine_coeff(n, j, params) == oracle[j] for j in range(num_terms))


def heine_series_eval(
    n: int, x: float, params: PqParams, policy: Optional[TruncationPolicy] = None
) -> float:
    """Truncated sum of the claimed series sum_j heine_coeff(n,j) x^j.

    Stops once a term magnitude falls below the policy tail tolerance;
    raises :class:`DivergenceError` after ``divergence_window`` consecutive
    non-decreasing term magnitudes (which is how |q/p| >= 1 or |x| too
    large announce themselves).  Hitting ``max_terms`` returns the partial
    sum as a best effort.
    """
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    policy = policy or DEFAULT_POLICY
    total = 0.0
    coeff = rat(1)
    p = params.p
    run = 1
    small_run = 0
    last_mag = 0.0
    for j in range(policy.max_terms):
        term = float(coeff) * x**j
        total += term
        mag = abs(term)
        if mag <= policy.tail_tol:
            small_run += 1
            if small_run >= 3:
                return total
        else:
            small_run = 0
            if j > 0 and mag >= last_mag:
                run += 1
                if run >= policy.divergence_window:
                    raise DivergenceError(
                        f"term magnitudes non-decreasing for {run} consecutive terms at j={j}"
                    )
            else:
                run = 1
            last_mag = mag
        # c_{j+1} / c_j = [n+j]/[j+1] * p^{1-j}
        coeff *= bracket(n + j, params) / bracket(j + 1, params) * p ** (1 - j)
    return total
