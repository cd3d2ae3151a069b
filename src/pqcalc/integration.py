"""(p,q)-antiderivatives and the lattice-series (p,q)-integrals.

Every definite integral here is a geometric-lattice sum: the integrand is
sampled on points a*(q/p)^k (scaled by 1/p or 1/q) and the weighted terms
are added.  An integrand with a component count L (every nonzero
polynomial, :meth:`NumericFn.from_polynomial`) is summed by that count
alone, with no rule, gate or tolerance (:func:`_sum_counted`): on [0, a]
a Richardson table with one level per component has the lattice limit up
to float error after L strides, and on [a, infinity) every component
grows, so the sum diverges.

Any other integrand is a black box (:func:`_sum_walk`), summed until a
:class:`TruncationPolicy` says stop.  The plain rules stop a sum on
``_SMALL_RUN`` (3) consecutive terms of magnitude at most ``tail_tol``, on
:data:`DIVERGENCE_WINDOW` consecutive non-decreasing term magnitudes
(divergence, reported as a status, never raised, so failure cases such as
1/x can be demonstrated rather than crashed on; a NaN magnitude counts as
non-decreasing, like an infinite one), or on ``max_terms``.
Between them the lattice ratio, known before the first term, lets the
summer extrapolate the partial sums: a Richardson table at the known
ratios on [0, a], Aitken's delta-squared on the observed ratio on
[a, infinity).  An extrapolant is judged on two differences of
extrapolants, or on [a, infinity) on one within roundoff while the
observed ratio holds steady, as it does on the single geometric series of
x^{-s}; an observed ratio within roundoff of 1 extrapolates nothing.

``IntegralResult.stop_reason`` says which rule stopped the sum, and so
what ``tail_estimate`` means:

- ``small_terms`` (converged): the magnitude of the last term, not a bound
  on the error; on a slow lattice the omitted tail is many times larger;
- ``accelerated`` (converged): a bound on the error of the extrapolated
  value.  For a counted sum it bounds the float error of the full table:
  the roundoff of the summed blocks, the table's arithmetic and the float
  lattice's own error.  Otherwise it is the agreement of the last two
  extrapolants plus a roundoff term, accepted once the agreement is within
  ``tail_tol`` plus that term;
- ``divergent``: the magnitude of the last term;
- ``max_terms``: the magnitude of the last term above ``tail_tol``, or of
  the last term for a counted sum.

A black box's sum stopped by a plain rule is the sum the plain rules alone
give.  An integral over two lattices sums each side once: its second side
first, with extrapolation, then its first side, extrapolated only if the
second converged.  It is ``accelerated`` only when both sides are, as only
then is its tail a bound, and otherwise stops for the worse of their stop
reasons.  The exact value of a polynomial integrand is :func:`integral_exact`.

A term is float work only.  Each summer walks the lattice itself: its
loop computes each term from the integrand's plain ``fn`` when it reaches
it and steps the weight w, in either direction.  The black-box loop runs
from one checkpoint to the next and pauses only there; per term it does
nothing but the term, the plain rules and keeping the term before it,
which Aitken's observed ratio needs.  The counted loop sums whole blocks
and tests nothing per term.  Sides pass plain (value, terms, tail, reason)
tuples, and each integral builds its one :class:`IntegralResult` at the
end.  A ready-made term stream (the Heine series, the Riemann-Stieltjes
sum) goes through the black-box loop as the integrand of a walk that
stays at one point (:func:`_sum_series`).  A polynomial integrand arrives
with its coefficients already floated, its Horner written out and its
component count, and the integrands that the identity checks build call
their functions' ``fn`` directly.

The |q/p| = 1 regime has no defined lattice and is rejected outright.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import DegenerateRegimeError, InvalidIntervalError, WrongRegimeError
from .polynomials import NumericFn, Polynomial, _pq_derivative, eval_poly
from .scalars import DEFAULT_POLICY, PqParams, Rat, Regime, TruncationPolicy, bracket_numerators, rat, rat_from_ints


class IntegralStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_TERMS_REACHED = "max_terms"
    DIVERGENCE_DETECTED = "divergent"


class IntegralResult(NamedTuple):
    value: float
    terms_used: int
    tail_estimate: float
    regime: Regime
    status: IntegralStatus
    stop_reason: str  # one of STOP_REASONS

    def to_json_dict(self) -> dict:
        """The result as JSON values; a non-finite value or tail, which JSON cannot write, is None."""
        return {
            "value": self.value if math.isfinite(self.value) else None,
            "terms": self.terms_used,
            "tail": self.tail_estimate if math.isfinite(self.tail_estimate) else None,
            "status": self.status.value,
            "stop_reason": self.stop_reason,
            "regime": self.regime.value,
        }


class GapReport(NamedTuple):
    """Both sides of a two-sided identity and their absolute gap."""

    lhs: float
    rhs: float
    gap: float
    status: IntegralStatus


def _require_lattice(params: PqParams) -> Regime:
    regime = params.regime
    if regime is Regime.DEGENERATE:
        raise DegenerateRegimeError("|q/p| = 1 has no integral lattice")
    return regime


# consecutive sub-tolerance terms required before declaring convergence;
# guards against an integrand that merely has a zero on the lattice
_SMALL_RUN = 3
#: consecutive non-decreasing term magnitudes that declare a series divergent
DIVERGENCE_WINDOW = 8
#: unit roundoff of a float
_U = 2.0**-53
#: the most a Richardson table with one level per known component may amplify its inputs' errors by;
#: it sets the stride of such a table (:func:`_richardson_plan`)
RICHARDSON_BUDGET = 64.0

#: why a sum stopped, and the status each reason reports
_STOP_STATUS = {
    "small_terms": IntegralStatus.CONVERGED,
    "accelerated": IntegralStatus.CONVERGED,
    "max_terms": IntegralStatus.MAX_TERMS_REACHED,
    "divergent": IntegralStatus.DIVERGENCE_DETECTED,
}
STOP_REASONS = tuple(_STOP_STATUS)


def _worst_reason(*reasons: str) -> str:
    """The most severe of some stop reasons; a combined sum stops for it, so it is accelerated only if all are."""
    return max(reasons, key=("accelerated", "small_terms", "max_terms", "divergent").index)


def _amplification(lam: float, levels: int) -> float:
    """prod_{j <= levels} (1 + 2 |lam^j / (1 - lam^j)|): a bound on the sum of |weights| of a table's diagonal."""
    out, power = 1.0, lam
    for _ in range(levels):
        out *= 1.0 + 2.0 * abs(power / (1.0 - power))
        power *= lam
    return out


def _stride(ratio: float, levels: int) -> int:
    """The shortest stride m >= 2, no longer than the black-box one, whose table fits the budget.

    The table has ``levels`` levels lam^j, lam = ratio^m.  Its amplification
    falls as m grows through either parity (a negative ratio keeps only
    that order), so each parity is bisected.  When no stride fits, the
    black-box stride max(2, ceil(1 / (2 (1 - |ratio|)))) is kept.
    """
    longest = max(2, math.ceil(0.5 / (1.0 - abs(ratio))))
    best = longest
    for lo in (2, 3):
        hi = longest - (longest - lo) % 2
        if hi < lo or _amplification(ratio**hi, levels) > RICHARDSON_BUDGET:
            continue
        while lo < hi:  # hi fits and lo, of the same parity, is not known to
            mid = lo + (hi - lo) // 4 * 2
            if _amplification(ratio**mid, levels) <= RICHARDSON_BUDGET:
                hi = mid
            else:
                lo = mid + 2
        best = min(best, hi)
    return best


class _Plan(NamedTuple):
    """How :func:`_sum_counted` sums an integrand of known component count on [0, a]."""

    stride: int
    factors: tuple[float, ...]  # lam^j / (1 - lam^j) of the levels j = 1..L
    amplification: float  # _amplification(lam, L)
    weights: tuple[float, ...]  # |G_b|, b = 1..L: the diagonal's weight on the sum of block b


@functools.lru_cache(maxsize=1024)
def _richardson_plan(ratio: float, levels: int) -> _Plan:
    """The stride, level factors, amplification and block weights of an L-level table; built once per pair.

    The diagonal of the table over S_0, S_m, ..., S_{Lm} is sum_i g_i S_{im},
    where g_i is the z^i coefficient of prod_j (z - lam^j) / (1 - lam^j), so
    the sum of block b, which S_{im} holds for every i >= b, enters it with
    the weight G_b = sum_{i >= b} g_i.
    """
    stride = _stride(ratio, levels)
    lam = power = ratio**stride
    factors, coeffs = [], [1.0]  # coeffs: the product so far, lowest power of z first
    for _ in range(levels):
        factors.append(power / (1.0 - power))
        coeffs = [(high - power * low) / (1.0 - power) for high, low in zip([0.0, *coeffs], [*coeffs, 0.0])]
        power *= lam
    weights = list(itertools.accumulate(reversed(coeffs)))[-2::-1]
    return _Plan(stride, tuple(factors), _amplification(lam, levels), tuple(map(abs, weights)))


def _richardson_row(row: list[float], total: float, factors: Iterable[float]) -> list[float]:
    """The Richardson table's next row, from its last ``row`` and the new checkpoint sum; level j uses factors[j-1]."""
    new_row = [total]
    for factor, old in zip(factors, row):
        cur = new_row[-1]
        new_row.append(cur + (cur - old) * factor)
    return new_row


def _planned_tail(plan: _Plan, reach: list[float], ratio: float, row: list[float], extrapolated: float) -> float:
    """The a priori error bound of a full L-level table's extrapolant; see :func:`_sum_counted`.

    ``reach`` holds sum |t_k| at each of the L checkpoints and ``row`` the
    table's last row; ``extrapolated`` is the extrapolant minus the sum.
    """
    levels = len(plan.weights)
    blocks = before = 0.0
    for weight, here in zip(plan.weights, reach):
        blocks += weight * (plan.stride * here + (4 * levels + 2) * (here - before))
        before = here
    r = abs(ratio)
    scale = 1.0 if ratio > 0 else (1.0 + r) / (1.0 - r)  # how far p and q's rounding moves [n + 1], per unit of n
    lattice = (2.0 * r / (1.0 - r) + 2 * (levels - 1) * scale) * (reach[-1] + abs(extrapolated))
    table = 3 * levels * plan.amplification * max(map(abs, row))
    return _U * (blocks + lattice + table)


class _StreamEnd(Exception):
    """A ready-made term stream read by :func:`_sum_series` ran out."""


def _sum_series(
    terms: Iterable[float], policy: TruncationPolicy, ratio: Optional[float] = None
) -> tuple[float, int, float, str]:
    """Sum a ready-made term stream through :func:`_sum_walk`.

    The stream is read as the integrand of a walk that stays at one point,
    pre = a = w = step = 1.0, so each term is 1.0 * 1.0 * t, which is t bit
    for bit for every float.  A stream that runs out stops the sum as
    ``max_terms`` with the count of terms read.
    """
    stream = iter(terms)

    def read(_x: float) -> float:
        for term in stream:  # a StopIteration from the stream ends this loop, never the summer's
            return term
        raise _StreamEnd

    return _sum_walk(read, 1.0, 1.0, 1.0, 1.0, policy, ratio)


def _sum_walk(
    fn: Callable[[float], float], a: float, pre: float, w: float, step: float,
    policy: TruncationPolicy, ratio: Optional[float],
) -> tuple[float, int, float, str]:
    """Sum the lattice terms pre a w_k fn(a w_k) of a black box, with the weights w_k = w step^k.

    Return (value, terms used, tail estimate, stop reason).  Each term is
    computed in the summing loop itself when the loop reaches it, so no
    lattice point past the stop is evaluated.  An integrand's
    ``StopIteration`` is raised as a ``RuntimeError``, never taken for the
    end of the series.

    The plain rules of the module docstring stop the sum exactly as if
    nothing else ran.  ``ratio`` is the step of the lattice points of a
    lattice series, None for any other series, which is only summed.  With
    r = min(|ratio|, 1/|ratio|) and the stride m = max(2, ceil(1/(2(1-r)))),
    the sum S_N of the first N terms is extrapolated to E_i at checkpoints
    N, after the plain rules saw term N:

    - |ratio| < 1 (towards 0), N = m, 2m, 3m, ...: a polynomial integrand's
      partial sums miss geometric components of the known ratios ratio^{n+1},
      so the checkpoint sums feed a Richardson table, from S_0 = 0, whose
      level j removes lam^j with lam = ratio^m; E_i is its diagonal.
      The stride keeps |lam| near e^{-1/2}, so the levels hardly amplify
      roundoff; level j is built with row j, and none once |lam^j| < u.
    - |ratio| > 1 (towards infinity), N = 2, m+2, 2m+2, ... (a run-up to two
      terms): Aitken's delta-squared on the last two terms, E_i = S_N +
      t_{N-1} kappa / (1 - kappa) with the observed ratio kappa = t_{N-1} /
      t_{N-2}, exact for the single geometric series of x^{-s}.  Comparing
      E_i a stride apart, not a term apart, exposes a slower second
      component that moves E_i too little per term to show above roundoff.

    E_i is accepted only while the terms fall: |t_{N-1}| is below the term
    at the previous checkpoint, and on [a, infinity) |kappa| < 1 - (N+3) u,
    since a ratio within roundoff of 1 extrapolates nothing.  It is also
    accepted only once some checkpoint sum is not exactly 0.0.

    E_i is judged on d_i = |E_i - E_{i-1}| and the roundoff term
    R = (N+3) u ((1 + e) sum_{k<N} |t_k| + 2 |E_i - S_N| / (1 - |kappa|)),
    where kappa is the ratio of the extrapolated tail (lam on [0, a]) and,
    on [a, infinity), e = |ln |kappa| / ln |ratio|| estimates the term's
    exponent in its lattice point (x^{-s} has e = s - 1), which multiplies
    that point's rounding; e = 0 on [0, a].  A black box's table can show
    two agreeing extrapolants, or checkpoint sums that vanish as rationals
    but leave roundoff in floats, before it has a level for each component
    of its integrand.  The bound is d_i if d_i <= R (the extrapolants agree
    to roundoff), otherwise d_i / (1 - d_i / d_{i-1}) if the differences
    contract, the rest of a geometric series of them.  Both need two
    differences d_{i-1}, d_i, but one on [a, infinity) when d_i <= R and
    kappa is the previous checkpoint's to within (N+3) u |kappa|: a steady
    observed ratio is what a single geometric series shows, and Aitken's
    E_i is exact on one from the first, so such a sum stops at N = m + 2.
    E_i is accepted, with stop reason ``accelerated``, when the bound is at
    most ``tail_tol + R``, and the tail estimate is the bound plus R.
    """
    tail_tol, max_terms = policy.tail_tol, policy.max_terms
    known = ratio is not None and abs(ratio) < 1
    checkpoint = 0  # the count of the next checkpoint; no term has count 0
    if ratio is not None:
        r = abs(ratio) if known else 1.0 / abs(ratio)
        stride = max(2, math.ceil(0.5 / (1.0 - r)))
        checkpoint = stride if known else 2
        if known:
            lam = power = ratio**stride
            factors = []  # lam^j / (1 - lam^j) for the levels j >= 1 built so far
            gain = 1.0 / (1.0 - abs(lam))
    row = [0.0]  # the last row of the Richardson table
    total = abs_total = term = 0.0
    run = 1
    small_run = 0
    last_mag = 0.0
    block_mag = math.inf  # |term| at the previous checkpoint
    estimate = math.nan
    diff = math.nan
    kappa = math.nan  # the observed ratio at the last checkpoint, on [a, infinity)
    steady = False  # it equals the one at the checkpoint before, to roundoff
    exponent = 0.0  # |ln |kappa| / ln |ratio|| at the last nonzero kappa, on [a, infinity)
    nonzero = False  # some checkpoint sum so far is not exactly 0.0
    pre *= a
    count = 0
    while count < max_terms:
        end = checkpoint if 0 < checkpoint < max_terms else max_terms
        for count in range(count + 1, end + 1):
            prev_term = term
            try:
                term = pre * w * fn(a * w)
            except _StreamEnd:
                return total, count - 1, last_mag, "max_terms"
            except StopIteration as exc:  # the integrand's, never the end of a series
                raise RuntimeError("integrand raised StopIteration") from exc
            w *= step
            total += term
            mag = abs(term)
            abs_total += mag
            if mag <= tail_tol:
                small_run += 1
                if small_run >= _SMALL_RUN:
                    return total, count, mag, "small_terms"
            else:
                small_run = 0
                if not mag < last_mag and count > 1:  # a NaN magnitude is not falling either
                    run += 1
                    if run >= DIVERGENCE_WINDOW:
                        return total, count, mag, "divergent"
                else:
                    run = 1
                last_mag = mag
        if count != checkpoint:  # the last term
            break
        checkpoint += stride
        falling, block_mag = mag < block_mag, mag
        nonzero = nonzero or total != 0.0
        if known:
            if abs(power) >= _U:  # one level more for the new row, until lam^j is roundoff
                factors.append(power / (1.0 - power))
                power *= lam
            row = _richardson_row(row, total, factors)
            latest = row[-1]
        else:
            last_kappa, kappa = kappa, term / prev_term if prev_term else math.inf
            if not abs(kappa) < 1.0 - (count + 3) * _U:  # a ratio within roundoff of 1 extrapolates nothing
                estimate = diff = math.nan
                continue
            latest = total + term * kappa / (1.0 - kappa)
            gain = 1.0 / (1.0 - abs(kappa))
            steady = abs(kappa - last_kappa) <= (count + 3) * _U * abs(kappa)
            if kappa:  # the term's exponent in its lattice point, which scales that point's rounding
                exponent = abs(math.log(abs(kappa)) / math.log(abs(ratio)))
        prev_diff, diff = diff, abs(latest - estimate)
        estimate = latest
        if not falling or not nonzero:
            continue
        roundoff = (count + 3) * _U * ((1.0 + exponent) * abs_total + 2.0 * gain * abs(latest - total))
        if diff <= roundoff and (steady or not math.isnan(prev_diff)):  # one difference only for one steady ratio
            bound = diff
        elif diff < prev_diff:  # still moving: add the rest of a geometric contraction
            bound = diff / (1.0 - diff / prev_diff)
        else:
            continue
        if bound <= tail_tol + roundoff:
            return latest, count, bound + roundoff, "accelerated"
    return total, count, last_mag, "max_terms"


def _sum_counted(
    fn: Callable[[float], float], a: float, pre: float, w: float, step: float, max_terms: int, components: int
) -> tuple[float, int, float, str]:
    """Sum the lattice terms pre a w_k fn(a w_k) of an integrand with L = ``components`` components.

    Return (value, terms used, tail estimate, stop reason) as :func:`_sum_walk`
    does, but with no rule, gate or tolerance: the count alone sets how many
    terms are summed, and a ``max_terms`` below that returns the partial sum
    as ``max_terms``, with the magnitude of the last term.  Towards infinity
    (|step| > 1) every component of a nonzero polynomial grows, so the sum of
    :data:`DIVERGENCE_WINDOW` terms is returned as ``divergent``, likewise.

    Towards 0 the partial sums S_N of a polynomial of degree L - 1 miss
    exactly L geometric components, of the known ratios step^{n+1}.  So
    S_0 = 0, S_m, ..., S_{Lm}, summed in blocks of m terms, feed a Richardson
    table whose level j removes lam^j, lam = step^m, and its diagonal, the
    limit up to float error, is returned as ``accelerated`` after N = L m
    terms.  The stride m is the shortest m >= 2, never longer than the
    black-box one, for which the table amplifies errors by at most
    Lambda = prod_{j<=L} (1 + 2 |lam^j / (1 - lam^j)|) <= RICHARDSON_BUDGET;
    :func:`_richardson_plan` works it out once per (step, L).  The tail
    estimate is an a priori bound, u = 2^-53 times the sum of three parts
    (:func:`_planned_tail`):

    - the roundoff of each block of m terms, m sum_{k<N} |t_k| for its
      running sums plus (4 L + 2) |t_k| for each term's own roundings
      (coefficients, Horner, lattice point, products), weighted by the
      tail sum G_b of the diagonal's weights on the sums that hold block b;
    - the table's own arithmetic, 3 L Lambda times its largest entry;
    - the float lattice's own error.  The rounding of the step and the
      drift of w *= step, at most u a step each, move the sum as a change
      of the lattice ratio would, by |r| / (1 - |r|) of sum |t_k| each; the
      rounding of p and q moves each [n + 1] by n times it, or by
      n (1 + r) / (1 - r) on a lattice of negative ratio.
    """
    plan = _richardson_plan(step, components) if abs(step) < 1 else None
    if plan and components * plan.stride <= max_terms:  # the full table
        stride, blocks, factors = plan.stride, components, plan.factors
    else:  # a capped sum on [0, a], or one on [a, infinity), which diverges
        stride, blocks, factors = max_terms if plan else min(DIVERGENCE_WINDOW, max_terms), 1, ()
    pre *= a
    total = abs_total = term = 0.0
    row, reach = [0.0], []  # the table's last row, and sum_{k<N} |t_k| at each checkpoint N
    for _ in range(blocks):
        for _ in range(stride):
            term = pre * w * fn(a * w)
            w *= step
            total += term
            abs_total += abs(term)
        row = _richardson_row(row, total, factors)
        reach.append(abs_total)
    if factors:
        return row[-1], blocks * stride, _planned_tail(plan, reach, step, row, row[-1] - total), "accelerated"
    return total, stride, abs(term), "max_terms" if plan or stride < DIVERGENCE_WINDOW else "divergent"


def _lattice_walk(params: PqParams, regime: Regime, to_zero: bool) -> tuple[float, float, float]:
    """(prefactor per unit of a, first weight, step ratio) of one lattice direction."""
    p, q = params.as_floats()
    lt1 = regime is Regime.RATIO_LT_ONE
    num, den = (q, p) if lt1 == to_zero else (p, q)
    return (p - q if lt1 else q - p), 1.0 / den, num / den


def _result(regime: Regime, summed: tuple[float, int, float, str]) -> IntegralResult:
    value, count, tail, reason = summed
    return IntegralResult(value, count, tail, regime, _STOP_STATUS[reason], reason)


def _one_sided(
    f: NumericFn, side: tuple, params: PqParams, regime: Regime, policy: TruncationPolicy, extrapolate: bool = True
) -> tuple[float, int, float, str]:
    """(value, terms used, tail estimate, stop reason) of one side, an (a, to_zero) pair."""
    a, to_zero = side
    if a == 0:
        return 0.0, 0, 0.0, "small_terms"
    pre, w, step = _lattice_walk(params, regime, to_zero)
    if f.components:
        return _sum_counted(f.fn, a, pre, w, step, policy.max_terms, f.components)
    return _sum_walk(f.fn, a, pre, w, step, policy, step if extrapolate else None)


def _two_sided(
    f: NumericFn, params: PqParams, regime: Regime, policy: TruncationPolicy, first: tuple, second: tuple, sign: float
) -> tuple[float, int, float, str]:
    """first + sign * second, each side an (a, to_zero) pair, each summed once.

    The second side is summed first, with extrapolation; the first side is
    extrapolated only if the second converged.  The whole is ``accelerated``
    only when both sides are, and otherwise stops for the worse stop reason.
    """
    y_value, y_terms, y_tail, y_reason = _one_sided(f, second, params, regime, policy)
    converged = _STOP_STATUS[y_reason] is IntegralStatus.CONVERGED
    x_value, x_terms, x_tail, x_reason = _one_sided(f, first, params, regime, policy, extrapolate=converged)
    return x_value + sign * y_value, x_terms + y_terms, x_tail + y_tail, _worst_reason(x_reason, y_reason)


def integral_zero_to(
    f: NumericFn, a: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Truncated series for the integral of f over [0, a], 0 <= a < infinity."""
    regime = _require_lattice(params)
    if not 0 <= a < math.inf:
        raise InvalidIntervalError(f"need a >= 0, got {a}")
    return _result(regime, _one_sided(f, (a, True), params, regime, policy))


def integral_to_infinity(
    f: NumericFn, a: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Truncated series for the integral of f over [a, infinity), 0 < a < infinity."""
    regime = _require_lattice(params)
    if not 0 < a < math.inf:
        raise InvalidIntervalError(f"need a > 0, got {a}")
    return _result(regime, _one_sided(f, (a, False), params, regime, policy))


def integral_improper(
    f: NumericFn, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Bilateral series for the integral of f over [0, infinity).

    The lattice is anchored at 1; each direction is truncated independently
    under the policy and a divergent direction shows up in the combined
    status.
    """
    regime = _require_lattice(params)
    return _result(regime, _two_sided(f, params, regime, policy, (1.0, True), (1.0, False), 1.0))


def integral(
    f: NumericFn, a: float, b: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> IntegralResult:
    """Integral over [a, b], 0 <= a < b <= infinity.

    A finite b takes the [0, b] series, less the [0, a] one when a > 0; b =
    infinity takes the [a, infinity) series, or the bilateral one when a = 0.
    """
    if not 0 <= a < b:
        raise InvalidIntervalError(f"need 0 <= a < b, got a={a}, b={b}")
    if math.isinf(b):
        return integral_to_infinity(f, a, params, policy) if a else integral_improper(f, params, policy)
    if not a:
        return integral_zero_to(f, b, params, policy)
    regime = _require_lattice(params)
    return _result(regime, _two_sided(f, params, regime, policy, (b, True), (a, True), -1.0))


def integral_riemann_stieltjes(
    f: NumericFn,
    g: NumericFn,
    x: float,
    params: PqParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> IntegralResult:
    """The sum for the integral of f against d_{p,q} g, |q/p| < 1 lattice.

    term_k = f(q^k x / p^{k+1}) * (g(q^k x / p^k) - g(q^{k+1} x / p^{k+1})),
    which telescopes to g(x) - g(0+) when f is identically 1.
    """
    regime = _require_lattice(params)
    if regime is not Regime.RATIO_LT_ONE:
        raise WrongRegimeError("the Riemann-Stieltjes form is derived for |q/p| < 1")
    if not 0 < x < math.inf:
        raise InvalidIntervalError(f"need x > 0, got {x}")
    p, q = params.as_floats()
    ratio = q / p
    fn, gn = f.fn, g.fn

    def terms() -> Iterator[float]:
        rk = 1.0
        while True:
            yield fn(x * rk / p) * (gn(x * rk) - gn(x * rk * ratio))
            rk *= ratio

    return _result(regime, _sum_series(terms(), policy, ratio))


def antiderive_poly(f: Polynomial, params: PqParams, constant: object = 0) -> Polynomial:
    """The unique polynomial antiderivative with the given constant term.

    The x^n coefficient moves to x^{n+1} divided by [n+1] = B_{n+1} / S^n
    (``bracket_numerators``); differentiating the result reproduces f exactly.
    """
    ints = params.as_ints()
    out = [rat(constant)]
    for n, (b, c) in enumerate(zip(bracket_numerators(len(f.coeffs), ints)[1:], f.coeffs)):
        if not b:
            raise DegenerateRegimeError(f"[{n + 1}] = 0 at p = -q; coefficient has no preimage")
        out.append(rat_from_ints(c._numerator * ints[2] ** n, c._denominator * b))
    return Polynomial(out)


def integral_exact(f: Polynomial, a: object, b: object, params: PqParams) -> Rat:
    """The exact value F(b) - F(a) of the lattice integral of f over [a, b], F = antiderive_poly(f).

    This is the fundamental theorem of the paper: the [0, x] series of a
    polynomial sums to F(x) - F(0) in either regime, so the result is the
    value the lattice series converges to, for rational 0 <= a < b.
    """
    _require_lattice(params)
    a, b = rat(a), rat(b)
    if not 0 <= a < b:
        raise InvalidIntervalError(f"need 0 <= a < b, got a={a}, b={b}")
    F = antiderive_poly(f, params)
    return eval_poly(F, b) - eval_poly(F, a)


class BoundednessReport(NamedTuple):
    """Heuristic verdict on whether |f(x) x^alpha| stays bounded near 0."""

    bounded: bool
    observed_bound: float


def check_convergence_hypothesis(f: NumericFn, A: float, alpha: float) -> BoundednessReport:
    """Sample |f(x) x^alpha| on the 24-point geometric grid x = A / 2^i.

    Declares "unbounded" when the last 9 values keep growing strictly
    towards x = 0 without stalling.  This is a sampling heuristic, not a
    proof: it looks at those 24 points and nothing else.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"need 0 <= alpha < 1, got {alpha}")
    if not 0 < A < math.inf:
        raise ValueError(f"need 0 < A < inf, got {A}")
    grid = [abs(f(A * 0.5**i)) * (A * 0.5**i) ** alpha for i in range(24)]
    tail = grid[-9:]
    strictly_growing = all(later > earlier for earlier, later in zip(tail, tail[1:]))
    grew_enough = tail[0] == 0.0 or tail[-1] >= 1.5 * tail[0]
    return BoundednessReport(
        bounded=not (strictly_growing and grew_enough),
        observed_bound=max(grid),
    )


def newton_leibniz_check(
    F: NumericFn, a: float, b: float, params: PqParams, policy: TruncationPolicy = DEFAULT_POLICY
) -> GapReport:
    """Integrate the (p,q)-derivative of F over [a, b] and compare to F(b) - F(a).

    The claim behind it needs F continuous at 0 (the caller asserts this);
    b may be math.inf, in which case F must accept infinity.
    """
    integrand = NumericFn(_pq_derivative(F, *params.as_floats()))
    result = integral(integrand, a, b, params, policy)
    rhs = F(b) - F(a)
    return GapReport(lhs=result.value, rhs=rhs, gap=abs(result.value - rhs), status=result.status)


def integrate_by_parts(
    f: NumericFn,
    g: NumericFn,
    a: float,
    b: float,
    params: PqParams,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> GapReport:
    """Check the (p,q)-integration-by-parts identity on [a, b].

    lhs = integral of f(px) Dg(x); rhs = f(b)g(b) - f(a)g(a) minus the
    integral of g(qx) Df(x).  Both integrands sample the derivative
    numerically, so f and g should be ordinarily differentiable near 0.
    """
    p, q = params.as_floats()
    fn, gn, df, dg = f.fn, g.fn, _pq_derivative(f, p, q), _pq_derivative(g, p, q)
    left_int = NumericFn(lambda t: fn(p * t) * dg(t))
    right_int = NumericFn(lambda t: gn(q * t) * df(t))
    left = integral(left_int, a, b, params, policy)
    right = integral(right_int, a, b, params, policy)
    lhs = left.value
    rhs = f(b) * g(b) - f(a) * g(a) - right.value
    status = _STOP_STATUS[_worst_reason(left.stop_reason, right.stop_reason)]
    return GapReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs), status=status)
