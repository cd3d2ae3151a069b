"""The float world's honesty, pinned: how many lattice sums are accurate, covered, and why each stopped.

One seeded pool of integrals with known values, one stratum per (family, q/p), each in both regimes:
``poly-zero`` and ``poly-interval`` are polynomials of degree 0-6 on [0, a] and [a, b], ``zero-run``
has k consecutive roots on the [0, a] lattice, and ``ln-zero`` is ln x on [0, a].  A result is
accurate when its error is at most 1e-9 max(1, |ref|), and covered when it converged with an error
at most its tail.  A change that moves a count updates its row and lists each moved case.
"""

import math
import random
from fractions import Fraction

import pytest

from pqcalc.integration import STOP_REASONS, IntegralStatus, integral, integral_exact
from pqcalc.polynomials import NumericFn, Polynomial
from pqcalc.scalars import PqParams, rat


def pool(family, ratio):
    """(integrand, lower, upper, params, exact value) of the 42 cases of one stratum."""
    rng, r = random.Random(f"{family}:{ratio}"), rat(ratio)
    for lt1 in (True, False):
        for scale in (rat(1), rat(2), rat("3/2")):
            params = PqParams(scale, scale * r) if lt1 else PqParams(scale * r, scale)
            for d in range(7):
                a = rat(rng.choice(("1/2", "1", "3/2", "2", "5/2", "3", "4")))
                # the [0, a] lattice is a w for w = r^k / big, where big = scale in both regimes
                if family == "ln-zero":  # the sum of (big - small) a w ln(a w) is a ln(a / big) + a r ln r / (1 - r)
                    ref = float(a) * math.log(float(a / scale)) + float(a * r / (1 - r)) * math.log1p(float(r - 1))
                    yield NumericFn(math.log), 0, a, params, Fraction(ref)
                    continue
                if family == "zero-run":  # degree d + 1, with roots at the lattice points s..s+k-1
                    k, s = rng.randint(1, d + 1), rng.choice((0, 1, 4))
                    roots = [Polynomial([-a / scale * r**j, 1]) for j in range(s, s + k)]
                    f = math.prod([Polynomial([1, 1])] * (d + 1 - k) + roots)
                else:
                    coeffs = [rat(rng.randint(-9, 9)) / rng.randint(1, 9) for _ in range(d)]
                    f = Polynomial(coeffs + [rat(rng.choice((-1, 1)) * rng.randint(1, 9)) / rng.randint(1, 9)])
                upper = a * rat(rng.choice(("7/4", "7/3", "7/2", "14/5"))) if family == "poly-interval" else a
                lower = a if family == "poly-interval" else 0
                yield NumericFn.from_polynomial(f), lower, upper, params, integral_exact(f, lower, upper, params)


# (family, q/p): accurate, covered, then the count per stop reason in STOP_REASONS order
COUNTS = {
    ("poly-zero", "1/2"): (42, 42, 0, 42, 0, 0),
    ("poly-zero", "9/10"): (42, 42, 0, 42, 0, 0),
    ("poly-zero", "99/100"): (29, 29, 0, 29, 0, 13),
    ("poly-zero", "999/1000"): (30, 30, 0, 30, 0, 12),
    ("poly-interval", "1/2"): (42, 42, 0, 42, 0, 0),
    ("poly-interval", "9/10"): (41, 41, 0, 41, 0, 1),
    ("poly-interval", "99/100"): (29, 29, 0, 29, 0, 13),
    ("poly-interval", "999/1000"): (29, 27, 0, 27, 0, 15),
    ("zero-run", "1/2"): (40, 38, 4, 38, 0, 0),
    ("zero-run", "9/10"): (15, 15, 12, 15, 0, 15),
    ("zero-run", "99/100"): (0, 0, 15, 0, 0, 27),
    ("zero-run", "999/1000"): (0, 0, 14, 0, 0, 28),
    ("ln-zero", "1/2"): (42, 42, 0, 42, 0, 0),
    ("ln-zero", "9/10"): (12, 12, 0, 12, 0, 30),
    ("ln-zero", "99/100"): (5, 0, 5, 0, 0, 37),
    ("ln-zero", "999/1000"): (0, 0, 0, 0, 4, 38),
}


@pytest.mark.parametrize("family, ratio", COUNTS)
def test_counts(family, ratio):
    accurate = covered = 0
    reasons = dict.fromkeys(STOP_REASONS, 0)
    for fn, lower, upper, params, exact in pool(family, ratio):
        result = integral(fn, float(lower), float(upper), params)
        error = abs(Fraction(result.value) - exact) if math.isfinite(result.value) else math.inf
        accurate += error <= 1e-9 * max(1, abs(exact))
        covered += result.status is IntegralStatus.CONVERGED and error <= result.tail_estimate
        reasons[result.stop_reason] += 1
    assert (accurate, covered, *reasons.values()) == COUNTS[family, ratio]
