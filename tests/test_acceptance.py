"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; without ``-s`` pytest still shows the captured output for any
criterion that fails.  Tolerances are stated inline next to each check.
"""

import math

from pqcalc.identities import EXACT_LAW_LABELS, run_suite
from pqcalc.integration import newton_leibniz_check
from pqcalc.polynomials import NumericFn
from pqcalc.scalars import PqParams, rat

SEED = 20260809


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {mark}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def _suite_failures(labels, trials):
    results = run_suite(seed=SEED, trials=trials, only=list(labels))
    return results, [(r.label, r.failures) for r in results if not r.passed]


def test_criterion_01_exact_identity_suite():
    """All 15 derivative/power laws: 500 exact random trials each, zero failures."""
    results, failing = _suite_failures(EXACT_LAW_LABELS, trials=500)
    total = sum(r.trials for r in results)
    _verdict(
        "criterion 1 (exact identity suite)",
        not failing,
        f"{len(results)} laws x 500 trials = {total} exact checks" if not failing else str(failing),
    )


def test_criterion_02_taylor_round_trips():
    """200 random polynomials: both expansions exact, connections exact."""
    labels = (
        "taylor-roundtrip",
        "taylor-roundtrip-reversed",
        "conec1",
        "conec2",
        "conecc3",
        "conecc4",
    )
    results, failing = _suite_failures(labels, trials=200)
    _verdict(
        "criterion 2 (Taylor round trips + connection formulas)",
        not failing,
        "200 exact trials per formula" if not failing else str(failing),
    )


def test_criterion_03_q_binomial_reduction():
    """100 random instances of the p = 1 reduction, exact equality."""
    _, failing = _suite_failures(["qbin"], trials=100)
    _verdict("criterion 3 (q-binomial reduction)", not failing, "100 exact instances")


def test_criterion_04_monomial_integral_law():
    """a^{n+1}/[n+1] within 1e-9 absolute, n <= 6, both regimes, <= 500 terms."""
    results, failing = _suite_failures(["monomial-integral"], trials=1)
    _verdict(
        "criterion 4 (monomial integral law)",
        not failing,
        f"{results[0].trials} grid cases at 1e-9",
    )


def test_criterion_05_fundamental_theorem_polynomials():
    """50 random antiderivatives on three intervals, gap < 1e-8."""
    results, failing = _suite_failures(["fundamental-theorem"], trials=50)
    _verdict(
        "criterion 5 (fundamental theorem, polynomials)",
        not failing,
        f"{results[0].trials} integrals at 1e-8",
    )


def test_criterion_05_fundamental_theorem_ln_case():
    """The stated ln case: F = (p-q)/(ln p - ln q) ln x on [1,2], gap < 1e-7.

    Stated tolerance asserted as written.  The integrand is 1/x, whose
    lattice terms all have magnitude p - q, so the series itself reports
    divergence (criterion 7 demands exactly that); the measured gap is
    what it is.
    """
    params = PqParams(2, rat("1/2"))
    scale = 1.5 / math.log(4.0)  # (p - q)/(ln p - ln q)
    F = NumericFn(lambda x: scale * math.log(x))
    report = newton_leibniz_check(F, 1.0, 2.0, params)
    ok = report.gap < 1e-7
    _verdict(
        "criterion 5 (fundamental theorem, ln case)",
        ok,
        f"gap={report.gap:.6g}, status={report.status.value}",
    )


def test_criterion_06_integration_by_parts():
    """50 random polynomial pairs on (0,1) and (1,2), gap < 1e-8."""
    results, failing = _suite_failures(["integration-by-parts"], trials=50)
    _verdict(
        "criterion 6 (integration by parts)",
        not failing,
        f"{results[0].trials} integrals at 1e-8",
    )


def test_criterion_07_divergence_demonstration():
    """1/x: divergence detected within 64 terms, unbounded at every alpha; 1 and x^-1/4 bounded."""
    results, failing = _suite_failures(["divergence-demo"], trials=1)
    (note,) = results[0].notes
    _verdict(
        "criterion 7 (divergence demonstration)",
        not failing,
        f"{note}; all four alpha grids unbounded" if not failing else str(failing),
    )


def test_criterion_08_jackson_reduction():
    """At p = 1 the public [0, a] integral is converged and within its tail of the 100-term Jackson sum."""
    _, failing = _suite_failures(["jackson-reduction"], trials=1)
    _verdict("criterion 8 (Jackson reduction)", not failing, "9 cases within the tail of the 100-term Jackson sum")


def test_criterion_09_heine_verdict():
    """p = 1 series matches the reciprocal product at 1e-8; p != 1 gets an
    explicit MATCH or MISMATCH verdict against the long-division oracle."""
    series_results, series_failing = _suite_failures(["heine-series"], trials=1)
    coeff_results, coeff_failing = _suite_failures(["heine-coefficients"], trials=1)
    for note in coeff_results[0].notes:
        print(f"[acceptance]   heine oracle verdict: {note}")
    emitted = all("MATCH" in note for note in coeff_results[0].notes)
    _verdict(
        "criterion 9 (Heine verdict)",
        not series_failing and not coeff_failing and emitted,
        "p=1 numeric at 1e-8; explicit per-parameter verdicts above",
    )


def test_criterion_10_improper_consistency():
    """Piecewise witness: improper = zero-to(1) + to-infinity(1), all converged."""
    _, failing = _suite_failures(["improper-split"], trials=1)
    _verdict(
        "criterion 10 (improper-integral consistency)",
        not failing,
        "within 2x tail tolerance, every status converged",
    )
