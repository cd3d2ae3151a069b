"""The identity-suite harness itself: determinism, coverage, failure paths."""

import pytest

from pqcalc import identities
from pqcalc.identities import CHECKS, EXACT_LAW_LABELS, CheckResult, run_suite
from pqcalc.integration import GapReport, IntegralResult, IntegralStatus
from pqcalc.scalars import Regime

LABELS = (
    "linearity", "product-rule-1", "product-rule-2", "quotient-rule-1", "quotient-rule-2",
    "derule1", "derule2", "derule3", "der3", "derule4", "r1", "r2", "r3", "expand1", "negdef",
    "expand-eval-coherence", "reversed-basis-distinct", "bracket-invariants", "taylor-roundtrip",
    "taylor-roundtrip-reversed", "conec1", "conec2", "conecc3", "conecc4", "qbin",
    "heine-coefficients", "heine-series", "antiderivative-roundtrip", "telescoping-partial-sum",
    "monomial-integral", "jackson-reduction", "regime-symmetry", "fundamental-theorem",
    "integration-by-parts", "divergence-demo", "improper-split", "riemann-stieltjes",
)
# cases of the fixed grids, which ignore trials, and cases per draw of the multi-case laws
GRID_CASES = {
    "reversed-basis-distinct": 1, "heine-coefficients": 12, "heine-series": 12,
    "monomial-integral": 84, "jackson-reduction": 9, "divergence-demo": 7, "improper-split": 6,
}
CASES_PER_DRAW = {"fundamental-theorem": 3, "integration-by-parts": 2}


class TestSuiteHarness:
    def test_all_labels_pass_at_small_trials(self):
        results = run_suite(seed=0, trials=10)
        assert len(results) == len(CHECKS)
        failing = [r.label for r in results if not r.passed]
        assert failing == []

    def test_deterministic_under_seed(self):
        first = run_suite(seed=123, trials=5, only=["derule3", "qbin"])
        second = run_suite(seed=123, trials=5, only=["derule3", "qbin"])
        assert [(r.label, r.trials, r.failures) for r in first] == [
            (r.label, r.trials, r.failures) for r in second
        ]

    def test_only_selects_subset(self):
        results = run_suite(seed=0, trials=5, only=["linearity"])
        assert [r.label for r in results] == ["linearity"]

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            run_suite(seed=0, trials=5, only=["bogus-label"])

    def test_forced_failure_is_reported(self):
        results = run_suite(seed=0, trials=3, only=["linearity"], include_forced_failure=True)
        assert [r.label for r in results] == ["linearity", "self-test-forced-failure"]
        assert results[0].passed
        assert not results[1].passed
        assert results[1].failures == 3

    def test_exact_law_labels_are_registered(self):
        assert set(EXACT_LAW_LABELS) <= set(CHECKS)
        assert len(EXACT_LAW_LABELS) == 15

    def test_heine_check_reports_verdicts(self):
        (result,) = run_suite(seed=0, trials=1, only=["heine-coefficients"])
        assert result.passed
        assert any("MATCH" in note for note in result.notes)
        # the p != 1 claim fails its oracle and the suite says so explicitly
        assert any("MISMATCH" in note for note in result.notes)
        assert not any(note.startswith("p=1,") and "MISMATCH" in note for note in result.notes)


class TestCountingRules:
    @pytest.mark.parametrize("trials", [1, 2])
    def test_cases_per_label(self, trials):
        expected = [
            (label, GRID_CASES.get(label, trials * CASES_PER_DRAW.get(label, 1)), 0)
            for label in LABELS
        ]
        assert [(r.label, r.trials, r.failures) for r in run_suite(seed=0, trials=trials)] == expected

    def test_draws_after_a_failure_are_unchanged(self, monkeypatch):
        # one wrong kernel value: each count pins what every later trial drew after a failure
        exact = identities.bracket
        monkeypatch.setattr(identities, "bracket", lambda n, params: exact(n, params) + (1 if n == 3 else 0))
        results = run_suite(seed=1, trials=20)
        assert {r.label: r.failures for r in results if r.failures} == {
            "derule1": 1, "derule2": 3, "derule3": 12, "r1": 7, "r2": 6, "r3": 6, "bracket-invariants": 4,
            "monomial-integral": 12,
        }

    def test_nan_outcome_is_a_failure(self, monkeypatch):
        nan = float("nan")
        report = GapReport(nan, nan, nan, IntegralStatus.CONVERGED)
        monkeypatch.setattr(identities, "newton_leibniz_check", lambda *args: report)
        monkeypatch.setattr(identities, "integrate_by_parts", lambda *args: report)
        monkeypatch.setattr(identities, "heine_series_eval", lambda *args: nan)
        labels = ["fundamental-theorem", "integration-by-parts", "heine-series"]
        results = run_suite(seed=0, trials=2, only=labels)
        assert [(r.label, r.trials, r.failures) for r in results] == [
            ("fundamental-theorem", 6, 6), ("integration-by-parts", 4, 4), ("heine-series", 12, 12),
        ]

    def test_nan_plain_integral_fails_riemann_stieltjes(self, monkeypatch):
        nan = IntegralResult(float("nan"), 1, 0.0, Regime.RATIO_LT_ONE, IntegralStatus.CONVERGED, "small_terms")
        monkeypatch.setattr(identities, "integral_zero_to", lambda *args: nan)
        [result] = run_suite(seed=0, trials=10, only=["riemann-stieltjes"])
        assert (result.trials, result.failures) == (10, 10)


class TestReplayAlone:
    """A label draws the same instances in any selection, so a failure replays alone."""

    def test_full_run_matches_each_label_alone(self):
        full = run_suite(seed=3, trials=4)
        for result in full:
            assert run_suite(seed=3, trials=4, only=[result.label]) == [result]

    def test_generator_depends_on_seed_and_label_only(self, monkeypatch):
        # every check reports the first number its generator draws
        def first_draw(label):
            return lambda rng, trials: CheckResult(label, trials, 0, (repr(rng.random()),))

        for label in CHECKS:
            monkeypatch.setitem(CHECKS, label, first_draw(label))
        full = {r.label: r for r in run_suite(seed=5, trials=1)}
        for label in CHECKS:
            assert run_suite(seed=5, trials=1, only=[label]) == [full[label]]
        pair = run_suite(seed=5, trials=1, only=["qbin", "der3"])
        assert run_suite(seed=5, trials=1, only=["der3", "qbin"]) == pair[::-1]
        assert pair == [full["qbin"], full["der3"]]
        assert run_suite(seed=6, trials=1, only=["qbin"]) != [full["qbin"]]
