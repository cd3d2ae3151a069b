"""The identity-suite harness itself: determinism, coverage, failure paths."""

import pytest

from pqcalc.identities import CHECKS, EXACT_LAW_LABELS, CheckResult, run_suite


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
