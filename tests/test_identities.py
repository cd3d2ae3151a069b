"""The identity-suite harness itself: determinism, coverage, failure paths."""

import math
from random import Random

import pytest

from pqcalc import identities, integration
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

    def test_check_result_json_keys_in_order(self):
        result = CheckResult("qbin", 4, 1, ("a note",))
        assert list(result.to_json_dict().items()) == [
            ("label", "qbin"), ("trials", 4), ("failures", 1), ("passed", False), ("notes", ["a note"]),
        ]
        assert CheckResult("qbin", 4, 0).to_json_dict()["notes"] == []

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
            "derule1": 1, "derule2": 3, "derule3": 12, "derule4": 10, "r1": 7, "r2": 6, "r3": 6,
            "bracket-invariants": 4, "monomial-integral": 12,
        }

    def test_doubled_residual_gamma_fails_derule1_and_derule2(self, monkeypatch):
        exact = identities.derive_pq_power

        def doubled(e):
            coeff, residual = exact(e)
            return coeff, residual._replace(gamma=2 * residual.gamma)

        monkeypatch.setattr(identities, "derive_pq_power", doubled)
        results = run_suite(seed=0, trials=20, only=["derule1", "derule2"])
        assert [(r.label, r.trials, r.failures) for r in results] == [("derule1", 20, 20), ("derule2", 20, 20)]

    def test_compensated_k_fold_coefficient_fails_derule4(self, monkeypatch):
        # (2c, gamma/2) at a = 0 leaves c (a (-) gamma x)^1 as a polynomial; only the recursion sees it
        exact = identities.derive_pq_power_iterated

        def compensated(e, k):
            coeff, residual = exact(e, k)
            if e.a == 0 and residual.n == 1:
                return 2 * coeff, residual._replace(gamma=residual.gamma / 2)
            return coeff, residual

        monkeypatch.setattr(identities, "derive_pq_power_iterated", compensated)
        [result] = run_suite(seed=0, trials=20, only=["derule4"])
        assert result.failures > 0

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

    @pytest.mark.parametrize("wrong", ["nan", "four-tails-off"])
    def test_wrong_public_integral_fails_jackson_reduction(self, monkeypatch, wrong):
        exact = identities.integral_zero_to

        def moved(*args):
            result = exact(*args)
            return result._replace(value=math.nan if wrong == "nan" else result.value + 4 * result.tail_estimate)

        monkeypatch.setattr(identities, "integral_zero_to", moved)
        [result] = run_suite(seed=0, trials=1, only=["jackson-reduction"])
        assert (result.trials, result.failures) == (9, 9)

    @pytest.mark.parametrize("slot", [0, 2], ids=["prefactor", "step"])
    def test_lattice_off_by_2_to_the_minus_40_fails_jackson_reduction(self, monkeypatch, slot):
        exact = integration._lattice_walk

        def skewed(*args):
            walk = list(exact(*args))
            walk[slot] *= 1 + 2.0**-40
            return tuple(walk)

        monkeypatch.setattr(integration, "_lattice_walk", skewed)
        [result] = run_suite(seed=0, trials=1, only=["jackson-reduction"])
        assert (result.trials, result.failures) == (9, 9)


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


# (trials, failures, rng.getrandbits(64) after the check) at seeds 0, 1 and 2 and 20 trials, for
# every label that draws exact instances.  A sampler or pole guard that consumes the generator
# differently, or a law that judges a drawn instance differently, changes a row.
DRAW_PINS = {
    "linearity": [(20, 0, 14394480277105496105), (20, 0, 12453611324583975216), (20, 0, 5124809574208080394)],
    "product-rule-1": [(20, 0, 17327453907861302897), (20, 0, 7867891642495318273), (20, 0, 7667258356234943384)],
    "product-rule-2": [(20, 0, 4645864318693888290), (20, 0, 10967378260529670156), (20, 0, 8438119832821246305)],
    "quotient-rule-1": [(20, 0, 8377554381120348476), (20, 0, 1854779936874519910), (20, 0, 970965256308253912)],
    "quotient-rule-2": [(20, 0, 10315667421472592380), (20, 0, 9868074092488747312), (20, 0, 9440972099199124407)],
    "derule1": [(20, 0, 7307817555360879096), (20, 0, 10124814228533394061), (20, 0, 6849864663116144477)],
    "derule2": [(20, 0, 18021738254002064021), (20, 0, 14225103947292609015), (20, 0, 14620240789781458406)],
    "derule3": [(20, 0, 849078203772253539), (20, 0, 6331925505535125674), (20, 0, 5952232369813504335)],
    "der3": [(20, 0, 18328547119442918097), (20, 0, 11481441977692694264), (20, 0, 10317100419562835866)],
    "derule4": [(20, 0, 18372194865241341152), (20, 0, 1918563064496957447), (20, 0, 10969440442045484046)],
    "r1": [(20, 0, 10388898204871131007), (20, 0, 7656780881178429264), (20, 0, 2698449502857534937)],
    "r2": [(20, 0, 8546366505369678786), (20, 0, 856117943852006472), (20, 0, 11275744003159924208)],
    "r3": [(20, 0, 976171537641208530), (20, 0, 8812819423919583539), (20, 0, 1485980742070414478)],
    "expand1": [(20, 0, 11449104450951626996), (20, 0, 6187144555076505941), (20, 0, 7529076004402443582)],
    "negdef": [(20, 0, 5970306165353401530), (20, 0, 6732709889684807494), (20, 0, 771549901542197598)],
    "expand-eval-coherence": [(20, 0, 5399546556380563701), (20, 0, 11207381542112442814), (20, 0, 4880755237311110486)],
    "reversed-basis-distinct": [(1, 0, 17406448032746312055), (1, 0, 6852052435640953046), (1, 0, 9801301066417151555)],
    "bracket-invariants": [(20, 0, 7796564965638605713), (20, 0, 733823327345891051), (20, 0, 16252777680831646059)],
    "taylor-roundtrip": [(20, 0, 12017753674379858232), (20, 0, 12803856801441772383), (20, 0, 2036100695268321183)],
    "taylor-roundtrip-reversed": [(20, 0, 16376755109536843964), (20, 0, 11535338526330340200), (20, 0, 1708505465393456633)],
    "conec1": [(20, 0, 7761345190235641034), (20, 0, 12188751119029036852), (20, 0, 2864698225257554406)],
    "conec2": [(20, 0, 17000509091260278469), (20, 0, 3966070289348611392), (20, 0, 8831710331919570093)],
    "conecc3": [(20, 0, 4243452733001427680), (20, 0, 2048026415175088056), (20, 0, 8522723702378593181)],
    "conecc4": [(20, 0, 17003431461882236038), (20, 0, 674906429915343522), (20, 0, 17749869506235330920)],
    "qbin": [(20, 0, 10034756433123939973), (20, 0, 16027022129103417467), (20, 0, 3314530627941141138)],
    "heine-coefficients": [(12, 0, 9530220780226790188), (12, 0, 10739935256091103103), (12, 0, 3199227633291161649)],
    "antiderivative-roundtrip": [(20, 0, 8598551555418705562), (20, 0, 16012452931967258627), (20, 0, 15397100256627078384)],
    "telescoping-partial-sum": [(20, 0, 14641994576332178149), (20, 0, 5300578289473778735), (20, 0, 16363137175793013235)],
}
# The same at 200 trials for the two laws that redraw a point on PoleError.  At 20 trials der3
# redraws twice over seeds 0-2 and negdef never, so only these longer runs pin the redraw path: a
# der3 that skips its residual at coeff = 0, or a negdef evaluated at x + 1, passes DRAW_PINS.
POLE_GUARD_PINS = {
    "der3": [9868628906429676888, 14517799236484116079, 14509861409047143579],
    "negdef": [16513237307638629481, 13283328690470932625, 4344570207229302671],
}
HEINE_NOTES = tuple(
    f"p={p}, q={q}, n={n}: {verdict}"
    for p, q, verdict in (
        ("1", "1/2", "MATCH"), ("1", "1/3", "MATCH"), ("3/2", "1/2", "MISMATCH"), ("2", "1/3", "MISMATCH")
    )
    for n in (1, 2, 3)
)


class TestDrawPins:
    @pytest.mark.parametrize("label", list(DRAW_PINS))
    def test_results_and_generator_state(self, label):
        notes = HEINE_NOTES if label == "heine-coefficients" else ()
        for seed, (trials, failures, state) in enumerate(DRAW_PINS[label]):
            rng = Random(repr((seed, 0, label)))
            assert CHECKS[label](rng, 20) == CheckResult(label, trials, failures, notes)
            assert rng.getrandbits(64) == state, (label, seed)

    @pytest.mark.parametrize("label", list(POLE_GUARD_PINS))
    def test_pole_redraws_at_more_trials(self, label):
        for seed, state in enumerate(POLE_GUARD_PINS[label]):
            rng = Random(repr((seed, 0, label)))
            assert CHECKS[label](rng, 200) == CheckResult(label, 200, 0)
            assert rng.getrandbits(64) == state, (label, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 17, 2**20 - 1, 2**20 + 1])
    def test_draw_helper_is_randrange(self, n):
        # the samplers draw through _below instead of randint; it must consume the generator alike
        for seed in range(50):
            mine, stdlib = Random(seed), Random(seed)
            assert [identities._below(mine, n) for _ in range(40)] == [stdlib.randrange(n) for _ in range(40)]
            assert mine.getstate() == stdlib.getstate(), (n, seed)
