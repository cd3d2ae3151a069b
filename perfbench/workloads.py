"""The four benchmark workloads.

Each workload builds, from the seed alone, a pool of rounds.  A round holds
one case from every stratum of the workload (one identity label, one
degree and kind, one lattice and integrand kind, one CLI command kind).
What sets an op's cost beyond its stratum (the parameter pair of a Taylor
case; the scale, endpoints, polynomial degree, exponent and term profile of
a lattice case; the label of a CLI identities command) is assigned by
position, not drawn, so every seed's pool has the same cost mix; the seed
draws the order, the coefficients and the remaining values.  References are
computed while the pool is built, before the timed loop.

A workload calls pqcalc only through the public functions collected in its
``api`` namespace, which the traced run swaps for wrapped copies.

Verdicts: ``ok`` is False when an op failed (it raised, an exact result
differs from its reference, a suite label did not pass, a CLI command gave
the wrong exit code or output, a lattice sum that must diverge reported
convergence, or a converged lattice sum is off its reference by more than
1e-9 max(1, |ref|)).  ``accurate`` and ``covered`` feed ``accuracy_ratio`` and
``bound_cover_ratio``; an exact result is accurate and covered exactly when
it equals its reference, since its claimed error bound is zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent


# On a shared 2-vCPU Xeon VM the speed of a fixed job drifts by up to a
# quarter within a minute.  So every timed interval is scaled by a reference
# that does not use pqcalc, timed right next to it: times then read as on a
# machine where the reference takes its nominal time.
REFERENCE_JOB_NOMINAL_S = 0.0006
INTERPRETER_NOMINAL_S = 0.07


def reference_job_s() -> float:
    """Time a fixed stdlib job of Fraction and int arithmetic (about 0.6 ms)."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, i + 3)
    total = 0
    for i in range(3000):
        total += i * i % 7
    return perf_counter() - t0


def child_env() -> dict:
    """The environment for a child Python that must import pqcalc from this checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# every identity label that runs no lattice or float series
EXACT_LABELS = (
    "linearity", "product-rule-1", "product-rule-2", "quotient-rule-1", "quotient-rule-2",
    "derule1", "derule2", "derule3", "der3", "derule4", "r1", "r2", "r3", "expand1", "negdef",
    "expand-eval-coherence", "reversed-basis-distinct", "bracket-invariants",
    "taylor-roundtrip", "taylor-roundtrip-reversed", "conec1", "conec2", "conecc3", "conecc4",
    "qbin", "heine-coefficients", "antiderivative-roundtrip",
)


class Verdict(NamedTuple):
    ok: bool
    accurate: Optional[bool] = None
    covered: Optional[bool] = None


def _exact(ok: bool) -> Verdict:
    return Verdict(ok, ok, ok)


class Workload:
    name = ""
    pool_rounds = 4
    trace_rounds = 1
    reference_nominal_s = REFERENCE_JOB_NOMINAL_S

    def reference_s(self) -> float:
        """Time the speed reference that sits next to each timed op."""
        return reference_job_s()

    def run(self, case):
        """The timed op of an end-to-end run."""
        raise NotImplementedError

    def run_in_process(self, case):
        """The op as the traced run times it; differs only for cli-cold."""
        return self.run(case)

    def check(self, case, result) -> Verdict:
        raise NotImplementedError

    def counts(self, case, result) -> dict[str, int]:
        """Counts the program itself reports in ``result``."""
        return {}

    def label(self, case) -> Optional[str]:
        """The identity label the op runs, if it runs exactly one."""
        return None


# ------------------------------------------------------------------ suite-exact

SUITE_TRIALS = 20


class SuiteExact(Workload):
    """One ``run_suite`` call per op, for a single exact-world label."""

    name = "suite-exact"
    pool_rounds = 6
    trace_rounds = 2

    def __init__(self, pq, seed: int) -> None:
        missing = [label for label in EXACT_LABELS if label not in pq.identities.CHECKS]
        if missing:
            raise LookupError(f"identity labels not found: {', '.join(missing)}")
        self.api = SimpleNamespace(run_suite=pq.identities.run_suite)
        rng = Random(f"{self.name}:{seed}")
        self.rounds = [
            [(label, rng.randrange(1 << 31)) for label in rng.sample(EXACT_LABELS, len(EXACT_LABELS))]
            for _ in range(self.pool_rounds)
        ]

    def run(self, case):
        label, suite_seed = case
        return self.api.run_suite(suite_seed, SUITE_TRIALS, only=[label])

    def check(self, case, result) -> Verdict:
        (only,) = result
        return _exact(only.label == case[0] and only.passed and only.trials > 0)

    def counts(self, case, result) -> dict[str, int]:
        (only,) = result
        return {"identities.trials": only.trials, f"identities.{only.label}.trials": only.trials}

    def label(self, case) -> Optional[str]:
        return case[0]


# --------------------------------------------------------------- taylor-highdeg

_TAYLOR_PARAMS = ("1/3", "-1/3", "1/2", "-1/2", "2", "3", "5/2")
_TAYLOR_KINDS = ("taylor-fwd", "taylor-rev", "connect-fwd", "connect-rev")
_TAYLOR_DEGREES = range(10, 17)


def _two_digit(rng: Random, rat):
    """A rational of about two digits over two digits, never zero."""
    return rat(rng.choice((-1, 1)) * rng.randint(10, 99)) / rng.randint(10, 99)


def _params(pq, rng: Random, pool) -> object:
    while True:
        p, q = (pq.scalars.rat(v) for v in rng.sample(pool, 2))
        if p != -q:
            return pq.scalars.PqParams(p, q)


class TaylorHighDeg(Workload):
    """High-degree expansions and connection formulas on large exact operands."""

    name = "taylor-highdeg"

    def __init__(self, pq, seed: int) -> None:
        self.api = SimpleNamespace(
            taylor_expand=pq.taylor.taylor_expand,
            taylor_expand_reversed=pq.taylor.taylor_expand_reversed,
            connect_power_to_power=pq.taylor.connect_power_to_power,
        )
        rat, orientation = pq.scalars.rat, pq.pqpower.Orientation
        rng = Random(f"{self.name}:{seed}")
        pairs = [
            pq.scalars.PqParams(p, q)
            for p, q in ((rat(p), rat(q)) for p in _TAYLOR_PARAMS for q in _TAYLOR_PARAMS)
            if p != q and p != -q
        ]
        strata = [(kind, n) for kind in _TAYLOR_KINDS for n in _TAYLOR_DEGREES]
        self.rounds = []
        for k in range(self.pool_rounds):
            cases = []
            for s in rng.sample(range(len(strata)), len(strata)):
                kind, n = strata[s]
                params = pairs[(k * len(strata) + s) % len(pairs)]
                a = _two_digit(rng, rat)
                if kind.startswith("taylor"):
                    f = pq.polynomials.Polynomial([_two_digit(rng, rat) for _ in range(n + 1)])
                    cases.append((kind, params, a, f))
                else:
                    orient = orientation.X_MINUS_A if kind == "connect-fwd" else orientation.A_MINUS_X
                    b = _two_digit(rng, rat)
                    cases.append((kind, params, a, (b, n, orient, self._connect_ref(pq, b, a, n, params, orient))))
            self.rounds.append(cases)

    @staticmethod
    def _connect_ref(pq, b, a, n, params, orient) -> tuple:
        """Connection coefficients by another route: expand the power, then Taylor-expand it."""
        power = pq.pqpower.expand_expr(pq.pqpower.PqPowerExpr(b, n, params, orientation=orient))
        expand = (pq.taylor.taylor_expand if orient is pq.pqpower.Orientation.X_MINUS_A
                  else pq.taylor.taylor_expand_reversed)
        return expand(power, a, params).coeffs

    def run(self, case):
        kind, params, a, payload = case
        if kind == "taylor-fwd":
            return self.api.taylor_expand(payload, a, params).to_polynomial(params)
        if kind == "taylor-rev":
            return self.api.taylor_expand_reversed(payload, a, params).to_polynomial(params)
        b, n, orient, _ = payload
        return self.api.connect_power_to_power(b, a, n, params, orient)

    def check(self, case, result) -> Verdict:
        kind, _, _, payload = case
        if kind.startswith("taylor"):
            return _exact(result == payload)
        coeffs = list(result)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return _exact(tuple(coeffs) == payload[3])


# ----------------------------------------------------------------- lattice-grid


def _integral_counts(terms: int, converged: bool) -> dict[str, int]:
    return {"integration.terms": terms, "integration.integrals": 1, "integration.converged": int(converged)}


LATTICE_RATIOS = (("1/2", "r1_2"), ("9/10", "r9_10"), ("99/100", "r99_100"), ("999/1000", "r999_1000"))
_LATTICE_SCALES = ("1", "2", "3/2", "1/3")
_LATTICE_KINDS = (
    "poly-zero", "poly-interval", "pow-inf:3/2", "pow-inf:2", "pow-inf:3", "ln-zero",
    "recip-interval", "pow-improper",
)
# b/a for the 1/x intervals: a factor 7 keeps b off the lattice of a for every ratio above
_MISALIGNED = ("7/4", "7/3", "7/2", "14/5")
_LATTICE_ENDPOINTS = ("1/2", "1", "3/2", "2", "5/2", "3", "4")
REL_TOL = 1e-9


class LatticeCase(NamedTuple):
    kind: str
    ratio_tag: str
    params: object
    fn: object
    a: float
    b: float
    ref: Optional[float]  # None: the lattice sum must not converge


def _lattice_sum_power(pre, w0, ratio, s: float) -> float:
    """Sum over k of pre * (w0 ratio^k)^s, for a convergent geometric lattice."""
    return float(pre) * float(w0) ** s / -math.expm1(s * math.log(float(ratio)))


def _lattice_poly(pq, rng: Random, degree: int, upper: float, monotone: bool):
    """A random polynomial f of the given degree, with |x f(x)| monotone on (0, upper] or not.

    On a slow lattice a sum whose terms rise for a while is stopped early as
    divergent, so whether |x f(x)| is monotone sets an op's cost.  Drawing
    each kind in a fixed share keeps the cost mix the same for every seed.
    """
    rat = pq.scalars.rat
    grid = [upper * i / 64 for i in range(1, 65)]
    while True:
        f = pq.polynomials.Polynomial(
            [rat(rng.randint(-9, 9)) / rng.randint(1, 9) for _ in range(degree)]
            + [rat(rng.choice((-1, 1)) * rng.randint(1, 9)) / rng.randint(1, 9)]
        )
        values = [abs(x * pq.polynomials.eval_poly(f, x)) for x in grid]
        if all(u <= v for u, v in zip(values, values[1:])) == monotone:
            return f


class LatticeGrid(Workload):
    """Lattice-series integrals over four lattice ratios in both regimes."""

    name = "lattice-grid"
    pool_rounds = 16  # enough converged sums that bound_cover_ratio is steady

    def __init__(self, pq, seed: int) -> None:
        integration = pq.integration
        self.api = SimpleNamespace(
            integral_zero_to=integration.integral_zero_to,
            integral=integration.integral,
            integral_to_infinity=integration.integral_to_infinity,
            integral_improper=integration.integral_improper,
        )
        self._converged = integration.IntegralStatus.CONVERGED
        self._pq = pq
        rng = Random(f"{self.name}:{seed}")
        strata = [
            (ratio, tag, lt1, kind)
            for ratio, tag in LATTICE_RATIOS for lt1 in (True, False) for kind in _LATTICE_KINDS
        ]
        self.rounds = [
            [self._case(rng, k + s, *strata[s]) for s in rng.sample(range(len(strata)), len(strata))]
            for k in range(self.pool_rounds)
        ]

    def _case(self, rng: Random, slot: int, ratio_text: str, tag: str, lt1: bool, kind: str) -> LatticeCase:
        pq = self._pq
        rat = pq.scalars.rat
        numeric_fn = pq.polynomials.NumericFn
        scale, ratio = rat(_LATTICE_SCALES[slot % len(_LATTICE_SCALES)]), rat(ratio_text)
        p, q = (scale, scale * ratio) if lt1 else (scale * ratio, scale)
        params = pq.scalars.PqParams(p, q)
        # the lattice of the [0, b] series walks by `down` towards 0; the [a, inf) one by 1/down
        big, small = (p, q) if lt1 else (q, p)
        down = small / big
        a = rat(_LATTICE_ENDPOINTS[slot // 2 % len(_LATTICE_ENDPOINTS)])
        stretch = rat(_MISALIGNED[slot // 3 % len(_MISALIGNED)])
        if kind.startswith("poly"):
            lower = 0 if kind == "poly-zero" else a
            upper = a if kind == "poly-zero" else a * stretch
            f = _lattice_poly(pq, rng, slot % 7, float(upper), monotone=slot % 7 == 0 or slot // 7 % 2 == 0)
            antideriv = pq.integration.antiderive_poly(f, params)
            ref = float(pq.polynomials.eval_poly(antideriv, upper) - pq.polynomials.eval_poly(antideriv, lower))
            return LatticeCase(kind, tag, params, numeric_fn.from_polynomial(f), float(lower), float(upper), ref)
        if kind.startswith("pow-inf"):
            rf = float(rat(kind.partition(":")[2]))
            # terms (big-small) a w_k (a w_k)^-r with w_k = (1/small) / down^k
            ref = _lattice_sum_power(float(big - small) * float(a) ** (1 - rf), 1 / small, 1 / down, 1 - rf)
            return LatticeCase(kind, tag, params, numeric_fn(lambda x, r=rf: x ** -r), float(a), math.inf, ref)
        if kind == "ln-zero":
            # terms (big-small) a w_k ln(a w_k) with w_k = down^k / big
            w0, rho = 1 / big, down
            pre = float((big - small) * a * w0)
            one_minus = float(1 - rho)
            ref = pre * (math.log(float(a * w0)) / one_minus
                         + math.log1p(-one_minus) * float(rho) / one_minus ** 2)
            return LatticeCase(kind, tag, params, numeric_fn(math.log), 0.0, float(a), ref)
        if kind == "recip-interval":
            return LatticeCase(kind, tag, params, numeric_fn(lambda x: 1.0 / x), float(a), float(a * stretch), None)
        rf = float(rat(("3/2", "2", "3")[slot % 3]))
        return LatticeCase(kind, tag, params, numeric_fn(lambda x, r=rf: x ** -r), 0.0, math.inf, None)

    def run(self, case: LatticeCase):
        if case.kind == "pow-improper":
            return self.api.integral_improper(case.fn, case.params)
        if math.isinf(case.b):
            return self.api.integral_to_infinity(case.fn, case.a, case.params)
        if case.a == 0.0:
            return self.api.integral_zero_to(case.fn, case.b, case.params)
        return self.api.integral(case.fn, case.a, case.b, case.params)

    def check(self, case: LatticeCase, result) -> Verdict:
        converged = result.status is self._converged
        if case.ref is None:
            return Verdict(not converged)
        value = result.value
        error = abs(value - case.ref) if isinstance(value, float) and math.isfinite(value) else math.inf
        accurate = error <= REL_TOL * max(1.0, abs(case.ref))
        covered = (result.tail_estimate >= error) if converged else None
        return Verdict(accurate or not converged, accurate, covered)

    def counts(self, case: LatticeCase, result) -> dict[str, int]:
        return {
            **_integral_counts(result.terms_used, result.status is self._converged),
            f"integration.terms.{case.ratio_tag}": result.terms_used,
            f"integration.integrals.{case.ratio_tag}": 1,
        }


# --------------------------------------------------------------------- cli-cold

_CLI_PARAMS = ("1", "2", "1/2", "3", "-1/2", "2/3")
_CLI_POSITIVE = ("1", "2", "1/2", "3", "2/3")
_CLI_KINDS = (
    "bracket-int", "bracket-real", "derive-poly", "derive-pow", "taylor", "taylor-rev",
    "integrate-poly", "integrate-tail", "integrate-recip", "identities",
)
CLI_TIMEOUT_S = 60
CLI_SUITE_TRIALS = 3


class CliCase(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    stdout: str  # expected; compared as JSON when the command has --json
    is_json: bool


class CliCold(Workload):
    """One fresh ``python -m pqcalc.cli`` process per op."""

    name = "cli-cold"
    reference_nominal_s = INTERPRETER_NOMINAL_S

    def __init__(self, pq, seed: int) -> None:
        self._pq = pq
        self.api = SimpleNamespace(main=pq.cli.main)
        self._env = None
        checks = pq.identities.CHECKS
        # labels that --only selects alone (no other label extends them with "-...")
        self._labels = [
            label for label in EXACT_LABELS
            if not any(other.startswith(label + "-") for other in checks)
        ]
        rng = Random(f"{self.name}:{seed}")
        self.rounds = []
        for k in range(self.pool_rounds):
            kinds = list(_CLI_KINDS)
            rng.shuffle(kinds)
            self.rounds.append([self._case(rng, k, kind) for kind in kinds])

    def _case(self, rng: Random, slot: int, kind: str) -> CliCase:
        pq = self._pq
        rat, rat_str = pq.scalars.rat, pq.scalars.rat_str
        if kind.startswith("integrate"):  # fast lattices: a cold op should be dominated by start-up
            params = pq.scalars.PqParams(rat(1), rat(rng.choice(("1/2", "1/3"))))
        else:  # real exponents need p, q > 0
            params = _params(pq, rng, _CLI_POSITIVE if kind == "bracket-real" else _CLI_PARAMS)
        pargs = (f"--p={rat_str(params.p)}", f"--q={rat_str(params.q)}")

        def poly_text(lo: int, hi: int) -> str:
            coeffs = [rat(rng.randint(-9, 9)) / rng.randint(1, 5) for _ in range(rng.randint(lo, hi))]
            return ",".join(rat_str(c) for c in coeffs + [rat(rng.randint(1, 9))])

        if kind == "bracket-int":
            n = rng.randint(0, 12)
            return CliCase(kind, ("bracket", *pargs, "--", str(n)), rat_str(pq.scalars.bracket(n, params)), False)
        if kind == "bracket-real":
            alpha = f"{rng.randint(0, 9)}.{rng.randint(1, 9)}"
            value = pq.scalars.bracket_alpha(float(alpha), params).value
            return CliCase(kind, ("bracket", *pargs, "--", alpha), repr(value), False)
        if kind == "derive-poly":
            text, k = poly_text(2, 6), rng.randint(1, 3)
            poly = pq.polynomials.pq_derive_poly_k(pq.polynomials.Polynomial.from_string(text), k, params)
            return CliCase(kind, ("derive", f"--k={k}", *pargs, "--", text), poly.to_string(), False)
        if kind == "derive-pow":
            n = rng.randint(2, 6)
            k = rng.randint(1, n)
            text = f"pqpow(a={rat_str(rat(rng.randint(-9, 9)) / rng.randint(1, 5))}, n={n})"
            coeff, residual = pq.pqpower.derive_pq_power_iterated(pq.pqpower.parse_power_expr(text, params), k)
            expected = f"{rat_str(coeff)} * {pq.pqpower.format_power_expr(residual)}"
            return CliCase(kind, ("derive", f"--k={k}", *pargs, "--", text), expected, False)
        if kind in ("taylor", "taylor-rev"):
            text = poly_text(3, 6)
            a = rat(rng.randint(-9, 9)) / rng.randint(1, 5)
            f = pq.polynomials.Polynomial.from_string(text)
            expand = pq.taylor.taylor_expand_reversed if kind == "taylor-rev" else pq.taylor.taylor_expand
            expansion = expand(f, a, params)
            payload = expansion.to_json_dict()
            payload["exact"] = expansion.to_polynomial(params) == f
            flags = ("--reversed",) if kind == "taylor-rev" else ()
            return CliCase(kind, ("taylor", *flags, *pargs, "--json", "--", text, rat_str(a)), json.dumps(payload), True)
        if kind.startswith("integrate"):
            a = rat(rng.randint(1, 20)) / 10
            integration, numeric_fn = pq.integration, pq.polynomials.NumericFn
            if kind == "integrate-poly":
                text = poly_text(0, 4)
                b = a * rat(rng.choice(_MISALIGNED))
                fn = numeric_fn.from_polynomial(pq.polynomials.Polynomial.from_string(text))
                result = integration.integral(fn, float(a), float(b), params)
                argv = ("integrate", *pargs, "--json", "--", f"poly:{text}", rat_str(a), rat_str(b))
            elif kind == "integrate-tail":
                r = rng.choice(("3/2", "2", "3"))
                rf = float(rat(r))
                result = integration.integral_to_infinity(numeric_fn(lambda x: x ** -rf), float(a), params)
                argv = ("integrate", "--to-inf", *pargs, "--json", "--", f"powneg:{r}", rat_str(a))
            else:
                b = a * rat(rng.choice(_MISALIGNED))
                result = integration.integral(numeric_fn(lambda x: 1.0 / x), float(a), float(b), params)
                argv = ("integrate", *pargs, "--json", "--", "recip", rat_str(a), rat_str(b))
            return CliCase(kind, argv, json.dumps(result.to_json_dict()), True)
        # the label sets the cost, so it is assigned by position
        label = self._labels[slot * 7 % len(self._labels)]
        suite_seed, trials = rng.randrange(1000), CLI_SUITE_TRIALS
        results = pq.identities.run_suite(suite_seed, trials, only=[label])
        payload = {
            "seed": suite_seed,
            "trials": trials,
            "passed": all(r.passed for r in results),
            "results": [
                {"label": r.label, "trials": r.trials, "failures": r.failures,
                 "passed": r.passed, "notes": list(r.notes)}
                for r in results
            ],
        }
        argv = ("identities", f"--only={label}", f"--seed={suite_seed}", f"--trials={trials}", "--json")
        return CliCase(kind, argv, json.dumps(payload), True)

    def _child(self, *args: str) -> subprocess.CompletedProcess:
        if self._env is None:
            self._env = child_env()
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT, env=self._env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def reference_s(self) -> float:
        """A child op is scaled by the start-up of a bare interpreter, timed next to it."""
        t0 = perf_counter()
        self._child("-c", "pass").check_returncode()
        return perf_counter() - t0

    def run(self, case: CliCase):
        done = self._child("-m", "pqcalc.cli", *case.argv)
        return done.returncode, done.stdout

    def run_in_process(self, case: CliCase):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.api.main(list(case.argv))
            except SystemExit as exit_:  # argparse rejected the command line
                code = exit_.code
        return code, out.getvalue()

    def check(self, case: CliCase, result) -> Verdict:
        code, stdout = result
        if case.is_json:
            try:
                same = json.loads(stdout) == json.loads(case.stdout)
            except json.JSONDecodeError:
                same = False
        else:
            same = stdout == case.stdout + "\n"
        return _exact(code == 0 and same)

    def counts(self, case: CliCase, result) -> dict[str, int]:
        code, stdout = result
        if not case.is_json or case.kind in ("taylor", "taylor-rev"):
            return {}
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return {}
        if case.kind == "identities":
            return {"identities.trials": sum(r["trials"] for r in payload["results"])}
        return _integral_counts(payload["terms"], payload["status"] == "converged")


WORKLOADS = {cls.name: cls for cls in (SuiteExact, TaylorHighDeg, LatticeGrid, CliCold)}
