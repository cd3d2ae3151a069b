"""Run one pqcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite-exact --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; pqcalc is imported from the checkout's
``src/``.  The run is one closed loop with one client in this process: the
next op starts when the previous one has returned.  With ``--trace 0`` it
prints every end-to-end metric; with ``--trace 1`` it runs the workload's
first rounds alternately untraced and traced and prints the per-layer
metrics.  Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from spans import LAYERS, Tracer  # noqa: E402  (HERE is sys.path[0] when run as a script)
from workloads import (  # noqa: E402
    EXACT_LABELS, LATTICE_RATIOS, REFERENCE_JOB_NOMINAL_S, WORKLOADS, child_env, reference_job_s,
)

SETUP_REPEATS = 5
MIN_PASSES = 3  # each case's time is its median over at least this many passes
LOOP_CAP_S = 140.0  # stop early rather than overrun the 180 s a run may take
CHILD_SAMPLES = 9


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_pqcalc() -> SimpleNamespace:
    """Import pqcalc afresh from this checkout's src/ and return its layer modules."""
    if not (SRC / "pqcalc" / "__init__.py").is_file():
        raise BenchError(f"no pqcalc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pqcalc" or n.startswith("pqcalc.")]:
        del sys.modules[name]
    package = importlib.import_module("pqcalc")
    if Path(package.__file__).resolve().parent != (SRC / "pqcalc").resolve():
        raise BenchError(f"pqcalc was imported from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"pqcalc.{layer}") for layer in LAYERS}
    return SimpleNamespace(errors=importlib.import_module("pqcalc.errors"), **modules)


def setup(name: str, seed: int) -> tuple[object, SimpleNamespace, list[float]]:
    """Import pqcalc and build the workload's inputs, several times; keep the last.

    Returns the set-up times scaled by the reference job timed around each.
    """
    times = []
    ref_before = reference_job_s()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pq = import_pqcalc()
        workload = WORKLOADS[name](pq, seed)
        elapsed = perf_counter() - t0
        ref_after = reference_job_s()
        times.append(elapsed * 2 * REFERENCE_JOB_NOMINAL_S / (ref_before + ref_after))
        ref_before = ref_after
    return workload, pq, times


def run_op(workload, case, in_process: bool = False):
    """Time one op; returns (seconds, result, verdict or None when it raised or misbehaved)."""
    t0 = perf_counter()
    try:
        result = workload.run_in_process(case) if in_process else workload.run(case)
    except Exception:
        elapsed = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, None
    elapsed = perf_counter() - t0
    try:
        return elapsed, result, workload.check(case, result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return elapsed, result, None


def add_counts(total: dict[str, int], counts: dict[str, int]) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


class Tally:
    """Verdicts of the ops a run checked."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.accurate = [0, 0]  # [hits, samples]
        self.covered = [0, 0]

    def add(self, verdict) -> None:
        self.attempted += 1
        if verdict is None or not verdict.ok:
            self.failed += 1
        for slot, value in ((self.accurate, None if verdict is None else verdict.accurate),
                            (self.covered, None if verdict is None else verdict.covered)):
            if value is not None:
                slot[0] += int(value)
                slot[1] += 1


def ratio(hits_samples: list[int]) -> float:
    hits, samples = hits_samples
    return hits / samples if samples else 0.0


# ------------------------------------------------------------------ end to end


def end_to_end(workload, seconds: float, setup_times: list[float]):
    """Cycle through the pool in whole passes; time each case by its median pass.

    Each op time is scaled by the workload's speed reference, timed just
    before and just after the op.
    """
    ops = [case for round_ in workload.rounds for case in round_]
    round_len = len(workload.rounds[0])
    tally, round0_counts = Tally(), {}
    samples: list[list[float]] = [[] for _ in ops]
    raw_s = ref_s = 0.0
    start = perf_counter()
    passes = 0
    ref_before = workload.reference_s()
    while True:
        for k, case in enumerate(ops):
            elapsed, result, verdict = run_op(workload, case)
            ref_after = workload.reference_s()
            samples[k].append(elapsed * 2 * workload.reference_nominal_s / (ref_before + ref_after))
            raw_s += elapsed
            ref_s += ref_after
            ref_before = ref_after
            tally.add(verdict)
            if passes == 0 and k < round_len and verdict is not None:
                add_counts(round0_counts, workload.counts(case, result))
        passes += 1
        wall = perf_counter() - start
        if wall >= LOOP_CAP_S or (wall >= seconds and passes >= MIN_PASSES):
            break
    best = [statistics.median(times) for times in samples]
    n = len(best)
    print(f"speed reference: mean {ref_s / tally.attempted * 1e3:.4g} ms, nominal "
          f"{workload.reference_nominal_s * 1e3:.4g} ms; unscaled mean op {raw_s / tally.attempted * 1e3:.4g} ms; "
          f"{passes} passes")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (n / sum(best), "1/s", n),
        "op_ms_p50": (statistics.median(best) * 1e3, "ms", n),
        "op_ms_p90": (statistics.quantiles(best, n=10)[8] * 1e3, "ms", n),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio", tally.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "accuracy_ratio": (ratio(tally.accurate), "ratio", tally.accurate[1]),
        "bound_cover_ratio": (ratio(tally.covered), "ratio", tally.covered[1]),
    }
    return metrics, tally, round0_counts


# ---------------------------------------------------------------------- traced


def child_ms(code: str, report_own_time: bool) -> float:
    """Median wall time of a child ``python -c code``, or the time it prints itself."""
    samples = []
    env = child_env()
    for _ in range(CHILD_SAMPLES):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout) if report_own_time else perf_counter() - t0)
    return statistics.median(samples) * 1e3


def traced(workload, pq, seconds: float, seed: int):
    ops = [case for round_ in workload.rounds[: workload.trace_rounds] for case in round_]
    round_len = len(workload.rounds[0])
    tracer = Tracer(pq.errors.PoleError)
    plain_api = workload.api
    traced_api = SimpleNamespace(**{k: tracer.wrap_entry(v) for k, v in vars(plain_api).items()})
    modules = {layer: getattr(pq, layer) for layer in LAYERS}
    tally, counts, round0_counts = Tally(), {}, {}
    untraced_walls, traced_walls = [], []
    label_ms: dict[str, list[float]] = {}
    counted_s = 0.0  # untraced time of the ops that report lattice terms
    summary = None
    start = perf_counter()
    while not traced_walls or perf_counter() - start < seconds:
        wall = 0.0
        for j, case in enumerate(ops):
            elapsed, result, verdict = run_op(workload, case, in_process=True)
            wall += elapsed
            label = workload.label(case)
            if label is not None:
                label_ms.setdefault(label, []).append(elapsed * 1e3)
            if verdict is not None and workload.counts(case, result).get("integration.terms"):
                counted_s += elapsed
            if not untraced_walls:
                tally.add(verdict)
                if verdict is not None:
                    add_counts(counts, workload.counts(case, result))
                    if j < round_len:
                        add_counts(round0_counts, workload.counts(case, result))
        untraced_walls.append(wall)

        tracer.install(modules)
        workload.api = traced_api
        wall = 0.0
        try:
            for j, case in enumerate(ops):
                tracer.op = j
                t0 = perf_counter()
                try:
                    workload.run_in_process(case)
                except Exception:
                    pass  # already reported by the untraced pass
                wall += perf_counter() - t0
        finally:
            workload.api = plain_api
            tracer.uninstall()
        traced_walls.append(wall)
        if summary is None:
            summary = tracer.summary()
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload.name}-{seed}.tsv.gz")
        tracer.clear()

    passes = len(untraced_walls)
    m = {}
    for layer in LAYERS[:-1]:
        m[f"{layer}.calls"] = (summary.calls[layer], "count")
        m[f"{layer}.self_s"] = (summary.self_s[layer], "s")
    m["pqpower.power_value_calls"] = (summary.name_calls.get("pqpower.pq_power_value", 0), "count")
    pq_calls = summary.calls["pqpower"]
    m["pqpower.pole_ratio"] = (summary.pole_exits["pqpower"] / pq_calls if pq_calls else 0.0, "ratio")
    m["polynomials.mul_calls"] = (summary.name_calls.get("polynomials.Polynomial.__mul__", 0), "count")
    m["polynomials.eval_calls"] = (summary.name_calls.get("polynomials.eval_poly", 0), "count")
    terms = counts.get("integration.terms", 0)
    integrals = counts.get("integration.integrals", 0)
    m["integration.terms"] = (terms, "count")
    m["integration.fn_evals"] = (summary.calls_from.get(("integration", "polynomials.NumericFn.__call__"), 0), "count")
    m["integration.us_per_term"] = (counted_s / passes / terms * 1e6 if terms else 0.0, "us")
    m["integration.converged_ratio"] = (counts.get("integration.converged", 0) / integrals if integrals else 0.0, "ratio")
    for _, tag in LATTICE_RATIOS:
        n = counts.get(f"integration.integrals.{tag}", 0)
        m[f"integration.terms.{tag}"] = (counts.get(f"integration.terms.{tag}", 0) / n if n else 0.0, "count")
    m["identities.trials"] = (counts.get("identities.trials", 0), "count")
    for label in EXACT_LABELS:
        values = label_ms.get(label)
        m[f"identities.{label}.ms"] = (statistics.median(values) if values else 0.0, "ms")
    if workload.name == "cli-cold":
        m["cli.interp_ms"] = (child_ms("pass", False), "ms")
        m["cli.import_ms"] = (child_ms(
            "import time; t = time.perf_counter(); import pqcalc.cli; print(time.perf_counter() - t)", True), "ms")
        m["cli.cmd_ms"] = (statistics.median(untraced_walls) / len(ops) * 1e3, "ms")
    else:
        for key in ("cli.interp_ms", "cli.import_ms", "cli.cmd_ms"):
            m[key] = (0.0, "ms")
    m["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    metrics = {key: (value, unit, passes) for key, (value, unit) in m.items()}
    return metrics, tally, round0_counts


# ---------------------------------------------------------------------- report


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(name: str, seed: int, counts: dict[str, int]) -> bool:
    """Compare round-0 counts with an earlier run of the same code and seed."""
    OUT.mkdir(exist_ok=True)
    ledger = OUT / f"counts-{name}-{seed}.json"
    record = {"code": code_digest(), "counts": counts}
    if ledger.is_file():
        earlier = json.loads(ledger.read_text())
        if earlier.get("code") == record["code"]:
            if earlier["counts"] != counts:
                print(f"counts differ from an earlier run of the same code and seed: "
                      f"{earlier['counts']} != {counts}", file=sys.stderr)
                return False
            return True
    ledger.write_text(json.dumps(record, sort_keys=True))
    return True


def environment(pq) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "backend": pq.scalars.Rat.__module__.partition(".")[0],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; held-out seed 7919)")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    args = parser.parse_args(argv)
    try:
        workload, pq, setup_times = setup(args.workload, args.seed)
    except (BenchError, ImportError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, tally, round0 = traced(workload, pq, args.seconds, args.seed)
    else:
        metrics, tally, round0 = end_to_end(workload, args.seconds, setup_times)
    repeatable = check_counts_repeat(args.workload, args.seed, round0)
    env = environment(pq)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " +
          " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in env.items()))
    print("round-0 counts: " + " ".join(f"{k}={v}" for k, v in sorted(round0.items())) +
          f" ({'repeatable' if repeatable else 'NOT REPEATABLE'})")
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:38s} {value:14.6g} {unit:6s} n={samples}")
    print(f"ops attempted={tally.attempted} failed={tally.failed}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "round0_counts": round0, "metrics": {k: v[0] for k, v in metrics.items()}}, indent=1))
    result = {
        "correct": tally.failed == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
