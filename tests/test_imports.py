"""The lazy ``pqcalc`` namespace and the import graph of a cold ``pq`` command."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqcalc

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exports, pinned so that adding or removing one is deliberate
EXPORTED = {
    "errors": (
        "DegenerateRegimeError", "DivergenceError", "InvalidIntervalError",
        "MissingDerivativeAtZeroError", "NegativeArgumentError", "NonPositiveBaseError",
        "OutOfRangeError", "PoleError", "PqError", "WrongRegimeError",
    ),
    "integration": (
        "BoundednessReport", "GapReport", "IntegralResult", "IntegralStatus", "TruncationPolicy",
        "antiderive_poly", "check_convergence_hypothesis", "integral", "integral_improper",
        "integral_riemann_stieltjes", "integral_to_infinity", "integral_zero_to",
        "integrate_by_parts", "newton_leibniz_check",
    ),
    "polynomials": (
        "NumericFn", "Polynomial", "eval_poly", "pq_derive_fn", "pq_derive_poly",
        "pq_derive_poly_k", "pq_difference_quotient",
    ),
    "pqpower": (
        "Orientation", "PqPowerExpr", "additive_law_check", "derive_pq_power",
        "derive_pq_power_iterated", "eval_pq_power", "expand_expr", "format_power_expr",
        "parse_power_expr", "pq_power_value", "reciprocal_rules_check",
    ),
    "scalars": (
        "FloatScalar", "PqParams", "Rat", "Regime", "bracket", "bracket_alpha",
        "bracket_falling", "pq_binomial", "pq_factorial", "rat", "rat_str",
    ),
    "taylor": (
        "PowerBasisExpansion", "connect_monomial", "connect_power_to_power", "heine_coeff",
        "heine_coefficients_match", "heine_series_eval", "q_binomial_reduction_check",
        "reciprocal_power_series", "taylor_expand", "taylor_expand_reversed",
    ),
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def loaded_after(code: str) -> set[str]:
    """The pqcalc submodules that a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport sys\nprint(*(m for m in sys.modules if m.startswith('pqcalc.')))"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return {m.removeprefix("pqcalc.") for m in done.stdout.splitlines()[-1].split()}


class TestImportGraph:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import pqcalc") == set()

    def test_submodule_resolves_on_attribute_access(self):
        loaded = loaded_after("import pqcalc\nassert callable(pqcalc.taylor.taylor_expand)")
        assert "taylor" in loaded
        assert not loaded & {"integration", "identities"}

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["bracket", "3"], {"cli", "errors", "scalars"}),
            (["derive", "0,0,1"], {"cli", "errors", "scalars", "polynomials", "pqpower"}),
            (["taylor", "0,0,1", "1"], {"cli", "errors", "scalars", "polynomials", "pqpower", "taylor"}),
            (["integrate", "poly:0,1", "0", "1"], {"cli", "errors", "scalars", "polynomials", "integration"}),
        ],
    )
    def test_command_loads_only_its_layers(self, argv, loaded):
        code = (
            "import contextlib, io\nfrom pqcalc.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
        )
        assert loaded_after(code) == loaded

    def test_no_command_imports_dataclasses_or_inspect(self):
        # both cost a cold start tens of milliseconds; -S keeps a site-packages
        # .pth file from importing them before pqcalc does
        commands = [
            ["bracket", "3"], ["derive", "0,0,1"], ["taylor", "0,0,1", "1"],
            ["integrate", "poly:0,1", "0", "1"], ["identities", "--only", "expand1", "--trials", "2"],
        ]
        script = (
            "import contextlib, io, sys\nfrom pqcalc.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    for argv in {commands!r}:\n"
            "        assert main(argv) == 0, argv\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.split() == ["False", "False"]


class TestNamespace:
    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_is_the_submodule_object(self, module, name):
        assert getattr(pqcalc, name) is getattr(importlib.import_module(f"pqcalc.{module}"), name)

    def test_policy_is_one_class_in_both_modules(self):
        from pqcalc import integration, scalars

        assert pqcalc.TruncationPolicy is scalars.TruncationPolicy is integration.TruncationPolicy
        assert integration.DEFAULT_POLICY is scalars.DEFAULT_POLICY

    def test_exports_are_exactly_the_pin(self):
        assert set(pqcalc.__all__) == {name for _, name in NAMES} | set(EXPORTED)

    def test_callables_are_functions_or_classes(self):
        # the benchmark's span tracer wraps only functions, so a functools.partial
        # or other callable object would run its calls unseen
        for _, name in NAMES:
            value = getattr(pqcalc, name)
            assert not callable(value) or inspect.isfunction(value) or inspect.isclass(value), name

    def test_dir_lists_every_name(self):
        assert {name for _, name in NAMES} | set(EXPORTED) <= set(dir(pqcalc))

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from pqcalc import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"pqcalc.{module}"), name)
        for module in EXPORTED:
            assert namespace[module] is importlib.import_module(f"pqcalc.{module}")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            pqcalc.nosuch
        assert not hasattr(pqcalc, "nosuch")
