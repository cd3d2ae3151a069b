"""The lazy ``pqcalc`` namespace and the import graph of a cold ``pq`` command."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqcalc

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# every name the package exports, pinned so that adding or removing one is deliberate
EXPORTED = {
    "errors": (
        "DegenerateRegimeError", "DivergenceError", "InvalidIntervalError",
        "MissingDerivativeAtZeroError", "NegativeArgumentError", "NonPositiveBaseError",
        "OutOfRangeError", "PoleError", "PqError", "WrongRegimeError",
    ),
    "integration": (
        "BoundednessReport", "GapReport", "IntegralResult", "IntegralStatus", "TruncationPolicy",
        "antiderive_poly", "check_convergence_hypothesis", "integral", "integral_exact", "integral_improper",
        "integral_riemann_stieltjes", "integral_to_infinity", "integral_zero_to",
        "integrate_by_parts", "newton_leibniz_check",
    ),
    "polynomials": (
        "NumericFn", "Polynomial", "eval_poly", "pq_derive_fn", "pq_derive_poly",
        "pq_derive_poly_k", "pq_difference_quotient",
    ),
    "pqpower": (
        "Orientation", "PqPowerExpr", "derive_pq_power", "derive_pq_power_iterated",
        "eval_pq_power", "expand_expr", "format_power_expr", "parse_power_expr", "pq_power_value",
    ),
    "scalars": (
        "FloatScalar", "PqParams", "Rat", "Regime", "bracket", "bracket_alpha",
        "bracket_falling", "pq_binomial", "pq_factorial", "rat", "rat_str",
    ),
    "taylor": (
        "PowerBasisExpansion", "connect_monomial", "connect_power_to_power", "heine_coeff",
        "heine_series_eval", "reciprocal_power_series", "taylor_expand", "taylor_expand_reversed",
    ),
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]

# every private name one pqcalc module imports from another, pinned so that a new
# reach into another module's internals is deliberate
PRIVATE_IMPORTS = {
    ("cli", "scalars"): {"_falling_vanishes", "_float_view"},
    ("integration", "polynomials"): {"_pq_derive_at"},
    ("taylor", "integration"): {"_sum_series"},
}


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
            (["taylor", "0,0,1", "1", "--reversed"], {"cli", "errors", "scalars", "polynomials", "pqpower", "taylor"}),
            (["derive", "pqpow(a=1, n=3)"], {"cli", "errors", "scalars", "polynomials", "pqpower"}),
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


class TestLayering:
    def test_oracle_is_bound_only_by_the_laws(self):
        # a check never runs inside the kernel it judges: the exact difference
        # quotient judges the derivative laws, so no kernel layer holds it
        oracle = importlib.import_module("pqcalc.polynomials").pq_difference_quotient
        for module in ("polynomials", "identities"):
            assert importlib.import_module(f"pqcalc.{module}").pq_difference_quotient is oracle
        for module in ("scalars", "pqpower", "taylor", "integration"):
            namespace = vars(importlib.import_module(f"pqcalc.{module}"))
            assert not [name for name, value in namespace.items() if value is oracle], module


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


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, the ``__future__`` import exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def private_imports(modules: dict[str, str]) -> dict[tuple[str, str], set[str]]:
    """(importer, owner) -> the names starting with "_" that a module of the package imports from another."""
    found: dict[tuple[str, str], set[str]] = {}
    for importer, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom) or not (node.level or (node.module or "").startswith("pqcalc.")):
                continue
            names = {alias.name for alias in node.names if alias.name.startswith("_")}
            if names:
                found.setdefault((importer, node.module.removeprefix("pqcalc.")), set()).update(names)
    return found


class TestPrivateImports:
    def test_cross_module_private_names_are_the_pin(self):
        modules = {path.stem: path.read_text() for path in SRC.glob("pqcalc/*.py")}
        assert private_imports(modules) == PRIVATE_IMPORTS

    def test_scan_finds_relative_absolute_and_local_imports(self):
        source = (
            "from .a import _x, y\nfrom pqcalc.b import _z\nfrom os import _exit\n"
            "def f():\n    from .a import _w\n"
        )
        assert private_imports({"m": source}) == {("m", "a"): {"_x", "_w"}, ("m", "b"): {"_z"}}


class TestUnusedImports:
    @pytest.mark.parametrize(
        "path", sorted(SRC.glob("pqcalc/*.py")) + sorted(TESTS.glob("*.py")), ids=lambda path: path.name
    )
    def test_every_imported_name_is_read(self, path):
        assert unused_imports(path.read_text()) == []

    def test_scan_finds_a_leftover_import(self):
        source = "from __future__ import annotations\nimport math\nfrom itertools import islice, chain\nchain()\n"
        assert unused_imports(source) == ["math (line 2)", "islice (line 3)"]
