"""pqcalc: exact and numeric (p,q)-calculus.

Twin-basic combinatorics, the two-parameter difference derivative, the
(p,q)-power basis with both Taylor expansions, and the lattice-series
(p,q)-integral family, checked by a machine-runnable identity suite.

``import pqcalc`` is cheap: a submodule is imported on first use of one of
its names (PEP 562), and each ``pq`` command imports only its own layers.
"""

import importlib

#: submodule -> the names this package re-exports from it
_EXPORTS = {
    "errors": (
        "DegenerateRegimeError", "DivergenceError", "InvalidIntervalError",
        "MissingDerivativeAtZeroError", "NegativeArgumentError", "NonPositiveBaseError",
        "OutOfRangeError", "PoleError", "PqError", "WrongRegimeError",
    ),
    "integration": (
        "BoundednessReport", "GapReport", "IntegralResult", "IntegralStatus", "antiderive_poly",
        "check_convergence_hypothesis", "integral", "integral_exact", "integral_improper",
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
        "FloatScalar", "PqParams", "Rat", "Regime", "TruncationPolicy", "bracket",
        "bracket_alpha", "bracket_falling", "pq_binomial", "pq_factorial", "rat", "rat_str",
    ),
    "taylor": (
        "PowerBasisExpansion", "connect_monomial", "connect_power_to_power", "heine_coeff",
        "heine_series_eval", "reciprocal_power_series", "taylor_expand", "taylor_expand_reversed",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
