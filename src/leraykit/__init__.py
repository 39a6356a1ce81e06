"""leraykit: verified numerics for the sub-Leray operator norms on M_gamma.

The package computes the spectral symbol function J(d, gamma, k) and the
operator norms it determines, evaluates the polygamma combinations that
govern mode monotonicity with certified error radii, and mechanically
certifies the supporting inequalities: numerically (bounded evaluation,
finite-difference complete-monotonicity evidence) and exactly (big-rational
polynomial arithmetic, Descartes sign counting, Euler-Maclaurin
decomposition identities).

Importing the package loads only ``__version__`` and the error classes.
Every other public name, and each submodule, is imported on first access
(PEP 562), so a process loads only the layers it uses.

Environment: LERAYKIT_PRECISION_BITS overrides the working significand
precision (default 120 bits, minimum 80); read once, when the numerics are
first imported.
"""

from importlib import import_module

from .errors import (
    CrossCheckFailure,
    DegenerateGamma,
    DomainError,
    InconclusiveComparison,
    LeraykitError,
    TailUnbounded,
    ToleranceUnreachable,
    UnboundedMode,
    ZeroPolynomial,
)

__version__ = "0.1.0"

# submodule -> the public names it defines, each imported on first access
_LAZY = {
    "certificates": ("Certificate", "first_failure"),
    "exactpoly": (
        "RationalPolynomial",
        "BivariatePolynomial",
        "RationalFunction",
        "descartes_sign_changes",
        "sign_pattern",
    ),
    "specialfn": (
        "DEFAULT_TOL",
        "BoundedFloat",
        "polygamma",
        "log_gamma",
        "theta",
        "phi",
        "polygamma_sandwich",
        "phi_sandwich",
        "precision_bits",
        "set_precision_bits",
    ),
    "symbol": (
        "SymbolQuery",
        "MeasureTag",
        "HolderReparam",
        "Monotonicity",
        "ScanResult",
        "NormResult",
        "boundedness_interval",
        "symbol_value",
        "holder_conjugate",
        "holder_partner",
        "hf_limit",
        "leray_norm",
        "monotonicity_scan",
        "sup_search",
    ),
    "bwcert": ("m_kernel", "quadratic_roots", "f_q", "cm_numeric_certificate"),
    "emcert": ("s_function", "pr_poly", "q_root", "em_lower_bound", "phi_preferred_reconstruction"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = (*_LAZY, "measures", "tables")

__all__ = [
    "__version__",
    "LeraykitError",
    "DomainError",
    "UnboundedMode",
    "DegenerateGamma",
    "ToleranceUnreachable",
    "ZeroPolynomial",
    "CrossCheckFailure",
    "TailUnbounded",
    "InconclusiveComparison",
    *_HOME,
]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
