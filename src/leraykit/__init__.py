"""leraykit: verified numerics for the sub-Leray operator norms on M_gamma.

The package computes the spectral symbol function J(d, gamma, k) and the
operator norms it determines, evaluates the polygamma combinations that
govern mode monotonicity with certified error radii, and mechanically
certifies the supporting inequalities: numerically (bounded evaluation,
finite-difference complete-monotonicity evidence) and exactly (big-rational
polynomial arithmetic, Descartes sign counting, Euler-Maclaurin
decomposition identities).

Environment: LERAYKIT_PRECISION_BITS overrides the working significand
precision (default 120 bits, minimum 80); read once at import.
"""

from .certificates import Certificate, first_failure
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
from .exactpoly import (
    BivariatePolynomial,
    RationalFunction,
    RationalPolynomial,
    descartes_sign_changes,
    sign_pattern,
)
from .specialfn import (
    DEFAULT_TOL,
    BoundedFloat,
    log_gamma,
    phi,
    phi_sandwich,
    polygamma,
    polygamma_sandwich,
    precision_bits,
    set_precision_bits,
    theta,
)
from .symbol import (
    HolderReparam,
    MeasureTag,
    Monotonicity,
    NormResult,
    ScanResult,
    SymbolQuery,
    boundedness_interval,
    hf_limit,
    holder_conjugate,
    holder_partner,
    leray_norm,
    monotonicity_scan,
    sup_search,
    symbol_value,
)
from .bwcert import (
    cm_numeric_certificate,
    f_q,
    m_kernel,
    quadratic_roots,
)
from .emcert import (
    em_lower_bound,
    phi_preferred_reconstruction,
    pr_poly,
    q_root,
    s_function,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Certificate",
    "first_failure",
    "LeraykitError",
    "DomainError",
    "UnboundedMode",
    "DegenerateGamma",
    "ToleranceUnreachable",
    "ZeroPolynomial",
    "CrossCheckFailure",
    "TailUnbounded",
    "InconclusiveComparison",
    "RationalPolynomial",
    "BivariatePolynomial",
    "RationalFunction",
    "descartes_sign_changes",
    "sign_pattern",
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
    "m_kernel",
    "quadratic_roots",
    "f_q",
    "cm_numeric_certificate",
    "s_function",
    "pr_poly",
    "q_root",
    "em_lower_bound",
    "phi_preferred_reconstruction",
]
