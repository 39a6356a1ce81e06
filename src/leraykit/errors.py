"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LeraykitError(Exception):
    """Base class for all leraykit errors."""


class DomainError(LeraykitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnboundedMode(DomainError):
    """The requested measure exponent lies outside the boundedness interval,
    so the corresponding Fourier-mode operator norm is infinite."""


class DegenerateGamma(DomainError):
    """gamma = 2 collapses the exponent reparameterization; the Hölder
    partner exponent is not unique there."""


class ToleranceUnreachable(LeraykitError):
    """The requested error radius is below the floor attainable at the
    current working precision."""


class ZeroPolynomial(LeraykitError, ValueError):
    """Operation undefined for the zero polynomial."""


class CrossCheckFailure(LeraykitError):
    """Two independent evaluation routes disagreed beyond tolerance."""


class TailUnbounded(LeraykitError):
    """An infinite summation/integration was requested without the tail
    bounds needed to truncate it rigorously."""


class InconclusiveComparison(LeraykitError):
    """Adjacent values could not be strictly ordered because their error
    radii overlap; retry at a higher LERAYKIT_PRECISION_BITS, which narrows
    the rounding part of the radii."""
