"""Exception hierarchy shared by the exact and numeric layers."""


class PwOmegaError(Exception):
    """Base class for all library errors."""


# -- exact series kernel ------------------------------------------------------

class LatticeMismatch(PwOmegaError):
    """Operands live on incompatible exponent lattices."""


class NonInvertibleLeadingTerm(PwOmegaError):
    """Series inversion requires a nonzero least-exponent coefficient."""


class DivergentProduct(PwOmegaError):
    """Infinite product whose factor exponents do not increase."""


class UncertifiedOrder(PwOmegaError):
    """A series would claim an order past the one its data is certified to."""


class PrecisionExhausted(PwOmegaError):
    """A substitution pushed all certified coefficients past the floor."""


class RootOfUnityOutsideCyc8(PwOmegaError):
    """A specialization needs a root of unity outside the 8th cyclotomic field."""


class SpecializationPole(PwOmegaError):
    """A formal specialization makes a unit denominator vanish identically."""


class NonExpandableDenominator(PwOmegaError):
    """A Pochhammer inversion is not formally expandable on the lattice."""


# -- combinatorics ------------------------------------------------------------

class NoCombinatorialDefinition(PwOmegaError):
    """The family is defined by a series only; it has no enumerator."""


class ResourceBound(PwOmegaError):
    """Requested enumeration exceeds the configured cap."""


# -- numeric layer ------------------------------------------------------------

class PrecisionUnreachable(PwOmegaError):
    """The requested accuracy cannot be certified at this point."""


class PoleProximity(PwOmegaError):
    """An evaluation point is too close to a pole to certify the precision."""


class ContourThroughPole(PwOmegaError):
    """A differentiation contour passes too close to a singularity."""


class StencilThroughSingularity(PwOmegaError):
    """A finite-difference stencil hit a singular point."""


class WindowTooSmall(PwOmegaError):
    """A compared coefficient has zeta-support outside the requested window."""


# -- group / multiplier layer -------------------------------------------------

class NotUnimodular(PwOmegaError):
    """Matrix determinant is not 1."""


class DomainViolation(PwOmegaError):
    """Multiplier evaluated outside its domain group."""


# -- CLI / registry -----------------------------------------------------------

class UnknownIdentity(PwOmegaError):
    """No identity with this id is registered."""


class UnknownObject(PwOmegaError):
    """No expandable series with this name is registered."""


class BadSpec(PwOmegaError, ValueError):
    """A series specification (an eta quotient) cannot be parsed."""


class UndeclaredParameter(PwOmegaError):
    """An override names a parameter the identity does not declare."""
