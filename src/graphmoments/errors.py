"""Exception hierarchy shared across the library.

Three broad families map onto the CLI exit codes: bad input (2),
numerical/identifiability failures (3), and exceeded work budgets (4).
"""


class GraphMomentsError(Exception):
    """Base class for every error raised by this package."""


class InputError(GraphMomentsError):
    """Invalid user-supplied data: files, parameters, configs."""


class GraphFormatError(InputError):
    """Malformed edge-list input (bad tokens, self-loops, ...)."""


class InvalidModelError(InputError):
    """Block model or graphon violating its invariants."""


class DomainError(InputError):
    """Arguments outside an operation's domain (n too small, m > n, ...)."""


class CapabilityError(InputError):
    """Request beyond a documented capability bound (e.g. pattern order > 10)."""


class NumericalError(GraphMomentsError):
    """Numerical or identifiability failure during estimation."""


class NormalizationError(NumericalError):
    """Empty graph where a density normalization is required (rho_hat = 0)."""


class MomentProblemError(NumericalError):
    """Moment sequence cannot be inverted into an atomic distribution."""


class HankelIllPosedError(MomentProblemError):
    """Hankel system too ill-conditioned (near-coincident atoms)."""


class AtomSeparationError(MomentProblemError):
    """Recovered atoms are complex or not separated."""


class IdentifiabilityError(NumericalError):
    """Iterate matrix numerically rank-deficient; parameters not identified."""


class CountOverflowError(NumericalError):
    """A count exceeded the representable/checked integer range."""


class InvariantError(GraphMomentsError):
    """An internal invariant failed (a count that must divide exactly did not)."""


class BudgetExceededError(GraphMomentsError):
    """Work estimate exceeds the configured enumeration budget."""
