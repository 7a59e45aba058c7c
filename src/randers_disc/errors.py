"""Exception types shared across the package.

Each class carries the command-line exit code it stands for:

- ``DomainError`` (exit 2): the input is outside the mathematical domain or
  names a size that makes a check vacuous; nothing was verified.
- ``VerificationError`` (exit 1) and its subclasses: a numerical step failed
  on valid input; a certificate records it as a failed check.

Any other exception is a bug and propagates unchanged.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain (disc, origin, parameter ranges)."""


class VerificationError(RuntimeError):
    """A numerical step failed on valid input, so its check fails."""


class AdmissibilityError(VerificationError):
    """Curve leaves the disc, collapses toward the origin, or loses speed."""


class NumericalError(VerificationError):
    """A finite-difference or linear-algebra step produced unusable output."""


class BracketingError(VerificationError):
    """Root bracketing failed: the target value is not straddled."""


class ExhaustionError(VerificationError):
    """Rejection sampling exceeded its retry budget."""


class ChartSingularityError(VerificationError):
    """The x1-variation chart is degenerate at the requested parameter."""


class ProjectionError(VerificationError):
    """Constraint projection is degenerate for the supplied variation basis."""


class IntegrationError(VerificationError):
    """ODE integration failed its step-halving consistency check."""
