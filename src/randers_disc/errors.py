"""Exception types shared across the package.

There is one class per command-line exit code:

- ``DomainError`` (exit 2): the input is outside the mathematical domain or
  names a size that makes a check vacuous; nothing was verified.
- ``VerificationError`` (exit 1): a numerical step failed on valid input
  (an inadmissible curve, a failed bracket or stencil, an exhausted
  sampler, a degenerate chart or projection, an inconsistent integration);
  a certificate records it as a failed check, and its message says which.

Any other exception is a bug and propagates unchanged.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain (disc, origin, parameter ranges)."""


class VerificationError(RuntimeError):
    """A numerical step failed on valid input, so its check fails."""
