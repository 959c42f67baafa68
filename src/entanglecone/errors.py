"""Exception types shared across the package.

Every error raised on purpose by this library derives from
:class:`EntangleConeError`, so callers can catch one base class at the
boundary and map it to a process exit code or a log line.
"""


class EntangleConeError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DimensionError(EntangleConeError):
    """Operands have incompatible or invalid shapes."""


class DomainError(EntangleConeError):
    """An input lies outside the mathematical domain of an operation.

    Examples: a matrix that is not Hermitian where Hermiticity is
    required, a state that is not positive semidefinite, a map handed to
    a routine that needs a unital idempotent one.
    """


class ParseError(EntangleConeError):
    """A file or JSON document does not match the expected format."""


class NumericalError(EntangleConeError):
    """An internal consistency check failed beyond tolerance.

    Raised when two routes to the same quantity disagree, which points
    at a numerical breakdown or a bug rather than bad user input.
    """
