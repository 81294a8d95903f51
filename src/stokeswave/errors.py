"""Exception taxonomy shared across the package.

The CLI maps ConfigurationError to exit code 2 and NumericsError to exit
code 3; everything else is a bug.
"""


class ConfigurationError(ValueError):
    """Invalid experiment or object configuration (bad key, bad range)."""


class DomainError(ValueError):
    """A point is outside the domain where a value was requested."""


class ClassificationError(ValueError):
    """A boundary quantity requested where it is undefined (the normal at a corner)."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed (solver breakdown, non-convergence, degenerate fit)."""
