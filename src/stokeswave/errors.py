"""Exception taxonomy shared across the package.

The CLI maps ConfigurationError to exit code 2 and NumericsError to exit
code 3; everything else is a bug.  PreconditionError covers every call
outside an operation's stated precondition, among them a boundary normal
requested off the boundary, or a glide along a direction that is not glancing.
"""


class ConfigurationError(ValueError):
    """Invalid experiment or object configuration (bad key, bad range)."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed (solver breakdown, non-convergence, degenerate fit)."""
