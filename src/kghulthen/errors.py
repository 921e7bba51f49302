"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that library users (and the command-line layer) can branch on the *kind* of
failure rather than on message strings.  A failure that a result row
reports is a ``SolverError``, and its ``status`` is the row's token.
"""


class KGHulthenError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KGHulthenError):
    """A run configuration is missing a key, malformed, or inconsistent."""


class NoRealK(KGHulthenError):
    """The closure constant has no real solutions (negative discriminant)."""


class InvalidK(KGHulthenError):
    """A supplied closure constant does not make the radicand a perfect square."""


class NoAdmissibleBranch(KGHulthenError):
    """No candidate branch has a decreasing linear coefficient and
    normalizable weight exponents."""


class SolverError(KGHulthenError):
    """A solve has no answer for these parameters; each subclass's
    ``status`` is the token that the result rows it leaves empty carry."""


class InvalidRegime(SolverError):
    """Parameters put the model outside the regime where the requested
    computation is defined (e.g. an over-attractive origin)."""

    status = "invalid_regime"


class NoBoundState(SolverError):
    """The closed-form energy would be complex: no bound state exists for
    these quantum numbers."""

    status = "no_bound_state"


class NonNormalizable(SolverError):
    """The candidate wavefunction is not square-integrable."""

    status = "non_normalizable"


class GridResolution(SolverError):
    """The integration grid is too coarse to resolve the states requested
    (node counts behave inconsistently under scanning)."""

    status = "grid_resolution"
