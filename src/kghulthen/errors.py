"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that library users (and the command-line layer) can branch on the *kind* of
failure rather than on message strings.
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


class ComplexRegime(KGHulthenError):
    """Coefficients leave the real domain (a square root of a negative
    quantity would be needed), so real-valued analysis cannot proceed."""


class InvalidRegime(KGHulthenError):
    """Parameters put the model outside the regime where the requested
    computation is defined (e.g. an over-attractive origin)."""


class NoBoundState(KGHulthenError):
    """The closed-form energy would be complex: no bound state exists for
    these quantum numbers."""


class NonNormalizable(KGHulthenError):
    """The candidate wavefunction is not square-integrable."""


class GridResolution(KGHulthenError):
    """The integration grid is too coarse to resolve the states requested
    (node counts behave inconsistently under scanning)."""
