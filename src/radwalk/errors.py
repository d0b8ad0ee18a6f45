"""Exception types shared across the package."""


class RadwalkError(Exception):
    """Base class for all radwalk errors."""


class ShapeMismatch(RadwalkError):
    """Operands have incompatible shapes."""


class NotPSD(RadwalkError):
    """A matrix that must be positive semidefinite has a genuinely negative eigenvalue."""


class NoConvergence(RadwalkError):
    """An iterative linear-algebra routine failed to converge."""


class SizeOverflow(RadwalkError):
    """A product dimension exceeds the configured entry cap."""


class BadArity(RadwalkError):
    """An index set, word, tuple or config field has the wrong arity, type or range."""


class RankDeficient(RadwalkError):
    """A random Gram matrix stayed numerically singular after the retry budget."""


class TooFewSamples(RadwalkError):
    """Not enough samples for the requested estimator."""
