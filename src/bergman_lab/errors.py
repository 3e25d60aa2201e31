"""Exception types shared across the package."""


class BergmanLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAlpha(BergmanLabError):
    """Weight parameter alpha is outside the admissible range alpha > -1."""


class ModeMismatch(BergmanLabError):
    """Exact rational arithmetic was requested with data that is not rational."""


class AmbientMismatch(BergmanLabError):
    """Two subspaces do not live in the same truncated space."""


class DimensionMismatch(BergmanLabError):
    """Operator shapes or truncation dimensions are incompatible."""


class NotInvariant(BergmanLabError):
    """A subspace fails to be invariant under the given operator."""


class NotReducing(BergmanLabError):
    """A subspace fails to be reducing for the shift."""


class SingularGram(BergmanLabError):
    """The Gram operator of a map is singular or too ill conditioned to invert."""


class DepthOverflow(BergmanLabError):
    """An iterated-shift construction would leave the truncation; raise the dimension."""


class BadResidue(BergmanLabError):
    """A residue set contains entries outside {0, ..., N-1}."""
