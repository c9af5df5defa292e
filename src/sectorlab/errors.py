"""Exception types shared across the package."""


class SectorlabError(Exception):
    """Base class for all sectorlab errors."""


class DimensionMismatch(SectorlabError):
    """Operands do not have compatible shapes."""


class SingularMatrix(SectorlabError):
    """LAPACK could not invert a matrix: ``np.linalg.inv`` found it singular."""


class IllConditioned(SectorlabError):
    """Condition estimate exceeded the configured cap."""


class NoConvergence(SectorlabError):
    """An iteration reached its cap without meeting tolerance.

    For adaptive integration the best available result is attached as
    ``payload`` so callers can still inspect it.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class NotPositiveDefinite(SectorlabError):
    """A Hermitian argument has a non-positive eigenvalue."""


class NotAccretive(SectorlabError):
    """The real part of a matrix is not strictly positive definite."""


class InvalidNodeCount(SectorlabError):
    """Quadrature node count outside the supported range."""


class InvalidParameters(SectorlabError):
    """Jacobi weight exponents outside the integrable range."""


class InvalidWeight(SectorlabError):
    """Mean/entropy weight outside the open interval (0, 1)."""


class InvalidScalar(SectorlabError):
    """Scalar mean argument outside the positive reals."""


class EvaluationFailure(SectorlabError):
    """An integrand raised or returned non-finite values at a node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
