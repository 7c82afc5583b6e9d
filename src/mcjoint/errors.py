"""Exception hierarchy shared by all estimation and simulation stages."""


class McjointError(Exception):
    """Base class for all package errors."""


class ValidationError(McjointError):
    """Invalid user input (spec fields, CSV content, CLI flags)."""


class DegenerateDataError(McjointError):
    """Data admits no meaningful fit (zero spread, indeterminate slope)."""


class ConvergenceError(McjointError):
    """An iterative procedure exhausted its iteration budget."""


class StartFailureError(McjointError):
    """Both robust covariance starters failed; MM fit cannot begin."""


class SingularCovarianceError(McjointError):
    """Scatter matrix is singular; Mahalanobis metric undefined."""


class EnsembleQualityError(McjointError):
    """Too many bootstrap replicates failed to converge."""


class NoSolutionError(McjointError):
    """Curve inversion target outside the attainable range."""
