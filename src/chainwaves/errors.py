"""Exception and warning types shared across the package."""


class ChainwavesError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(ChainwavesError):
    """Two operands live on different grids."""


class DomainTooSmallError(ChainwavesError):
    """The requested profile does not decay below threshold at the boundary."""


class NearSingularError(ChainwavesError):
    """The linearized operator is numerically singular on the even subspace."""


class NoConvergenceError(ChainwavesError):
    """An iteration exhausted its budget without meeting its tolerance."""


class WindowOverflowError(ChainwavesError):
    """Wave support plus travel distance does not fit the measurement window."""


class EmptyWindowError(ChainwavesError):
    """No samples fall inside the requested fit window."""


class ConfigError(ChainwavesError):
    """A run configuration failed schema or consistency validation."""


class CurvatureWarning(UserWarning):
    """A higher-order force argument left |r| <= 1, where the curvature bound
    backing the built-in families is verified; ``peak`` is the largest |r|."""

    def __init__(self, message: str, peak: float):
        super().__init__(message)
        self.peak = peak
