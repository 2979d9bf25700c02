"""Solitary traveling waves for atomic chains with nonlocal interactions.

The package constructs supersonic solitary velocity profiles for chains
coupling up to M neighbors, solving the traveling wave problem by a corrector
fixed point around the closed-form quadratic-KdV limit, and validates the
result against the chain's equations of motion.
"""

# verify first: its compile peaks highest, best before the rest is held
from .verify import CheckResult, run_verification
from .errors import (
    ChainwavesError,
    ConfigError,
    CurvatureWarning,
    DomainTooSmallError,
    EmptyWindowError,
    GridMismatchError,
    NearSingularError,
    NoConvergenceError,
    WindowOverflowError,
)
from .grid import (
    GridFunction,
    SpectralGrid,
    apply_symbol,
    derivative,
    l2_norm,
    make_grid,
    sample,
    sup_norm,
)
from .lattice import TransportReport, run_transport, wave_initial_data
from .linearized import LinearizedOperator, linearized_operator
from .model import (
    ChainModel,
    PsiFamily,
    default_half_length,
    kdv_profile,
    tw_defect,
    tw_residual,
)
from .operators import averaging_direct, averaging_symbol, b_diagonal, sinc
from .solver import (
    SolveConfig,
    SolveDiagnostics,
    SweepRow,
    WaveSolution,
    convergence_sweep,
    eigen_identity_check,
    solve_wave,
)

__version__ = "0.1.0"
