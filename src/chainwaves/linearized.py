"""Linearization around the limiting profile and its even-subspace solve.

The corrector equation requires inverting

    L_eps V = B_eps V - M_eps V,
    M_eps V = 2 sum_m beta_m m^3 A_{m eps}((A_{m eps} w0)(A_{m eps} V)),

with the eps = 0 limit L_0 = B_0 - 2 (sum_m beta_m m^3) w0. The kernel
direction w0' is odd, so L is invertible on the even subspace; there it is
represented densely in the orthonormal cosine-mode basis (size N/2 + 1),
where B contributes a diagonal and the coupling columns come from operator
application to basis vectors. The matrix is symmetric indefinite, so solves
use a dense LU factorization instead of fixed-point sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import lu_factor, lu_solve

from .errors import GridMismatchError, NearSingularError, NoConvergenceError, NotEvenError
from .grid import GridFunction, SpectralGrid, apply_symbol, l2_norm, project_even
from .model import ChainModel, kdv_profile
from .operators import averaging_symbol, b0_symbol, b_symbol

__all__ = [
    "LinearizedOperator",
    "linearized_operator",
    "even_coefficients",
    "even_synthesis",
]

NEAR_SINGULAR_THRESHOLD = 1e-8
_EVENNESS_GATE = 1e-8
_ASSEMBLY_BLOCK = 256


def _even_norms(grid: SpectralGrid) -> NDArray[np.float64]:
    """Normalizations making the sampled cosine modes orthonormal."""
    n_modes = grid.num_points // 2 + 1
    norms = np.full(n_modes, 1.0 / np.sqrt(grid.half_length))
    norms[0] = norms[-1] = 1.0 / np.sqrt(2.0 * grid.half_length)
    return norms


@lru_cache(maxsize=2)
def _even_basis(grid: SpectralGrid) -> NDArray[np.float64]:
    """Orthonormal even basis as columns: e_n(x_i) = norm_n cos(k_n x_i)."""
    basis = np.cos(np.outer(grid.nodes, grid.half_wavenumbers))
    basis *= _even_norms(grid)[None, :]
    basis.flags.writeable = False
    return basis


def even_coefficients(f: GridFunction) -> NDArray[np.float64]:
    """Coordinates of the even part of f in the orthonormal cosine basis."""
    grid = f.grid
    half_phase = np.where(np.arange(grid.num_points // 2 + 1) % 2 == 0, 1.0, -1.0)
    projected = grid.spacing * half_phase * np.fft.rfft(f.values).real
    return _even_norms(grid) * projected


def even_synthesis(grid: SpectralGrid, coefficients) -> GridFunction:
    """Grid function sum_n coeff_n e_n from cosine-basis coordinates."""
    coefficients = np.asarray(coefficients, dtype=float)
    n_half = grid.num_points // 2
    if coefficients.shape != (n_half + 1,):
        raise ValueError(f"expected {n_half + 1} coefficients, got {coefficients.shape}")
    half_phase = np.where(np.arange(n_half + 1) % 2 == 0, 1.0, -1.0)
    packed = coefficients * _even_norms(grid) * half_phase * (grid.num_points / 2.0)
    packed[0] *= 2.0
    packed[-1] *= 2.0
    values = np.fft.irfft(packed, n=grid.num_points)
    return GridFunction(grid, values)


@dataclass(frozen=True)
class LinearizedOperator:
    """L_eps restricted to even profiles, with dense factorization on demand.

    ``eps = 0`` selects the limiting operator. ``profile_coupling=False`` is a
    testing hook zeroing the coupling term, leaving the diagonal part only.
    The assembled matrix, its LU factors, and the smallest singular value are
    computed lazily and cached on the instance.
    """

    model: ChainModel
    grid: SpectralGrid
    eps: float
    w0: GridFunction
    profile_coupling: bool = True

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.w0.grid != self.grid:
            raise GridMismatchError("profile and operator grids differ")

    @cached_property
    def averaged_profiles(self) -> tuple:
        """A_{m eps} w0 for m = 1..M (the profile itself in the eps = 0 limit)."""
        if self.eps == 0:
            return tuple([self.w0] * self.model.neighbor_range)
        profiles = []
        for m in range(1, self.model.neighbor_range + 1):
            symbol = averaging_symbol(self.grid, m * self.eps)
            profiles.append(GridFunction(self.grid, apply_symbol(self.w0.values, symbol)))
        return tuple(profiles)

    @cached_property
    def _b_diagonal(self) -> NDArray[np.float64]:
        """Symbol of B_eps on ``grid.half_wavenumbers``: the diagonal of the
        even matrix and the half symbol applied by ``apply_l``."""
        k = self.grid.half_wavenumbers
        if self.eps == 0:
            return np.asarray(b0_symbol(self.model, k))
        return np.asarray(b_symbol(self.model, self.eps, k))

    def _coupling_columns(self, columns: NDArray) -> NDArray:
        """M_eps applied to each column of an (N, B) array of samples."""
        if not self.profile_coupling:
            return np.zeros_like(columns)
        if self.eps == 0:
            coeff = 2.0 * sum(
                b * m**3 for m, b in enumerate(self.model.beta, start=1)
            )
            return coeff * self.w0.values[:, None] * columns
        out = np.zeros_like(columns)
        for m, beta in enumerate(self.model.beta, start=1):
            symbol = averaging_symbol(self.grid, m * self.eps)
            inner = apply_symbol(columns, symbol)
            product = self.averaged_profiles[m - 1].values[:, None] * inner
            out += 2.0 * beta * m**3 * apply_symbol(product, symbol)
        return out

    def apply_m(self, v: GridFunction) -> GridFunction:
        """Coupling term M_eps V; maps even functions to even functions."""
        if v.grid != self.grid:
            raise GridMismatchError("operand grid differs from operator grid")
        values = self._coupling_columns(v.values[:, None])[:, 0]
        return GridFunction(self.grid, values)

    def apply_l(self, v: GridFunction) -> GridFunction:
        """Full linearization L_eps V = B_eps V - M_eps V."""
        if v.grid != self.grid:
            raise GridMismatchError("operand grid differs from operator grid")
        b_part = apply_symbol(v.values, self._b_diagonal)
        return GridFunction(self.grid, b_part) - self.apply_m(v)

    @cached_property
    def _assembled(self):
        basis = _even_basis(self.grid)
        n_modes = basis.shape[1]
        norms = _even_norms(self.grid)
        half_phase = np.where(np.arange(n_modes) % 2 == 0, 1.0, -1.0)
        coupling = np.empty((n_modes, n_modes))
        for start in range(0, n_modes, _ASSEMBLY_BLOCK):
            stop = min(start + _ASSEMBLY_BLOCK, n_modes)
            applied = self._coupling_columns(basis[:, start:stop])
            projected = self.grid.spacing * np.fft.rfft(applied, axis=0).real
            coupling[:, start:stop] = (norms * half_phase)[:, None] * projected
        matrix = np.diag(self._b_diagonal) - coupling
        defect = float(np.max(np.abs(matrix - matrix.T)))
        matrix = 0.5 * (matrix + matrix.T)
        return matrix, defect

    def even_matrix(self) -> NDArray[np.float64]:
        """Dense symmetric matrix of L_eps in the orthonormal even basis."""
        return self._assembled[0]

    @property
    def asymmetry_defect(self) -> float:
        """Max-entry asymmetry removed by the final symmetrization."""
        return self._assembled[1]

    @cached_property
    def _lu(self):
        return lu_factor(self.even_matrix())

    @cached_property
    def _sigma_min(self) -> float:
        # norm-ratio inverse iteration on the cached LU; deterministic seed.
        # Falls back to a dense eigensolve when the bottom of the spectrum is
        # clustered and the iteration stalls.
        rng = np.random.default_rng(12345)
        x = rng.standard_normal(self.even_matrix().shape[0])
        x /= np.linalg.norm(x)
        estimate = np.inf
        for _ in range(300):
            try:
                y = lu_solve(self._lu, x)
            except Exception:
                return 0.0
            norm_y = float(np.linalg.norm(y))
            if not np.isfinite(norm_y) or norm_y == 0.0:
                return 0.0
            current = 1.0 / norm_y
            x = y / norm_y
            if abs(current - estimate) <= 1e-12 * max(current, 1e-300):
                return current
            estimate = current
        return float(np.min(np.abs(np.linalg.eigvalsh(self.even_matrix()))))

    def smallest_singular_value(self) -> float:
        """sigma_min of the assembled even-subspace matrix."""
        return self._sigma_min

    def solve(self, g: GridFunction, tol: float = 1e-12) -> GridFunction:
        """Solve L_eps V = G on the even subspace to a verified residual.

        The input must be numerically even; sub-gate odd round-off is
        projected away, since the even-restricted operator cannot represent
        it. Raises ``NearSingularError`` when the operator leaves its
        invertibility regime and ``NoConvergenceError`` if the factorization
        plus one refinement step cannot reach ``tol * max(1, ||G||_2)``.
        """
        if g.grid != self.grid:
            raise GridMismatchError("right-hand side grid differs from operator grid")
        g_norm = l2_norm(g)
        odd_part = 0.5 * float(
            np.sqrt(self.grid.spacing * np.sum((g.values - g.reflected()) ** 2))
        )
        if odd_part > _EVENNESS_GATE * max(1.0, g_norm):
            raise NotEvenError(
                f"right-hand side has odd contamination {odd_part:.3e} "
                f"(gate {_EVENNESS_GATE:g} relative)"
            )
        if self.smallest_singular_value() < NEAR_SINGULAR_THRESHOLD:
            raise NearSingularError(
                f"sigma_min = {self.smallest_singular_value():.3e} below "
                f"{NEAR_SINGULAR_THRESHOLD:g}"
            )
        g_even = project_even(g)
        rhs = even_coefficients(g_even)
        coeffs = lu_solve(self._lu, rhs)
        budget = tol * max(1.0, g_norm)
        for _ in range(2):
            solution = even_synthesis(self.grid, coeffs)
            residual = l2_norm(self.apply_l(solution) - g_even)
            if residual <= budget:
                return solution
            matrix = self.even_matrix()
            coeffs = coeffs + lu_solve(self._lu, rhs - matrix @ coeffs)
        raise NoConvergenceError(
            f"linear solve residual {residual:.3e} above budget {budget:.3e}"
        )


@lru_cache(maxsize=6)
def linearized_operator(
    model: ChainModel,
    grid: SpectralGrid,
    eps: float,
    profile_coupling: bool = True,
) -> LinearizedOperator:
    """Cached operator for a (model, grid, eps) combination."""
    return LinearizedOperator(model, grid, eps, kdv_profile(model, grid), profile_coupling)
