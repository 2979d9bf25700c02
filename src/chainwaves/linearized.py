"""Jacobian of the traveling-wave defect and its even-subspace solve.

At an even profile w the defect G_eps(w) = B_eps w - Q_eps[w] - eps^2 P_eps[w]
of ``model.tw_defect`` has the Jacobian

    J_w V = B_eps V - sum_m A_{m eps}(c_m A_{m eps} V),
    c_m   = 2 beta_m m^3 A_{m eps} w + (m^2/eps^2) psi''_m(m eps^2 A_{m eps} w),

whose psi'' term vanishes at eps = 0. The corrector inverts the paper's
L_eps = J_{w0} of the quadratic model (psi = none), with the eps = 0 limit
L_0 = B_0 - 2 (sum_m beta_m m^3) w0. The kernel direction w0' is odd, so
L is invertible on the even subspace. There it is applied matrix-free in
the orthonormal cosine coordinates of ``even_coefficients``, where B_eps and
every A_{m eps} are diagonal: one application costs a batched inverse real
FFT and a forward one, and the operator stores O(N) numbers. L is symmetric
indefinite, so solves use MINRES (Paige & Saunders 1975) preconditioned by
the SPD B_eps^{-1}, whose symbol is at most 1; sigma_min is the eigenvalue
nearest 0, found by shift-invert Lanczos with MINRES as the inner solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import diags_array
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, minres

from .errors import GridMismatchError, NearSingularError, NoConvergenceError, NotEvenError
from .grid import GridFunction, SpectralGrid, apply_symbol, l2_norm, project_even
from .model import ChainModel, PsiFamily, kdv_profile
from .operators import averaging_symbol, b0_symbol, b_symbol

__all__ = [
    "LinearizedOperator",
    "linearized_operator",
    "even_coefficients",
    "even_synthesis",
]

NEAR_SINGULAR_THRESHOLD = 1e-8
_EVENNESS_GATE = 1e-8


@lru_cache(maxsize=8)
def _cosine_scale(grid: SpectralGrid) -> NDArray[np.float64]:
    """Cosine-basis coordinate per real rfft entry of an even function.

    The orthonormal modes are e_n(x_i) = norm_n cos(k_n x_i); the
    coordinates of an even f are ``scale * rfft(f).real``, and its rfft
    spectrum is ``coefficients / scale``.
    """
    norms = np.sqrt(0.5 * grid.half_weights) / np.sqrt(grid.half_length)
    scale = grid.spacing * norms * grid.half_sign
    scale.flags.writeable = False
    return scale


def even_coefficients(f: GridFunction) -> NDArray[np.float64]:
    """Coordinates of the even part of f in the orthonormal cosine basis."""
    return _cosine_scale(f.grid) * np.fft.rfft(f.values).real


def even_synthesis(grid: SpectralGrid, coefficients) -> GridFunction:
    """Grid function sum_n coeff_n e_n from cosine-basis coordinates."""
    coefficients = np.asarray(coefficients, dtype=float)
    n_modes = grid.num_points // 2 + 1
    if coefficients.shape != (n_modes,):
        raise ValueError(f"expected {n_modes} coefficients, got {coefficients.shape}")
    values = np.fft.irfft(coefficients / _cosine_scale(grid), n=grid.num_points)
    return GridFunction(grid, values)


@dataclass(frozen=True)
class LinearizedOperator:
    """Jacobian J_w of the traveling-wave defect at the profile ``w0``,
    restricted to even profiles and applied matrix-free.

    ``eps = 0`` selects the limiting operator. The coupling data and the
    smallest singular value are computed lazily and cached on the instance.
    """

    model: ChainModel
    grid: SpectralGrid
    eps: float
    w0: GridFunction

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.w0.grid != self.grid:
            raise GridMismatchError("profile and operator grids differ")

    @cached_property
    def _b_diagonal(self) -> NDArray[np.float64]:
        """Symbol of B_eps on ``grid.half_wavenumbers``, its diagonal in
        cosine coordinates."""
        k = self.grid.half_wavenumbers
        if self.eps == 0:
            return np.asarray(b0_symbol(self.model, k))
        return np.asarray(b_symbol(self.model, self.eps, k))

    @cached_property
    def _assembled(self):
        """Coupling data: the (N, M) columns c_m and the (N/2 + 1, M) window
        symbols (all symbols 1 at eps = 0)."""
        ranges = np.arange(1, self.model.neighbor_range + 1)
        symbols = np.stack([averaging_symbol(self.grid, m * self.eps) for m in ranges], axis=1)
        n = self.grid.num_points
        averages = np.fft.irfft(symbols * np.fft.rfft(self.w0.values)[:, None], n=n, axis=0)
        columns = averages * (2.0 * np.array(self.model.beta) * ranges**3)
        if self.model.psi.kind != "none" and self.eps > 0:
            for j, m in enumerate(ranges):
                second = self.model.psi.second(m, (m * self.eps**2) * averages[:, j])
                columns[:, j] += (m**2 / self.eps**2) * second
        return columns, symbols

    def _coupling_spectrum(self, spectrum: NDArray) -> NDArray:
        """rfft of M V = sum_m A_{m eps}(c_m A_{m eps} V) from the rfft of V."""
        columns, symbols = self._assembled
        inner = np.fft.irfft(symbols * spectrum[:, None], n=self.grid.num_points, axis=0)
        return np.sum(np.fft.rfft(columns * inner, axis=0) * symbols, axis=1)

    def apply_m(self, v: GridFunction) -> GridFunction:
        """Coupling term M V = B_eps V - J_w V; maps even functions to even ones."""
        if v.grid != self.grid:
            raise GridMismatchError("operand grid differs from operator grid")
        spectrum = self._coupling_spectrum(np.fft.rfft(v.values))
        return GridFunction(self.grid, np.fft.irfft(spectrum, n=self.grid.num_points))

    def apply_l(self, v: GridFunction) -> GridFunction:
        """The Jacobian J_w V = B_eps V - M V."""
        coupling = self.apply_m(v)
        return GridFunction(self.grid, apply_symbol(v.values, self._b_diagonal)) - coupling

    @cached_property
    def _even_operator(self) -> LinearOperator:
        """L_eps in orthonormal cosine coordinates."""
        scale = _cosine_scale(self.grid)

        def matvec(coefficients):
            coefficients = np.ravel(coefficients)
            coupling = self._coupling_spectrum(coefficients / scale).real
            return self._b_diagonal * coefficients - scale * coupling

        return LinearOperator((scale.size, scale.size), matvec=matvec, dtype=float)

    def _minres(self, rhs: NDArray, tol: float, x0: NDArray | None = None) -> NDArray:
        """MINRES in cosine coordinates, preconditioned by B_eps^{-1}.

        Its stopping test bounds a preconditioned residual relative to the
        iterate, so it runs to tol / 100 to leave room for the plain
        residual bound that ``solve`` certifies.
        """
        preconditioner = diags_array(1.0 / self._b_diagonal)
        return minres(self._even_operator, rhs, x0=x0, rtol=1e-2 * tol, M=preconditioner)[0]

    @cached_property
    def _sigma_min(self) -> float:
        # shift-invert Lanczos about 0 from a fixed start vector: the
        # eigenvalue of the symmetric L_eps nearest 0, deterministically
        operator = self._even_operator
        inverse = LinearOperator(
            operator.shape, matvec=lambda c: self._minres(np.ravel(c), 1e-12), dtype=float
        )
        start = np.random.default_rng(12345).standard_normal(operator.shape[0])
        try:
            eigenvalue = eigsh(
                operator, k=1, sigma=0.0, OPinv=inverse, v0=start, return_eigenvectors=False
            )[0]
        except (ArpackError, ArpackNoConvergence):
            return 0.0
        return float(abs(eigenvalue))

    def smallest_singular_value(self) -> float:
        """sigma_min of L_eps on the even subspace (its eigenvalue nearest 0)."""
        return self._sigma_min

    def solve(self, g: GridFunction, tol: float = 1e-12) -> GridFunction:
        """Solve L_eps V = G on the even subspace to a verified residual.

        The input must be numerically even; sub-gate odd round-off is
        projected away, since the even-restricted operator cannot represent
        it. Raises ``NearSingularError`` when the operator leaves its
        invertibility regime and ``NoConvergenceError`` if MINRES, restarted
        once from its own iterate, cannot reach ``tol * max(1, ||G||_2)``.
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
        budget = tol * max(1.0, g_norm)
        coeffs = None
        for _ in range(2):
            coeffs = self._minres(rhs, tol, coeffs)
            solution = even_synthesis(self.grid, coeffs)
            residual = l2_norm(self.apply_l(solution) - g_even)
            if residual <= budget:
                return solution
        raise NoConvergenceError(
            f"linear solve residual {residual:.3e} above budget {budget:.3e}"
        )


@lru_cache(maxsize=6)
def linearized_operator(model: ChainModel, grid: SpectralGrid, eps: float) -> LinearizedOperator:
    """Cached L_eps for a (model, grid, eps) combination: the Jacobian at w0
    of the psi-free model."""
    return LinearizedOperator(
        replace(model, psi=PsiFamily()), grid, eps, kdv_profile(model, grid)
    )
