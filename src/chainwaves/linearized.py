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
nearest 0, found by Lanczos on L_eps^{-1} (shift-invert about 0) with MINRES
as the inner solve. Both Krylov methods are implemented here on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

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
_LANCZOS_STEPS = 64  # inner solves before sigma_min gives up; M1-M3 need 14-27
_EPS = float(np.finfo(float).eps)


def _preconditioned_minres(matvec, weights, b, rtol, x0=None):
    """MINRES (Paige & Saunders 1975) for a symmetric A x = b.

    ``weights`` is the diagonal of the SPD preconditioner, applied as an
    elementwise product. The stopping tests are those of SciPy's translation
    of the SOL code: stop once ||r|| <= rtol ||A|| ||x|| (test1) or
    ||A r|| <= rtol ||A|| ||r|| (test2), either test reaches round-off, the
    estimate Acond of cond(A) reaches 0.1/eps, ||A|| ||x|| eps reaches the
    preconditioned norm beta1 of the first residual (epsx), or after 5 n
    steps. Returns the last iterate.
    """
    n = b.size
    x = np.zeros(n) if x0 is None else x0.copy()
    r1 = b.copy() if x0 is None else b - matvec(x)
    y = weights * r1
    beta1 = float(np.dot(r1, y))
    if beta1 == 0.0:
        return x
    beta1 = math.sqrt(beta1)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin, cs, sn = 0.0, 0.0, np.inf, -1.0, 0.0
    w, w2, r2 = np.zeros(n), np.zeros(n), r1
    for itn in range(1, 5 * n + 1):
        v = (1.0 / beta) * y
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(np.dot(v, y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = weights * r2
        oldb, beta = beta, math.sqrt(float(np.dot(r2, y)))
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # previous rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), _EPS)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)
        ynorm = float(np.linalg.norm(x))
        test1 = phibar / (anorm * ynorm) if anorm * ynorm > 0 else np.inf
        test2 = root / anorm if anorm > 0 else np.inf
        if itn == 1 and beta / beta1 <= 10 * _EPS:
            break  # the first residual spans an invariant subspace
        if (
            min(test1, test2) <= rtol
            or 1.0 + min(test1, test2) <= 1.0
            or gmax / gmin >= 0.1 / _EPS
            or anorm * ynorm * _EPS >= beta1
        ):
            break
    return x


def _shift_invert_lanczos(solve, start):
    """Eigenvector for the eigenvalue nearest 0 of a symmetric operator, by
    Lanczos on its inverse.

    ``solve`` applies the inverse. The basis is fully reorthogonalized by
    two classical Gram-Schmidt passes. As ARPACK does at tol = 0, the run
    stops once the Ritz estimate beta_j |s_ji| of the largest-magnitude Ritz
    value theta is at most eps |theta|, and returns that unit Ritz vector;
    None if ``_LANCZOS_STEPS`` solves do not get there. The basis holds at
    most that many vectors, so memory stays O(n).
    """
    basis = np.empty((_LANCZOS_STEPS, start.size))
    alphas, betas = [], []
    v = start / np.linalg.norm(start)
    for j in range(_LANCZOS_STEPS):
        basis[j] = v
        w = solve(v)
        alpha = 0.0
        for _ in range(2):
            coefficients = basis[: j + 1] @ w
            w -= coefficients @ basis[: j + 1]
            alpha += float(coefficients[j])
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        i = int(np.argmax(np.abs(ritz)))
        if beta * abs(vectors[-1, i]) <= _EPS * abs(ritz[i]):
            return vectors[:, i] @ basis[: j + 1]
        betas.append(beta)
        v = w / beta
    return None


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
        """Coupling data: the (M, N) columns c_m and the (M, N/2 + 1) window
        symbols (all symbols 1 at eps = 0), one row per neighbor range."""
        ranges = np.arange(1, self.model.neighbor_range + 1)
        symbols = np.stack([averaging_symbol(self.grid, m * self.eps) for m in ranges])
        n = self.grid.num_points
        averages = np.fft.irfft(symbols * np.fft.rfft(self.w0.values), n=n)
        columns = averages * (2.0 * np.array(self.model.beta) * ranges**3)[:, None]
        if self.model.psi.kind != "none" and self.eps > 0:
            for j, m in enumerate(ranges):
                second = self.model.psi.second(m, (m * self.eps**2) * averages[j])
                columns[j] += (m**2 / self.eps**2) * second
        return columns, symbols

    def _coupling_spectrum(self, spectrum: NDArray) -> NDArray:
        """rfft of M V = sum_m A_{m eps}(c_m A_{m eps} V) from the rfft of V."""
        columns, symbols = self._assembled
        inner = np.fft.irfft(symbols * spectrum, n=self.grid.num_points)
        return np.sum(np.fft.rfft(columns * inner) * symbols, axis=0)

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

    def _apply_even(self, coefficients: NDArray) -> NDArray:
        """L_eps in orthonormal cosine coordinates."""
        scale = _cosine_scale(self.grid)
        coupling = self._coupling_spectrum(coefficients / scale).real
        return self._b_diagonal * coefficients - scale * coupling

    def _minres(self, rhs: NDArray, tol: float, x0: NDArray | None = None) -> NDArray:
        """MINRES in cosine coordinates, preconditioned by B_eps^{-1}.

        Its stopping test bounds a preconditioned residual relative to the
        iterate, so it runs to tol / 100 to leave room for the plain
        residual bound that ``solve`` certifies.
        """
        weights = 1.0 / self._b_diagonal
        return _preconditioned_minres(self._apply_even, weights, rhs, 1e-2 * tol, x0)

    @cached_property
    def _sigma_min(self) -> float:
        # Lanczos on L_eps^{-1} from a fixed start vector: the eigenvalue of
        # the symmetric L_eps nearest 0, deterministically
        start = np.random.default_rng(12345).standard_normal(self._b_diagonal.size)
        vector = _shift_invert_lanczos(lambda c: self._minres(c, 1e-12), start)
        if vector is None:
            return 0.0
        # the Rayleigh quotient of L_eps itself: 1/theta carries the bias of
        # the inexact inner solves (1e-14 relative at M1, eps = 1, N = 16384),
        # the quotient of the exact operator only its square
        return abs(float(vector @ self._apply_even(vector)))

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
