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
FFT and a forward one, and the operator stores O(N) numbers. On grid
functions, ``apply_l`` is one rfft, b S - rfft(M V) on the spectrum S, and
one irfft: 2 + 2M length-N transforms. L is symmetric indefinite; solves
are defect correction (preconditioned Richardson; Xu, SIAM Review 34, 1992)
with a two-level signed inverse P: the dense inverse of the leading block of
max(129, m) cosine modes, m the rung that certified sigma_min below, and
B_eps^{-1} on the rest. P is nearly L^{-1}, so x += P (g - L x) contracts.
``solve`` takes and returns cosine coordinates and corrects until the plain
residual ||L x - g||_2, one application in coordinates and by Parseval the
grid residual, is within the absolute budget TOL max(1, ||G||), with the
constant TOL = 1e-12 that also ends the corrector's iteration. That
residual is the certificate; a correction that does not halve it raises.
On the default domain a corrector step takes one correction.

sigma_min is the eigenvalue nearest 0, found by the two-level scheme of Xu &
Zhou (Math. Comp. 70, 2001) with the Galerkin coarse space of the first m
cosine modes. Its eigenvector is smooth and localized, so the eigenvalue is
converged in a few hundred modes. The leading m x m block of L_eps, the
restriction of the solve-grid matrix to that space, is written in closed
form by ``even_matrix(m)`` (a Toeplitz plus a Hankel matrix per neighbor
range, with no application of L). ``np.linalg.eigvalsh`` gives its
eigenvalue theta_b nearest 0, globally, and one inverse-iteration solve its
vector x. Zero-padded, x gives the Rayleigh quotient theta of L_eps at one
application, accurate to the square of the vector's error (Parlett, The
Symmetric Eigenvalue Problem, 4.6). A rung is accepted once theta agrees
with theta_b and, below m = N/2 + 1, ||L x - theta x|| <= 1e-8 |theta|, so
a wrong vector moves the ladder up a rung, never to another eigenvalue. An
uncertified last rung gives sigma_min = 0, which ``solve`` turns into
``NearSingularError``. Only the certified rung's size is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import GridMismatchError, NearSingularError, NoConvergenceError
from .grid import GridFunction, SpectralGrid
from .model import ChainModel, PsiFamily, kdv_profile
from .operators import averaging_stack, b_diagonal

__all__ = ["LinearizedOperator", "linearized_operator", "cosine_scale", "even_coefficients",
           "even_synthesis"]

NEAR_SINGULAR_THRESHOLD = 1e-8
TOL = 1e-12  # relative budget of each linear solve and of the corrector's increments
_COARSE_MODES = (97, 129, 257, 513, 1025)  # sigma_min's leading-block ladder, capped at N/2 + 1
_PRECONDITIONER_MODES = 129  # least preconditioner block: 97 modes doubled the corrections
_CERTIFICATE = 1e-8  # relative residual and eigenvalue gap that accept a rung


@lru_cache(maxsize=8)
def cosine_scale(grid: SpectralGrid) -> NDArray[np.float64]:
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
    return cosine_scale(f.grid) * np.fft.rfft(f.values).real


def even_synthesis(grid: SpectralGrid, coefficients) -> GridFunction:
    """Grid function sum_n coeff_n e_n from cosine-basis coordinates."""
    coefficients = np.asarray(coefficients, dtype=float)
    n_modes = grid.num_points // 2 + 1
    if coefficients.shape != (n_modes,):
        raise ValueError(f"expected {n_modes} coefficients, got {coefficients.shape}")
    values = np.fft.irfft(coefficients / cosine_scale(grid), n=grid.num_points)
    return GridFunction(grid, values)


def _nearest_zero_eigenpair(block: NDArray) -> tuple[float, NDArray[np.float64]]:
    """The eigenvalue theta_b of the symmetric ``block`` nearest 0 and its unit vector
    from one inverse-iteration solve (Parlett, ch. 4), shifted one rounding unit of
    the block's norm above theta_b, which keeps the solve regular if theta_b is exact."""
    values = np.linalg.eigvalsh(block)
    theta_b = float(values[np.argmin(np.abs(values))])
    shift = theta_b + np.finfo(float).eps * float(np.max(np.abs(values)))
    vector = np.linalg.solve(block - shift * np.eye(len(block)), np.ones(len(block)))
    return theta_b, vector / np.linalg.norm(vector)


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
    def w0_spectrum(self) -> NDArray[np.complex128]:
        """rfft of the profile ``w0``."""
        return np.fft.rfft(self.w0.values)

    @cached_property
    def _assembled(self):
        """Coupling data: the (M, N) columns c_m, one row per neighbor range,
        and the stack of window averages A_{m eps} (all symbols 1 at eps = 0)."""
        ranges = np.arange(1, self.model.neighbor_range + 1)
        stack = averaging_stack(self.grid, self.eps, self.model.neighbor_range)
        averages = stack.average(self.w0_spectrum)
        columns = averages * (2.0 * np.array(self.model.beta) * ranges**3)[:, None]
        if self.model.psi.kind != "none" and self.eps > 0:
            for j, m in enumerate(ranges):
                second = self.model.psi.second(m, (m * self.eps**2) * averages[j])
                columns[j] += (m**2 / self.eps**2) * second
        return columns, stack

    @cached_property
    def _column_cosines(self) -> NDArray[np.float64]:
        """C = rfft(c_m).real per coupling column, shared by every block."""
        return np.fft.rfft(self._assembled[0]).real

    def _coupling_spectrum(self, spectrum: NDArray) -> NDArray:
        """rfft of M V = sum_m A_{m eps}(c_m A_{m eps} V) from the rfft of V."""
        columns, stack = self._assembled
        return stack.adjoint_sum(columns * stack.average(spectrum))

    def apply_l(self, v: GridFunction) -> GridFunction:
        """The Jacobian J_w V = B_eps V - M V in one spectral pass: one rfft
        of V, b S - rfft(M V) on its spectrum S, and one irfft, so 2 + 2M
        length-N transforms."""
        if v.grid != self.grid:
            raise GridMismatchError("operand grid differs from operator grid")
        spectrum = np.fft.rfft(v.values)
        b = b_diagonal(self.model, self.grid, self.eps)
        spectrum = b * spectrum - self._coupling_spectrum(spectrum)
        return GridFunction(self.grid, np.fft.irfft(spectrum, n=self.grid.num_points))

    def _apply_even(self, coefficients: NDArray) -> NDArray:
        """L_eps in orthonormal cosine coordinates."""
        scale = cosine_scale(self.grid)
        coupling = self._coupling_spectrum(coefficients / scale).real
        return b_diagonal(self.model, self.grid, self.eps) * coefficients - scale * coupling

    def even_matrix(self, modes: int) -> NDArray[np.float64]:
        """Dense leading ``modes`` x ``modes`` block of L_eps in the
        orthonormal cosine coordinates of ``even_coefficients``, in closed
        form: L_eps on the first ``modes`` cosine modes, all of them at
        ``modes`` = N/2 + 1.

        On the real rfft S of an even V, V -> rfft(c irfft(S)) is the matrix

            K[j, n] = w_n (C[|j - n|] + C[fold(j + n)]) / (2N),

        with C = rfft(c).real, the half-lattice weights w_n and
        fold(k) = min(k, N - k): the product of two cosines splits into a
        Toeplitz and a Hankel part. So L is
        diag(b) - diag(scale) sum_m diag(s_m) K_m diag(s_m) diag(1/scale),
        and both parts are strided views of one vector; no basis vector is
        applied.
        """
        stack = self._assembled[1]
        n, m = self.grid.num_points, modes
        scale = cosine_scale(self.grid)[:m]
        column_factor = self.grid.half_weights[:m] / ((2.0 * n) * scale)
        matrix = np.diag(b_diagonal(self.model, self.grid, self.eps)[:m])
        for spectrum, symbol in zip(self._column_cosines, stack.symbols[:, :m]):
            toeplitz = sliding_window_view(np.concatenate([spectrum[m - 1:0:-1], spectrum[:m]]), m)
            folded = np.concatenate([spectrum, spectrum[-2::-1]])[: 2 * m - 1]
            block = toeplitz[::-1] + sliding_window_view(folded, m)
            block *= (scale * symbol)[:, None]
            block *= symbol * column_factor
            matrix -= block
        return matrix

    @cached_property
    def _preconditioner(self):
        """The signed inverse of L_eps on the first m = max(129, certified
        rung) cosine coordinates, capped at N/2 + 1, as the dense inverse of
        their block, built on the first solve; B_eps^{-1} on the rest.

        The low block is the exact inverse of L_eps restricted to those
        modes, negative direction included, and the coupling of L_eps is
        smooth, so it links them only weakly to the rest, where B_eps
        dominates L_eps. So I - P L_eps is a contraction, which an SPD map
        such as V |Lambda|^{-1} V^T is not: it flips the negative direction.
        """
        m = min(max(_PRECONDITIONER_MODES, self._coarse_eigenpairs[1]), cosine_scale(self.grid).size)
        block = self.even_matrix(m)
        low = np.linalg.inv(0.5 * (block + block.T))
        inverse_b = 1.0 / b_diagonal(self.model, self.grid, self.eps)

        def precondition(r: NDArray) -> NDArray:
            y = inverse_b * r
            y[:m] = low @ r[:m]
            return y

        return precondition

    @cached_property
    def _coarse_eigenpairs(self) -> tuple[float, int]:
        """sigma_min and the size of the leading block whose eigenpair nearest
        0 certified it; (0.0, 0) when no rung is certified."""
        n_modes = self.grid.num_points // 2 + 1
        for m in dict.fromkeys(min(m, n_modes) for m in _COARSE_MODES):
            matrix = self.even_matrix(m)
            theta_b, vector = _nearest_zero_eigenpair(0.5 * (matrix + matrix.T))
            x = np.zeros(n_modes)  # the unit vector, zero-padded
            x[:m] = vector
            lx = self._apply_even(x)
            theta = float(x @ lx)
            residual = 0.0 if m == n_modes else np.linalg.norm(lx - theta * x)
            if max(abs(theta - theta_b), residual) <= _CERTIFICATE * abs(theta):
                return abs(theta), m
        return 0.0, 0

    def smallest_singular_value(self) -> float:
        """sigma_min of L_eps on the even subspace (its eigenvalue nearest 0)."""
        return self._coarse_eigenpairs[0]

    def solve(self, g: NDArray) -> NDArray[np.float64]:
        """Solve L_eps V = G on the even subspace to a verified residual.

        G is given and V returned in the cosine coordinates of
        ``even_coefficients``. The solve is defect correction with the
        preconditioner P: x = P g, then x += P r while the residual
        r = g - L x exceeds the budget ``TOL * max(1, ||G||_2)``. Each
        residual, one application in coordinates and by Parseval the grid
        residual, certifies its iterate, so the last one is the certificate.
        Raises ``NearSingularError`` when the operator leaves its
        invertibility regime and, with no restart, ``NoConvergenceError``
        once a correction fails to halve the residual (the first one that of
        x = 0), so a stalled or diverging solve ends.
        """
        g = np.asarray(g, dtype=float)
        if g.shape != cosine_scale(self.grid).shape:
            raise GridMismatchError(f"right-hand side has {g.shape} modes, not N/2 + 1")
        if self.smallest_singular_value() < NEAR_SINGULAR_THRESHOLD:
            raise NearSingularError(
                f"sigma_min = {self.smallest_singular_value():.3e} below "
                f"{NEAR_SINGULAR_THRESHOLD:g}"
            )
        previous = float(np.linalg.norm(g))
        budget = TOL * max(1.0, previous)
        x = self._preconditioner(g)
        residual = g - self._apply_even(x)
        norm = float(np.linalg.norm(residual))
        while norm > budget:
            if norm > 0.5 * previous:
                raise NoConvergenceError(
                    f"linear solve residual {norm:.3e} above budget {budget:.3e} "
                    f"and not halved from {previous:.3e}"
                )
            x += self._preconditioner(residual)
            residual = g - self._apply_even(x)
            previous, norm = norm, float(np.linalg.norm(residual))
        return x


@lru_cache(maxsize=6)
def linearized_operator(model: ChainModel, grid: SpectralGrid, eps: float) -> LinearizedOperator:
    """Cached L_eps for a (model, grid, eps) combination: the Jacobian at w0
    of the psi-free model."""
    return LinearizedOperator(
        replace(model, psi=PsiFamily()), grid, eps, kdv_profile(model, grid)
    )
