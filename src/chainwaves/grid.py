"""Uniform periodic grid with Fourier-based calculus for decaying profiles.

The real-line problem is truncated to a periodic box [-L, L). Profiles that
decay below round-off at the boundary can be treated as functions on the whole
line: the discrete transform then approximates the continuum Fourier integral,
and the rectangle-rule norm the continuum L2 norm.

Every operator of the package is a real symbol even in k, so the real FFT's
half spectrum is the only Fourier convention: a mode n stands for the pair
+-k_n, and sums over the full lattice become sums over the half lattice with
the weights w_n = 1 at n = 0 and n = N/2 and w_n = 2 in between.

A batch of profiles is a (..., N) stack of rows, transformed along the last
axis as ``np.fft`` does by default: ``apply_symbol``, ``sample`` and the
package's stacks of ranges and probes all take and return rows.

Conventions:
    nodes        x_i = -L + i*h,  h = 2L/N,  i = 0..N-1
    half lattice k_n = pi*n/L,    n = 0..N/2 (``np.fft.rfft`` order)
    forward      c_n = h * sum_i f(x_i) exp(-i k_n x_i) = h (-1)^n rfft(f)_n
    inverse      f(x) = (1/2L) * sum_n w_n Re(c_n exp(i k_n x))
    Parseval     ||f||_2^2 = h * sum_i f_i^2 = sum_n w_n |c_n|^2 / (2L)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import GridMismatchError

__all__ = [
    "SpectralGrid",
    "GridFunction",
    "make_grid",
    "apply_symbol",
    "l2_norm",
    "sup_norm",
    "evenness_defect",
    "derivative",
    "sample",
]

_SAMPLE_BLOCK = 256  # points per pair of exponential tables in ``sample``

@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid on [-L, L) paired with its half wavenumber lattice."""

    half_length: float
    num_points: int

    def __post_init__(self) -> None:
        if not 0 < self.half_length < math.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        if self.num_points < 16 or self.num_points % 2 != 0:
            raise ValueError(
                f"num_points must be even and >= 16, got {self.num_points}"
            )

    @property
    def spacing(self) -> float:
        """Node distance h = 2L/N."""
        return 2.0 * self.half_length / self.num_points

    @cached_property
    def nodes(self) -> NDArray[np.float64]:
        x = -self.half_length + self.spacing * np.arange(self.num_points)
        x.flags.writeable = False
        return x

    @cached_property
    def half_wavenumbers(self) -> NDArray[np.float64]:
        """Nonnegative k_n = pi*n/L, n = 0..N/2, matching ``np.fft.rfft`` output."""
        k = np.pi * np.arange(self.num_points // 2 + 1) / self.half_length
        k.flags.writeable = False
        return k

    @cached_property
    def half_sign(self) -> NDArray[np.float64]:
        """(-1)^n on the half lattice: exp(-i k_n x_0) at x_0 = -L, the factor
        taking rfft output to the integral convention."""
        sign = np.where(np.arange(self.num_points // 2 + 1) % 2 == 0, 1.0, -1.0)
        sign.flags.writeable = False
        return sign

    @cached_property
    def half_weights(self) -> NDArray[np.float64]:
        """Multiplicities (1, 2, ..., 2, 1) of the half-lattice modes."""
        weights = np.full(self.num_points // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        weights.flags.writeable = False
        return weights

    @cached_property
    def sobolev22_weights(self) -> NDArray[np.float64]:
        """half_weights * (1 + k^2 + k^4), the W^{2,2} weight of each half-lattice mode."""
        k2 = self.half_wavenumbers**2
        weights = self.half_weights * (1.0 + k2 + k2**2)
        weights.flags.writeable = False
        return weights

    def __repr__(self) -> str:
        return f"SpectralGrid(L={self.half_length:g}, N={self.num_points})"


def make_grid(half_length: float, num_points: int) -> SpectralGrid:
    """Construct a grid, rejecting odd or tiny point counts."""
    return SpectralGrid(float(half_length), int(num_points))


def apply_symbol(values, half_symbol) -> NDArray[np.float64]:
    """Fourier multiplier irfft(half_symbol * rfft(values)) along the last axis.

    ``values`` is an (N,) array of real samples or a (..., N) stack of rows;
    ``half_symbol`` is the symbol on ``grid.half_wavenumbers``, or a (..., N/2
    + 1) stack of symbols that broadcasts against the rows' spectra. Only the
    real part of the Nyquist entry acts, so a symbol odd in k must vanish
    there. A symbol of another length than N/2 + 1 raises ``GridMismatchError``.
    """
    values = np.asarray(values, dtype=float)
    symbol = np.asarray(half_symbol)
    size, entries = values.shape[-1], symbol.shape[-1]
    if entries != size // 2 + 1:
        raise GridMismatchError(f"symbol has {entries} entries, samples need {size // 2 + 1}")
    return np.fft.irfft(symbol * np.fft.rfft(values), n=size)


@dataclass
class GridFunction:
    """Real samples of a profile on a :class:`SpectralGrid`.

    Values are locked against mutation after construction.
    """

    grid: SpectralGrid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float, copy=True)
        if values.shape != (self.grid.num_points,):
            raise ValueError(
                f"expected {self.grid.num_points} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        values.flags.writeable = False
        self.values = values

    def _check_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise GridMismatchError(f"{self.grid} vs {other.grid}")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_grid(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)


def l2_norm(f: GridFunction) -> float:
    """Rectangle-rule L2 norm (h * sum f_i^2)^(1/2).

    Exact for trigonometric polynomials by Parseval; approximates the
    continuum norm for profiles decaying below 1e-12 at the boundary.
    """
    return float(np.sqrt(f.grid.spacing * np.sum(f.values**2)))


def sup_norm(f: GridFunction) -> float:
    """max_i |f_i|."""
    return float(np.max(np.abs(f.values)))


def evenness_defect(f: GridFunction) -> float:
    """Sup-norm of the odd part, |f(x) - f(-x)|/2; x_i -> -x_i maps node i to N - i."""
    return float(0.5 * np.max(np.abs(f.values - np.roll(f.values[::-1], 1))))


def derivative(f: GridFunction, order: int) -> GridFunction:
    """Spectral derivative of order 1..4; exact for band-limited inputs.

    The Nyquist mode is zeroed for odd orders, removing the asymmetric mode.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    multiplier = (1j * f.grid.half_wavenumbers) ** order
    if order % 2 == 1:
        multiplier[-1] = 0.0
    return GridFunction(f.grid, apply_symbol(f.values, multiplier))


def sample(grid: SpectralGrid, values, points) -> NDArray[np.float64]:
    """Band-limited (trigonometric interpolant) evaluation at arbitrary points.

    ``values`` holds samples on the nodes, an (N,) array or a (B, N) stack of
    rows as for :func:`apply_symbol`; the result is (P,) or (B, P) for P
    points.

    The sum over the N/2+1 modes runs baby-step/giant-step: with
    n = q S + r and S = floor(sqrt(N/2)), exp(i k_n x) factors into
    exp(i k_r x) exp(i k_{qS} x), so for each block of 256 points a 256 x S
    and a 256 x Q table of exponentials, Q = ceil((N/2+1)/S), take the place
    of the P x (N/2+1) phase matrix, and memory beyond the result is O(N).
    Each point and row is reduced on its own, so a row of a stack, or a run
    of two or more points, is bitwise what a call on it alone gives.
    """
    values = np.asarray(values, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    coeff = grid.half_weights * grid.half_sign * np.fft.rfft(values) / grid.num_points
    modes = coeff.shape[-1]
    baby_steps = math.isqrt(grid.num_points // 2)
    giant_steps = -(-modes // baby_steps)
    padded = np.zeros(coeff.shape[:-1] + (giant_steps * baby_steps,), dtype=complex)
    padded[..., :modes] = coeff
    giant_k = np.pi * np.arange(0, padded.shape[-1], baby_steps) / grid.half_length
    # per row, c_{qS + r} at (r, q) of an (S, Q) square
    squares = padded.reshape(-1, giant_steps, baby_steps).transpose(0, 2, 1)
    out = np.empty(coeff.shape[:-1] + pts.shape)
    rows = out.reshape(len(squares), len(pts))
    # a lone last point joins the block before: a one-row product rounds otherwise
    edges = [0, *range(_SAMPLE_BLOCK, len(pts) - 1, _SAMPLE_BLOCK), len(pts)]
    for block in map(slice, edges[:-1], edges[1:]):
        baby = np.exp(1j * np.outer(pts[block], grid.half_wavenumbers[:baby_steps]))
        giant = np.exp(1j * np.outer(pts[block], giant_k))
        for row, square in zip(rows, squares):
            row[block] = np.einsum("pq,pq->p", giant, baby @ square).real
    return out
