"""Fourier multiplier calculus: window averages, their inverses, and cutoffs.

The sliding-window average over [x - eta/2, x + eta/2] diagonalizes in Fourier
space with symbol sinc(eta*k/2). Collecting the linear terms of the traveling
wave problem produces the operator with symbol

    b_eps(k) = 1 + sum_m alpha_m m^2 (1 - sinc^2(m k eps / 2)) / eps^2

whose formal small-eps limit is b_0(k) = 1 + (sum_m alpha_m m^4 / 12) k^2.
Both symbols are bounded below by 1, so their inverses act by safe pointwise
division. All operators here are real, even in k, parity-preserving, and
self-adjoint in the discrete L2 pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from typing import TYPE_CHECKING, Iterator

import numpy as np
from numpy.typing import NDArray

from .errors import GridMismatchError
from .grid import GridFunction, SpectralGrid, apply_symbol

if TYPE_CHECKING:
    from .model import ChainModel

__all__ = [
    "sinc",
    "MultiplierOperator",
    "averaging_symbol",
    "AveragingStack",
    "averaging_stack",
    "averaging_operator",
    "averaging_direct",
    "translate",
    "discrete_gradient",
    "b_symbol",
    "b0_symbol",
    "b_operator",
    "b0_operator",
    "invert_b",
    "invert_b0",
    "cutoff",
    "cutoff_symbol",
    "von_neumann_partial_sums",
    "von_neumann_inverse",
]

_SINC_SERIES_CUTOFF = 1e-4


def sinc(z):
    """sin(z)/z with the removable singularity handled by series.

    Below |z| = 1e-4 the truncated series 1 - z^2/6 + z^4/120 is exact to
    double precision and avoids the 0/0 form.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    z2 = z * z
    series = 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    out = np.where(small, series, np.sin(safe) / safe)
    return out if out.ndim else float(out)


def _one_minus_sinc_sq(z):
    """1 - sinc(z)^2 without cancellation near z = 0.

    Series through z^8 below |z| = 0.05 keeps full precision; the direct
    formula is accurate elsewhere.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 0.05
    z2 = z * z
    series = z2 * (1.0 / 3.0 + z2 * (-2.0 / 45.0 + z2 * (1.0 / 315.0 - z2 * 2.0 / 14175.0)))
    s = sinc(np.where(small, 1.0, z))
    return np.where(small, series, 1.0 - np.asarray(s) ** 2)


@dataclass(frozen=True)
class MultiplierOperator:
    """Diagonal-in-Fourier operator: a real symbol, even in k, on ``grid.half_wavenumbers``."""

    grid: SpectralGrid
    symbol: NDArray[np.float64]

    def __post_init__(self) -> None:
        symbol = np.array(self.symbol, dtype=float, copy=True)
        n_modes = self.grid.num_points // 2 + 1
        if symbol.shape != (n_modes,):
            raise ValueError(f"symbol needs {n_modes} entries, got {symbol.shape}")
        if not np.all(np.isfinite(symbol)):
            raise ValueError("symbol values must be finite")
        symbol.flags.writeable = False
        object.__setattr__(self, "symbol", symbol)

    def apply(self, f: GridFunction) -> GridFunction:
        """Multiply coefficients by the symbol; preserves realness and parity."""
        if f.grid != self.grid:
            raise GridMismatchError(f"operator on {self.grid}, function on {f.grid}")
        return GridFunction(self.grid, apply_symbol(f.values, self.symbol))


@lru_cache(maxsize=32)
def averaging_symbol(grid: SpectralGrid, eta: float) -> NDArray[np.float64]:
    """Symbol sinc(eta*k/2) of the width-eta window average on ``grid.half_wavenumbers``."""
    symbol = np.asarray(sinc(0.5 * eta * grid.half_wavenumbers))
    symbol.flags.writeable = False
    return symbol


@dataclass(frozen=True)
class AveragingStack:
    """The window averages A_{m eps}, m = 1..M, as one (M, N/2 + 1) symbol array.

    ``average`` applies every A_{m eps} to one spectrum with one batched
    inverse FFT; ``adjoint_sum`` takes (M, N) rows back to the spectrum of
    sum_m A_{m eps} row_m with one batched forward FFT (each A is
    self-adjoint). Every symbol is 1 at eps = 0.
    """

    grid: SpectralGrid
    symbols: NDArray[np.float64]

    def average(self, spectrum: NDArray) -> NDArray[np.float64]:
        """(M, N) samples of A_{m eps} f from the rfft of f."""
        return np.fft.irfft(self.symbols * spectrum, n=self.grid.num_points)

    def adjoint_sum(self, rows: NDArray) -> NDArray:
        """rfft of sum_m A_{m eps} row_m."""
        return np.sum(np.fft.rfft(rows) * self.symbols, axis=0)


@lru_cache(maxsize=8)
def averaging_stack(grid: SpectralGrid, eps: float, count: int) -> AveragingStack:
    # cached: the corrector evaluates the defect with the same stack every step
    symbols = np.stack([averaging_symbol(grid, m * eps) for m in range(1, count + 1)])
    symbols.flags.writeable = False
    return AveragingStack(grid, symbols)


def averaging_operator(grid: SpectralGrid, eta: float) -> MultiplierOperator:
    """Sliding-window average of width eta, symbol sinc(eta*k/2)."""
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return MultiplierOperator(grid, averaging_symbol(grid, eta))


def _window_rule(eta: float, count: int):
    """Gauss-Legendre offsets and weights for (1/eta) int_{-eta/2}^{eta/2} g(o) do."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return 0.5 * eta * nodes, 0.5 * weights


def averaging_direct(eta: float, f: GridFunction) -> GridFunction:
    """Window average by direct quadrature instead of the closed-form symbol.

    Each Gauss-Legendre node translates the profile through its band-limited
    interpolant, a phase exp(i k o) on its coefficients, and the rule then
    integrates over the window. The nodes are symmetric, so the phases reduce
    to cos(k o). With ceil(eta*max|k|/2) + 20 nodes the rule integrates every
    mode on the grid to round-off.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    k = f.grid.half_wavenumbers
    offsets, weights = _window_rule(eta, math.ceil(0.5 * eta * k[-1]) + 20)
    window = np.cos(np.outer(k, offsets)) @ weights
    return GridFunction(f.grid, apply_symbol(f.values, window))


def translate(f: GridFunction, shift: float) -> GridFunction:
    """Samples of x -> f(x + shift) via phase multiplication.

    The Nyquist mode is zeroed: for shifts off the grid it has no
    symmetric real representation.
    """
    phase = np.exp(1j * f.grid.half_wavenumbers * shift)
    phase[-1] = 0.0
    return GridFunction(f.grid, apply_symbol(f.values, phase))


def discrete_gradient(f: GridFunction, shift: float) -> GridFunction:
    """Difference quotient over a signed shift, translations done spectrally.

    Positive shift s gives (f(x+s) - f(x))/s, negative gives
    (f(x) - f(x-|s|))/|s|. The shift need not be commensurate with the
    grid spacing.
    """
    if shift == 0:
        raise ValueError("shift must be nonzero")
    step = abs(shift)
    if shift > 0:
        diff = translate(f, step).values - f.values
    else:
        diff = f.values - translate(f, -step).values
    return GridFunction(f.grid, diff / step)


def b_symbol(model: "ChainModel", eps: float, k):
    """Symbol 1 + sum_m alpha_m m^2 (1 - sinc^2(m k eps / 2)) / eps^2, >= 1."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    k = np.asarray(k, dtype=float)
    out = np.ones_like(k)
    for m, alpha in enumerate(model.alpha, start=1):
        out = out + alpha * m**2 * _one_minus_sinc_sq(0.5 * m * k * eps) / eps**2
    return out if out.ndim else float(out)


def b0_symbol(model: "ChainModel", k):
    """Formal eps -> 0 limit 1 + (sum_m alpha_m m^4 / 12) k^2."""
    k = np.asarray(k, dtype=float)
    coeff = sum(alpha * m**4 for m, alpha in enumerate(model.alpha, start=1)) / 12.0
    out = 1.0 + coeff * k * k
    return out if out.ndim else float(out)


@lru_cache(maxsize=8)
def b_operator(model: "ChainModel", grid: SpectralGrid, eps: float) -> MultiplierOperator:
    # cached: the corrector evaluates the defect, and with it B_eps, every step
    return MultiplierOperator(grid, b_symbol(model, eps, grid.half_wavenumbers))


def b0_operator(model: "ChainModel", grid: SpectralGrid) -> MultiplierOperator:
    return MultiplierOperator(grid, b0_symbol(model, grid.half_wavenumbers))


def invert_b(model: "ChainModel", grid: SpectralGrid, eps: float, g: GridFunction) -> GridFunction:
    """Divide coefficients by b_eps; safe since the symbol is >= 1."""
    return MultiplierOperator(grid, 1.0 / b_operator(model, grid, eps).symbol).apply(g)


def invert_b0(model: "ChainModel", grid: SpectralGrid, g: GridFunction) -> GridFunction:
    return MultiplierOperator(grid, 1.0 / b0_symbol(model, grid.half_wavenumbers)).apply(g)


def cutoff_symbol(grid: SpectralGrid, eps: float) -> NDArray[np.float64]:
    """Indicator of |k| <= 4/eps on ``grid.half_wavenumbers``; the band edge is kept."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return (grid.half_wavenumbers <= 4.0 / eps).astype(float)


def cutoff(grid: SpectralGrid, eps: float, f: GridFunction) -> GridFunction:
    """Zero all modes with |k| > 4/eps; idempotent and l2-nonexpansive."""
    return MultiplierOperator(grid, cutoff_symbol(grid, eps)).apply(f)


def von_neumann_partial_sums(
    model: "ChainModel",
    grid: SpectralGrid,
    eps: float,
    f: GridFunction,
) -> Iterator[GridFunction]:
    """Partial sums partial(1), partial(2), ... of the geometric series
    representation of b_eps^{-1} f.

    With T = sum_m alpha_m m^2 A_{m eps}^2 and c0^2 = sum_m alpha_m m^2,

        partial(n) = eps^2 * sum_{i<n} T^i f / (eps^2 + c0^2)^(i+1),

    converging to invert_b(f) geometrically with ratio at most
    c0^2/(eps^2 + c0^2). The running power T^i f and the running sum are
    carried as rfft spectra: f is transformed once, and each item costs one
    multiplication by T's symbol and one irfft. The generator is endless;
    eps <= 0 raises ``ValueError`` at the first item.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t_symbol = sum(
        alpha * m**2 * averaging_symbol(grid, m * eps) ** 2
        for m, alpha in enumerate(model.alpha, start=1)
    )
    denominator = eps**2 + model.sound_speed_sq
    power = np.fft.rfft(f.values)
    total = (eps**2 / denominator) * power
    for i in count(1):
        yield GridFunction(grid, np.fft.irfft(total, n=grid.num_points))
        power *= t_symbol
        total += (eps**2 / denominator ** (i + 1)) * power


def von_neumann_inverse(
    model: "ChainModel",
    grid: SpectralGrid,
    eps: float,
    f: GridFunction,
    terms: int,
) -> GridFunction:
    """partial(terms) of ``von_neumann_partial_sums``, bitwise its item.

    Exposed with an explicit term count: this is a verification oracle, not
    the production inverse. A caller that needs several term counts should
    read them from one pass of the generator, since this call recomputes
    the terms - 1 items before it each time.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    return next(islice(von_neumann_partial_sums(model, grid, eps, f), terms - 1, None))
