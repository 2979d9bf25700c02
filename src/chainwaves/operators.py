"""Fourier multiplier symbols: window averages, the linear part B_eps, cutoffs.

The sliding-window average over [x - eta/2, x + eta/2] diagonalizes in Fourier
space with symbol sinc(eta*k/2). Collecting the linear terms of the traveling
wave problem produces the operator with symbol

    b_eps(k) = 1 + sum_m alpha_m m^2 (1 - sinc^2(m k eps / 2)) / eps^2

whose formal small-eps limit is b_0(k) = 1 + (sum_m alpha_m m^4 / 12) k^2.
Both symbols are bounded below by 1, so their inverses act by safe pointwise
division. All operators here are real, even in k, parity-preserving, and
self-adjoint in the discrete L2 pairing. Each is an array on
``grid.half_wavenumbers``, applied to samples by ``grid.apply_symbol``
(``AveragingStack`` is its batched form); the cached ones are read-only.
``b_diagonal`` is the one route to b_eps, and to b_0 at eps = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import TYPE_CHECKING, Iterator

import numpy as np
from numpy.typing import NDArray

from .grid import GridFunction, SpectralGrid, apply_symbol

if TYPE_CHECKING:
    from .model import ChainModel

__all__ = [
    "sinc",
    "averaging_symbol",
    "AveragingStack",
    "averaging_stack",
    "averaging_direct",
    "b_diagonal",
    "cutoff_symbol",
    "von_neumann_partial_sums",
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


def _window_symbol(grid: SpectralGrid, eta: float) -> NDArray[np.float64]:
    return np.asarray(sinc(0.5 * eta * grid.half_wavenumbers))


@lru_cache(maxsize=32)
def averaging_symbol(grid: SpectralGrid, eta: float) -> NDArray[np.float64]:
    """Symbol sinc(eta*k/2) of the width-eta window average on ``grid.half_wavenumbers``."""
    symbol = _window_symbol(grid, eta)
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
    # cached: every corrector step averages with the same stack. The rows are
    # computed here, bitwise equal to averaging_symbol(grid, m * eps), so the
    # symbol cache holds no second copy of them
    symbols = np.stack([_window_symbol(grid, m * eps) for m in range(1, count + 1)])
    symbols.flags.writeable = False
    return AveragingStack(grid, symbols)


@lru_cache(maxsize=64)
def _legendre_rule(count: int) -> NDArray[np.float64]:
    # read-only rows of nodes and half weights on [-1, 1]: Newton on P_count by
    # its recurrence from the guesses cos(pi (i + 3/4) / (count + 1/2)) >= 0, as
    # sines so an odd rule's middle one is the root 0, then mirrored
    x = np.sin(np.pi * np.arange(1 - count % 2, count, 2) / (2 * count + 1))
    for _ in range(10):  # converges in 4 evaluations for counts 20 to 320
        p0, p1 = np.ones_like(x), x
        for j in range(1, count):
            xp1 = x * p1
            p0, p1 = p1, xp1 + j / (j + 1) * (xp1 - p0)
        slope = count * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    right = np.stack([x, 1.0 / ((1.0 - x * x) * slope**2)])
    rule = np.hstack([right[:, count % 2 :][:, ::-1] * [[-1.0], [1.0]], right])
    rule[1] /= np.sum(rule[1])  # the window then passes constants to round-off
    rule.flags.writeable = False
    return rule


def _window_rule(eta: float, count: int):
    """Gauss-Legendre offsets and weights for (1/eta) int_{-eta/2}^{eta/2} g(o) do."""
    nodes, weights = _legendre_rule(count)
    return 0.5 * eta * nodes, weights


def _quadrature_window(grid: SpectralGrid, eta: float) -> NDArray[np.float64]:
    """The quadrature window on ``grid.half_wavenumbers`` as in ``grid.sample``:
    with n = q S + r, cos(k_n o) = cos(k_{qS} o) cos(k_r o) - sin(k_{qS} o)
    sin(k_r o), so one real (Q, 2J) @ (2J, S) product over the J nodes o > 0
    holds the window at n in row q, column r."""
    k = grid.half_wavenumbers
    count = math.ceil(0.5 * eta * k[-1]) + 20
    offsets, weights = _window_rule(eta, count)
    pairs = slice(count - count // 2, None)  # the nodes o > 0
    baby_steps = math.isqrt(grid.num_points // 2)
    giant = np.outer(k[::baby_steps], offsets[pairs])
    baby = np.outer(offsets[pairs], k[:baby_steps])
    twice = 2.0 * weights[pairs]
    steps = np.hstack([twice * np.cos(giant), -twice * np.sin(giant)])
    window = (steps @ np.vstack([np.cos(baby), np.sin(baby)])).ravel()[: len(k)]
    return window + weights[count // 2] if count % 2 else window


def averaging_direct(grid: SpectralGrid, eta: float, values) -> NDArray[np.float64]:
    """Window average of (N,) samples or a (..., N) stack of rows by direct
    quadrature instead of the closed-form symbol.

    Each Gauss-Legendre node translates the samples through their
    band-limited interpolant, a phase exp(i k o) on their coefficients, and
    the rule then integrates over the window. The rule is symmetric, so each
    node pair +-o sums once as 2 cos(k o), and an odd rule's middle node sits
    at 0, where cos = 1. With ceil(eta*max|k|/2) + 20 nodes the rule
    integrates every mode on the grid to round-off. The window is built once
    per call and ``apply_symbol`` applies it to every row.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    return apply_symbol(values, _quadrature_window(grid, eta))


def b_diagonal(model: "ChainModel", grid: SpectralGrid, eps: float) -> NDArray[np.float64]:
    """Read-only symbol 1 + sum_m alpha_m m^2 (1 - sinc^2(m k eps / 2)) / eps^2
    of B_eps on ``grid.half_wavenumbers``, >= 1, and B_0 at eps = 0; cached on
    (alpha, grid, eps), all it reads, so a model and its psi-free copy share
    it: L_eps reads it at every corrector step. Raises ``ValueError`` for
    eps < 0 or NaN."""
    return _b_diagonal(model.alpha, grid, eps)


@lru_cache(maxsize=16)
def _b_diagonal(alpha: tuple, grid: SpectralGrid, eps: float) -> NDArray[np.float64]:
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    k = grid.half_wavenumbers
    if eps:
        symbol = np.ones_like(k)
        for m, a in enumerate(alpha, start=1):
            symbol = symbol + a * m**2 * _one_minus_sinc_sq(0.5 * m * k * eps) / eps**2
    else:  # b_0 = 1 + (sum_m alpha_m m^4 / 12) k^2
        symbol = 1.0 + sum(a * m**4 for m, a in enumerate(alpha, start=1)) / 12.0 * k * k
    symbol.flags.writeable = False
    return symbol


def cutoff_symbol(grid: SpectralGrid, eps: float) -> NDArray[np.float64]:
    """Indicator of |k| <= 4/eps on ``grid.half_wavenumbers``; the band edge is kept."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return (grid.half_wavenumbers <= 4.0 / eps).astype(float)


def von_neumann_partial_sums(
    model: "ChainModel",
    grid: SpectralGrid,
    eps: float,
    f: GridFunction,
) -> Iterator[NDArray[np.complex128]]:
    """rfft half spectra of the partial sums partial(1), partial(2), ... of
    the geometric series representation of b_eps^{-1} f.

    With T = sum_m alpha_m m^2 A_{m eps}^2 and c0^2 = sum_m alpha_m m^2,

        partial(n) = eps^2 * sum_{i<n} T^i f / (eps^2 + c0^2)^(i+1),

    converging to B_eps^{-1} f geometrically with ratio at most
    c0^2/(eps^2 + c0^2). The running power T^i f and the running sum are
    carried as rfft spectra: f is transformed once, and each item costs one
    multiplication by T's symbol. Each item is a new read-only array; its
    samples are ``np.fft.irfft(item, n=grid.num_points)`` and its norms
    follow by Parseval with ``grid.half_weights``. The generator is endless;
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
        total.flags.writeable = False
        yield total
        power *= t_symbol
        total = total + (eps**2 / denominator ** (i + 1)) * power
