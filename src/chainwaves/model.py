"""Chain model data: interaction coefficients, force laws, derived constants.

A chain couples each particle to its m-th neighbors for m = 1..M through the
force law

    force_m(r) = alpha_m r + beta_m r^2 + psi_m'(r),      psi_m'(r) = O(r^3),

with all alpha_m, beta_m positive. The quadratic-KdV limit of the traveling
wave problem is governed by

    c0^2 = sum alpha_m m^2,
    d1   = 12 / sum alpha_m m^4,
    d2   = 12 sum beta_m m^3 / sum alpha_m m^4,

and its homoclinic profile has the closed form
w0(x) = (3 d1 / 2 d2) sech^2(sqrt(d1) x / 2), solving w0'' = d1 w0 - d2 w0^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CurvatureWarning, DomainTooSmallError
from .grid import GridFunction, SpectralGrid, apply_symbol, l2_norm
from .operators import averaging_stack, averaging_symbol, b_diagonal

__all__ = [
    "PsiFamily", "ChainModel", "default_half_length",
    "kdv_profile", "apply_Q", "apply_Q0", "apply_P", "tw_defect", "tw_defect_spectrum",
    "tw_residual",
]

_PSI_KINDS = ("none", "cubic", "toda-remainder")
_BOUNDARY_GATE = 1e-12  # largest admitted profile value at the domain boundary


def _exp_tail(r, first_order: int):
    """sum_{j >= first_order} r^j / j!, stable against cancellation.

    On |r| <= 2 the series is summed by Horner's rule to 24 terms past the
    first, which truncates below 1e-17 relative; beyond, subtracting the
    short head from exp(r) loses at most a few ulp. The sums are updated in
    place, which keeps the temporaries to a few per call.
    """
    r = np.asarray(r, dtype=float)
    head = np.zeros_like(r)
    power = np.ones_like(r)
    for j in range(first_order):
        head += power / math.factorial(j)
        power *= r
    series = np.ones_like(r)
    for j in range(first_order + 24, first_order, -1):
        series *= r
        series /= j
        series += 1.0
    series *= power
    series /= math.factorial(first_order)
    far = np.exp(r)
    far -= head
    out = np.where(np.abs(r) <= 2.0, series, far)
    return out if out.ndim else float(out)


def _horner(r, coefficients):
    """r (c_0 + r (c_1 + ... + r c_k)) by Horner's rule."""
    out = r * coefficients[-1]
    for c in coefficients[-2::-1]:
        out += c
        out *= r
    return out


@dataclass(frozen=True)
class PsiFamily:
    """Higher-order force family beyond the linear and quadratic terms.

    Supported kinds:
        none            psi'_m = 0
        cubic           psi'_m(r) = delta_m r^3, params = deltas
        toda-remainder  psi'_m(r) = s_m (e^r - 1 - r - r^2/2), params = scales

    Each built-in ships its curvature bound gamma_m with
    |psi''_m(r)| <= gamma_m r^2 on |r| <= 1, and its antiderivative psi_m
    for energy accounting.
    """

    kind: str = "none"
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _PSI_KINDS:
            raise ValueError(f"psi kind must be one of {_PSI_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(0 <= p < math.inf for p in self.params):
            raise ValueError("psi family parameters must be nonnegative and finite")

    @staticmethod
    def cubic(deltas) -> "PsiFamily":
        return PsiFamily("cubic", tuple(deltas))

    @staticmethod
    def toda_remainder(scales) -> "PsiFamily":
        return PsiFamily("toda-remainder", tuple(scales))

    def _param(self, m: int) -> float:
        return self.params[m - 1]

    def prime(self, m: int, r):
        """psi'_m(r)."""
        if self.kind == "none":
            return np.zeros_like(np.asarray(r, dtype=float))
        if self.kind == "cubic":
            r = np.asarray(r, dtype=float)
            return self._param(m) * (r * r * r)
        return self._param(m) * _exp_tail(r, 3)

    def second(self, m: int, r):
        """psi''_m(r)."""
        if self.kind == "none":
            return np.zeros_like(np.asarray(r, dtype=float))
        if self.kind == "cubic":
            r = np.asarray(r, dtype=float)
            return 3.0 * self._param(m) * r**2
        return self._param(m) * _exp_tail(r, 2)

    def value(self, m: int, r):
        """Antiderivative psi_m(r) with psi_m(0) = 0."""
        if self.kind == "none":
            return np.zeros_like(np.asarray(r, dtype=float))
        if self.kind == "cubic":
            r = np.asarray(r, dtype=float)
            r2 = r * r
            return 0.25 * self._param(m) * (r2 * r2)
        return self._param(m) * _exp_tail(r, 4)

    def gamma(self, m: int) -> float:
        """Curvature bound constant: |psi''_m(r)| <= gamma_m r^2 on |r| <= 1."""
        if self.kind == "none":
            return 0.0
        if self.kind == "cubic":
            return 3.0 * self._param(m)
        return self._param(m) * (math.e - 2.0)


@dataclass(frozen=True)
class ChainModel:
    """Interaction coefficients for a chain coupling up to M-th neighbors."""

    alpha: tuple
    beta: tuple
    psi: PsiFamily = PsiFamily("none")

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.alpha) == 0 or len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must be nonempty and equally long")
        if not all(0 < a < math.inf for a in self.alpha):
            raise ValueError("all alpha coefficients must be positive and finite")
        if not all(0 < b < math.inf for b in self.beta):
            raise ValueError("all beta coefficients must be positive and finite")
        needed = 0 if self.psi.kind == "none" else len(self.alpha)
        if len(self.psi.params) != needed:
            raise ValueError(
                f"psi family {self.psi.kind!r} needs {needed} parameters, "
                f"got {len(self.psi.params)}"
            )
        for name in ("sound_speed_sq", "d1", "d2"):  # the KdV limit's constants
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def neighbor_range(self) -> int:
        """M, the furthest coupled neighbor."""
        return len(self.alpha)

    @cached_property
    def sound_speed_sq(self) -> float:
        """c0^2 = sum_m alpha_m m^2."""
        return float(sum(a * m**2 for m, a in enumerate(self.alpha, start=1)))

    @cached_property
    def d1(self) -> float:
        """d1 = 12 / sum_m alpha_m m^4."""
        return 12.0 / sum(a * m**4 for m, a in enumerate(self.alpha, start=1))

    @cached_property
    def d2(self) -> float:
        """d2 = 12 sum_m beta_m m^3 / sum_m alpha_m m^4."""
        beta3 = sum(b * m**3 for m, b in enumerate(self.beta, start=1))
        return 12.0 * beta3 / sum(a * m**4 for m, a in enumerate(self.alpha, start=1))

    @cached_property
    def law_columns(self) -> tuple:
        """(M, 1) coefficient columns of the force and potential polynomials,
        and the scale column of the toda remainder (None for other kinds).

        Lowest power first: force_m(r) = r (alpha_m + r (beta_m + r delta_m))
        and V_m(r) = r^2 (alpha_m/2 + r (beta_m/3 + r delta_m/4)), where the
        delta_m of the cubic family are absent for the other kinds; the
        toda remainder is added apart.
        """
        force = [np.array(self.alpha)[:, None], np.array(self.beta)[:, None]]
        potential = [0.5 * force[0], force[1] / 3.0]
        if self.psi.kind == "cubic":
            delta = np.array(self.psi.params)[:, None]
            force.append(delta)
            potential.append(0.25 * delta)
        scales = None
        if self.psi.kind == "toda-remainder":
            scales = np.array(self.psi.params)[:, None]
            scales.flags.writeable = False
        for column in force + potential:
            column.flags.writeable = False
        return tuple(force), tuple(potential), scales

    def force(self, m: int, r):
        """Force law alpha_m r + beta_m r^2 + psi'_m(r)."""
        self._check_index(m)
        r = np.asarray(r, dtype=float)
        out = _horner(r, [c[m - 1, 0] for c in self.law_columns[0]])
        if self.psi.kind == "toda-remainder":
            out = out + self.psi.prime(m, r)
        return out if np.ndim(out) else float(out)

    def potential(self, m: int, r):
        """Pair potential alpha_m r^2/2 + beta_m r^3/3 + psi_m(r)."""
        self._check_index(m)
        r = np.asarray(r, dtype=float)
        out = _horner(r, [c[m - 1, 0] for c in self.law_columns[1]]) * r
        if self.psi.kind == "toda-remainder":
            out = out + self.psi.value(m, r)
        return out if np.ndim(out) else float(out)

    def _check_index(self, m: int) -> None:
        if not 1 <= m <= len(self.alpha):
            raise IndexError(f"neighbor index {m} outside 1..{len(self.alpha)}")


def default_half_length(model: ChainModel) -> float:
    """Domain half-length putting the profile below 1e-12 at the boundary.

    That is 30/sqrt(d1) unless the peak 1.5 d1/d2 exceeds about 2.67; then
    it is the length where the sech^2 tail reaches 0.99e-12.
    """
    peak = 1.5 * model.d1 / model.d2
    rate = 0.5 * math.sqrt(model.d1)
    # aim just under the gate, so kdv_profile's strict check is clear of rounding
    tail = math.acosh(max(1.0, math.sqrt(peak / (0.99 * _BOUNDARY_GATE)))) / rate
    return max(30.0 / math.sqrt(model.d1), tail)


@lru_cache(maxsize=8)
def kdv_profile(model: ChainModel, grid: SpectralGrid) -> GridFunction:
    """Closed-form limiting profile (3 d1 / 2 d2) sech^2(sqrt(d1) x / 2).

    Even, positive, unimodal, and satisfying w'' = d1 w - d2 w^2 up to
    spectral truncation. Raises if the domain is too small for the profile
    to decay below 1e-12 at the boundary. Wide domains do not overflow: the
    boundary value is 4 peak e^{-2y} / (1 + e^{-2y})^2 at y = rate L, and
    the samples clip rate |x| at 350, where sech^2 is below 1e-303.
    Cached on (model, grid): every caller shares one read-only profile.
    """
    peak = 1.5 * model.d1 / model.d2
    rate = 0.5 * math.sqrt(model.d1)
    decay = math.exp(-2.0 * rate * grid.half_length)
    boundary = 4.0 * peak * decay / (1.0 + decay) ** 2
    if boundary >= _BOUNDARY_GATE:
        raise DomainTooSmallError(
            f"profile is {boundary:.3e} at x = {grid.half_length:g}; "
            f"need half_length >= {default_half_length(model):.9g}"
        )
    values = peak / np.cosh(np.minimum(rate * np.abs(grid.nodes), 350.0)) ** 2
    return GridFunction(grid, values)


def apply_Q(model: ChainModel, eps: float, w: GridFunction) -> GridFunction:
    """Quadratic operator sum_m beta_m m^3 A_{m eps} (A_{m eps} w)^2.

    Preserves evenness; pointwise nonnegative for any real input since the
    averages of squares are weighted with positive coefficients.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    total = np.zeros(w.grid.num_points)
    for m, beta in enumerate(model.beta, start=1):
        symbol = averaging_symbol(w.grid, m * eps)
        inner = apply_symbol(w.values, symbol)
        total += (beta * m**3) * apply_symbol(inner * inner, symbol)
    return GridFunction(w.grid, total)


def apply_Q0(model: ChainModel, w: GridFunction) -> GridFunction:
    """Pointwise limit (sum_m beta_m m^3) w^2."""
    coeff = sum(b * m**3 for m, b in enumerate(model.beta, start=1))
    return coeff * (w * w)


def apply_P(model: ChainModel, eps: float, w: GridFunction) -> GridFunction:
    """Higher-order force operator eps^{-6} sum_m m A psi'_m(m eps^2 A w).

    Scaled so that the formal expansion has a nontrivial leading term. Warns
    (``CurvatureWarning``) when the argument leaves |r| <= 1, where the
    curvature bound backing the built-in families is verified.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    total = np.zeros(w.grid.num_points)
    if model.psi.kind == "none":
        return GridFunction(w.grid, total)
    for m in range(1, model.neighbor_range + 1):
        symbol = averaging_symbol(w.grid, m * eps)
        argument = (m * eps**2) * apply_symbol(w.values, symbol)
        _check_curvature_regime(m, argument)
        total += m * apply_symbol(model.psi.prime(m, argument), symbol)
    return GridFunction(w.grid, total / eps**6)


def _check_curvature_regime(m: int, argument) -> None:
    """Warn (``CurvatureWarning``, attributed to the caller's caller) when
    the range-m higher-order force argument leaves |r| <= 1."""
    peak = float(np.max(np.abs(argument)))
    if peak > 1.0:
        warnings.warn(
            CurvatureWarning(
                f"higher-order force argument reaches |r| = {peak:.3g} > 1 for "
                f"m={m}; the curvature bound regime is left",
                peak,
            ),
            stacklevel=3,
        )


def psi_rows(model: ChainModel, eps: float, averages) -> np.ndarray:
    """(M, N) rows m eps^-4 psi'_m(m eps^2 a_m) of the averages a_m = A_{m eps} w:
    eps^2 P_eps[w] = sum_m A_{m eps} row_m. Warns as ``apply_P`` does."""
    rows = np.empty_like(averages)
    for m, row, average in zip(range(1, model.neighbor_range + 1), rows, averages):
        argument = (m * eps**2) * average
        _check_curvature_regime(m, argument)
        row[:] = (m / eps**4) * model.psi.prime(m, argument)
    return rows


def tw_defect_spectrum(model: ChainModel, eps: float, grid: SpectralGrid, spectrum) -> np.ndarray:
    """rfft of the defect G_eps(w) from the rfft ``spectrum`` of w on ``grid``.

    One spectral pass: the averages A_{m eps} w of every range come from one
    batched inverse FFT, and the inner terms beta_m m^3 (A w)^2 +
    m eps^-4 psi'_m(m eps^2 A w) go back through one batched forward FFT,
    2M length-N transforms. Every symbol is real, so for an even w the real
    and imaginary parts of the result are the spectra of G's even and odd
    parts."""
    b = b_diagonal(model, grid, eps)
    stack = averaging_stack(grid, eps, model.neighbor_range)
    averages = stack.average(spectrum)
    ranges = np.arange(1, model.neighbor_range + 1)
    inner = averages * averages
    inner *= (np.array(model.beta) * ranges**3)[:, None]
    if model.psi.kind != "none":
        inner += psi_rows(model, eps, averages)
    return b * spectrum - stack.adjoint_sum(inner)


def tw_defect(model: ChainModel, eps: float, w: GridFunction) -> GridFunction:
    """Traveling-wave defect G_eps(w) = B_eps w - Q_eps[w] - eps^2 P_eps[w].

    It is the raw eigenvalue-problem defect eps^2 c_eps^2 w - sum_m m A
    force_m(m eps^2 A w) divided by eps^4, which makes values comparable
    across eps; solitary waves are its even zeros. It is ``tw_defect_spectrum``
    between one rfft and one irfft, 2 + 2M length-N transforms; ``apply_Q``
    and ``apply_P`` are its term-by-term reference.
    """
    spectrum = tw_defect_spectrum(model, eps, w.grid, np.fft.rfft(w.values))
    return GridFunction(w.grid, np.fft.irfft(spectrum, n=w.grid.num_points))


def tw_residual(model: ChainModel, eps: float, w: GridFunction) -> float:
    """Traveling-wave residual ||G_eps(w)||_2 at corrector scale."""
    return l2_norm(tw_defect(model, eps, w))
