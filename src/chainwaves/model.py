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
from functools import cached_property

import numpy as np

from .errors import DomainTooSmallError
from .grid import GridFunction, SpectralGrid, apply_symbol, l2_norm
from .operators import averaging_symbol, b_operator

__all__ = [
    "PsiFamily",
    "ChainModel",
    "KdvConstants",
    "kdv_constants",
    "default_half_length",
    "kdv_profile",
    "apply_Q",
    "apply_Q0",
    "apply_P",
    "tw_defect",
    "tw_residual",
]

_PSI_KINDS = ("none", "cubic", "toda-remainder")
_BOUNDARY_GATE = 1e-12  # largest admitted profile value at the domain boundary


def _exp_tail(r, first_order: int):
    """sum_{j >= first_order} r^j / j!, stable against cancellation.

    On |r| <= 2 the series is summed by Horner's rule to 24 terms past the
    first, which truncates below 1e-17 relative; beyond, subtracting the
    short head from exp(r) loses at most a few ulp.
    """
    r = np.asarray(r, dtype=float)
    head = np.zeros_like(r)
    power = np.ones_like(r)
    for j in range(first_order):
        head = head + power / math.factorial(j)
        power = power * r
    series = np.ones_like(r)
    for j in range(first_order + 24, first_order, -1):
        series = 1.0 + series * r / j
    series = series * power / math.factorial(first_order)
    out = np.where(np.abs(r) <= 2.0, series, np.exp(r) - head)
    return out if out.ndim else float(out)


def _horner(r, coefficients, out=None):
    """r (c_0 + r (c_1 + ... + r c_k)) by Horner's rule, into ``out`` if given."""
    out = np.multiply(r, coefficients[-1], out=out)
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
        if any(p < 0 for p in self.params):
            raise ValueError("psi family parameters must be nonnegative")

    @staticmethod
    def none() -> "PsiFamily":
        return PsiFamily("none", ())

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
        if any(a <= 0 for a in self.alpha):
            raise ValueError("all alpha coefficients must be positive")
        if any(b <= 0 for b in self.beta):
            raise ValueError("all beta coefficients must be positive")
        if self.psi.kind != "none" and len(self.psi.params) != len(self.alpha):
            raise ValueError(
                f"psi family needs {len(self.alpha)} parameters, "
                f"got {len(self.psi.params)}"
            )
        self._check_curvature_bound()

    def _check_curvature_bound(self) -> None:
        # sampled verification of |psi''(r)| <= gamma r^2 on [-1, 1]
        r = np.linspace(-1.0, 1.0, 201)
        for m in range(1, len(self.alpha) + 1):
            second = np.asarray(self.psi.second(m, r))
            bound = self.psi.gamma(m) * r**2
            if np.any(np.abs(second) > bound * (1.0 + 1e-12) + 1e-300):
                raise ValueError(f"psi'' exceeds its gamma bound for m={m}")
            if abs(float(np.asarray(self.psi.prime(m, 0.0)))) > 0.0:
                raise ValueError(f"psi'(0) must vanish for m={m}")

    @property
    def neighbor_range(self) -> int:
        """M, the furthest coupled neighbor."""
        return len(self.alpha)

    @cached_property
    def sound_speed_sq(self) -> float:
        """c0^2 = sum_m alpha_m m^2."""
        return float(sum(a * m**2 for m, a in enumerate(self.alpha, start=1)))

    @cached_property
    def _law_columns(self) -> tuple:
        """(M, 1) coefficient columns of the force and potential polynomials.

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
        for column in force + potential:
            column.flags.writeable = False
        return tuple(force), tuple(potential)

    def force(self, m: int, r):
        """Force law alpha_m r + beta_m r^2 + psi'_m(r)."""
        self._check_index(m)
        r = np.asarray(r, dtype=float)
        out = _horner(r, [c[m - 1, 0] for c in self._law_columns[0]])
        if self.psi.kind == "toda-remainder":
            out = out + self.psi.prime(m, r)
        return out if np.ndim(out) else float(out)

    def potential(self, m: int, r):
        """Pair potential alpha_m r^2/2 + beta_m r^3/3 + psi_m(r)."""
        self._check_index(m)
        r = np.asarray(r, dtype=float)
        out = _horner(r, [c[m - 1, 0] for c in self._law_columns[1]]) * r
        if self.psi.kind == "toda-remainder":
            out = out + self.psi.value(m, r)
        return out if np.ndim(out) else float(out)

    def pair_laws(self, stretch, force, potential, linear_only: bool = False) -> None:
        """Force laws and pair potentials of every neighbor range at once.

        ``stretch`` is an (M, J) block whose row m - 1 holds range-m
        stretches; ``force`` and ``potential`` are (M, J) buffers, overwritten
        in place. Row m - 1 is bitwise what :meth:`force` and
        :meth:`potential` give for m. ``linear_only`` keeps the alpha_m r
        part of both laws.
        """
        force_columns, potential_columns = self._law_columns
        if linear_only:
            force_columns, potential_columns = force_columns[:1], potential_columns[:1]
        _horner(stretch, force_columns, out=force)
        _horner(stretch, potential_columns, out=potential)
        potential *= stretch
        if self.psi.kind == "toda-remainder" and not linear_only:
            scales = np.array(self.psi.params)[:, None]
            force += _exp_tail(stretch, 3) * scales
            potential += _exp_tail(stretch, 4) * scales

    def _check_index(self, m: int) -> None:
        if not 1 <= m <= len(self.alpha):
            raise IndexError(f"neighbor index {m} outside 1..{len(self.alpha)}")


@dataclass(frozen=True)
class KdvConstants:
    """Derived constants of the quadratic-KdV limit; all positive."""

    c0_sq: float
    d1: float
    d2: float

    def __post_init__(self) -> None:
        if min(self.c0_sq, self.d1, self.d2) <= 0:
            raise ValueError("limit constants must all be positive")


def kdv_constants(model: ChainModel) -> KdvConstants:
    alpha4 = sum(a * m**4 for m, a in enumerate(model.alpha, start=1))
    beta3 = sum(b * m**3 for m, b in enumerate(model.beta, start=1))
    return KdvConstants(
        c0_sq=model.sound_speed_sq,
        d1=12.0 / alpha4,
        d2=12.0 * beta3 / alpha4,
    )


def default_half_length(model: ChainModel) -> float:
    """Domain half-length putting the profile below 1e-12 at the boundary.

    That is 30/sqrt(d1) unless the peak 1.5 d1/d2 exceeds about 2.67; then
    it is the length where the sech^2 tail reaches 0.99e-12.
    """
    constants = kdv_constants(model)
    peak = 1.5 * constants.d1 / constants.d2
    rate = 0.5 * math.sqrt(constants.d1)
    # aim just under the gate, so kdv_profile's strict check is clear of rounding
    tail = math.acosh(max(1.0, math.sqrt(peak / (0.99 * _BOUNDARY_GATE)))) / rate
    return max(30.0 / math.sqrt(constants.d1), tail)


def kdv_profile(model: ChainModel, grid: SpectralGrid) -> GridFunction:
    """Closed-form limiting profile (3 d1 / 2 d2) sech^2(sqrt(d1) x / 2).

    Even, positive, unimodal, and satisfying w'' = d1 w - d2 w^2 up to
    spectral truncation. Raises if the domain is too small for the profile
    to decay below 1e-12 at the boundary.
    """
    constants = kdv_constants(model)
    peak = 1.5 * constants.d1 / constants.d2
    rate = 0.5 * math.sqrt(constants.d1)
    boundary = peak / math.cosh(rate * grid.half_length) ** 2
    if boundary >= _BOUNDARY_GATE:
        raise DomainTooSmallError(
            f"profile is {boundary:.3e} at x = {grid.half_length:g}; "
            f"need half_length >= {default_half_length(model):.9g}"
        )
    values = peak / np.cosh(rate * grid.nodes) ** 2
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
    when the argument leaves |r| <= 1, where the curvature bound backing the
    built-in families is verified.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    total = np.zeros(w.grid.num_points)
    if model.psi.kind == "none":
        return GridFunction(w.grid, total)
    for m in range(1, model.neighbor_range + 1):
        symbol = averaging_symbol(w.grid, m * eps)
        argument = (m * eps**2) * apply_symbol(w.values, symbol)
        peak = float(np.max(np.abs(argument)))
        if peak > 1.0:
            warnings.warn(
                f"higher-order force argument reaches |r| = {peak:.3g} > 1 for "
                f"m={m}; the curvature bound regime is left",
                stacklevel=2,
            )
        total += m * apply_symbol(model.psi.prime(m, argument), symbol)
    return GridFunction(w.grid, total / eps**6)


def tw_defect(model: ChainModel, eps: float, w: GridFunction) -> GridFunction:
    """Traveling-wave defect G_eps(w) = B_eps w - Q_eps[w] - eps^2 P_eps[w].

    It is the raw eigenvalue-problem defect eps^2 c_eps^2 w - sum_m m A
    force_m(m eps^2 A w) divided by eps^4, which makes values comparable
    across eps; solitary waves are its even zeros.
    """
    defect = b_operator(model, w.grid, eps).apply(w) - apply_Q(model, eps, w)
    if model.psi.kind != "none":
        defect = defect - eps**2 * apply_P(model, eps, w)
    return defect


def tw_residual(model: ChainModel, eps: float, w: GridFunction) -> float:
    """Traveling-wave residual ||G_eps(w)||_2 at corrector scale."""
    return l2_norm(tw_defect(model, eps, w))
