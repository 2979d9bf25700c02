"""Named property suite exercising the operator calculus end to end.

Each check is deterministic (fixed seeds), returns a pass flag plus a short
measurement detail, and is independent of the others. The suite backs the
``verify`` command; the checks mirror the package's analytic guarantees:
self-adjointness, norm bounds, shape preservation, asymptotic orders of the
window average, stability of the inverted linear part, geometric convergence
of its series representation, the limiting profile identities, residual
boundedness, and uniform invertibility of the linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import (
    GridFunction,
    SpectralGrid,
    derivative,
    evenness_defect,
    inner_product,
    l2_norm,
    sobolev22_norm,
    sup_norm,
)
from .linearized import linearized_operator
from .model import ChainModel, apply_Q, apply_Q0, kdv_constants, kdv_profile
from .operators import (
    averaging_direct,
    averaging_operator,
    b_operator,
    b_symbol,
    cutoff,
    invert_b,
    von_neumann_partial_sums,
)
from .solver import measure_tail_decay, residuals

__all__ = ["CHECKS", "CheckResult", "run_verification", "random_band_limited", "unimodality_defect"]

_ETA_SWEEP = (0.4, 0.2, 0.1, 0.05)
_EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_band_limited(
    grid: SpectralGrid,
    band: float,
    rng: np.random.Generator,
    parity: str = "none",
    decay: float = 0.0,
) -> GridFunction:
    """Unit-l2 random profile with spectral support in |k| <= band.

    ``decay`` > 0 shapes the spectrum with a (1 + k^2)^(-decay) envelope,
    mimicking the smoothness of right-hand sides arising in practice.
    """
    n = grid.num_points
    k = grid.half_wavenumbers
    amplitude = rng.standard_normal(n)
    phase = rng.standard_normal(n)
    if parity == "even":
        draws = amplitude
    elif parity == "odd":
        draws = 1j * amplitude
    else:
        draws = amplitude + 1j * phase
    # mode n pairs the draws at +k_n and -k_n (FFT index N - n) into the
    # Hermitian coefficient; real draws give an even, imaginary an odd profile
    coeff = 0.5 * (draws[: len(k)] + np.conj(draws[-np.arange(len(k)) % n]))
    inside = k <= band
    inside[-1] = False
    envelope = (1.0 + k**2) ** (-decay) if decay else 1.0
    values = np.fft.irfft(np.where(inside, coeff * envelope, 0.0), n=n)
    f = GridFunction(grid, values)
    norm = l2_norm(f)
    return f if norm == 0 else (1.0 / norm) * f


def unimodality_defect(values) -> float:
    """Largest violation of rise-then-fall monotonicity around the peak."""
    values = np.asarray(values, dtype=float)
    peak = int(np.argmax(values))
    rising = np.diff(values[: peak + 1])
    falling = np.diff(values[peak:])
    worst = 0.0
    if len(rising):
        worst = max(worst, float(np.max(np.maximum(-rising, 0.0))))
    if len(falling):
        worst = max(worst, float(np.max(np.maximum(falling, 0.0))))
    return worst


def _fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _check_averaging_self_adjoint(model, grid):
    rng = np.random.default_rng(101)
    worst = 0.0
    for eta in (0.3, 0.8):
        operator = averaging_operator(grid, eta)
        for _ in range(3):
            f = random_band_limited(grid, 20.0, rng)
            g = random_band_limited(grid, 20.0, rng)
            gap = abs(inner_product(operator.apply(f), g) - inner_product(f, operator.apply(g)))
            worst = max(worst, gap)
    return _result("averaging_self_adjoint", worst <= 1e-12, f"max defect {worst:.2e}")


def _check_averaging_norm_bounds(model, grid):
    rng = np.random.default_rng(102)
    ok = True
    worst = 0.0
    for eta in (0.3, 0.8):
        operator = averaging_operator(grid, eta)
        for _ in range(3):
            f = random_band_limited(grid, 40.0, rng)
            averaged = operator.apply(f)
            ok &= l2_norm(averaged) <= l2_norm(f) * (1 + 1e-12)
            ratio = sup_norm(averaged) / (eta**-0.5 * l2_norm(f))
            worst = max(worst, ratio)
            ok &= ratio <= 1 + 1e-12
    return _result("averaging_norm_bounds", ok, f"max sup-bound ratio {worst:.3f}")


def _check_averaging_shape_preservation(model, grid):
    w0 = kdv_profile(model, grid)
    ok = True
    details = []
    for eta in (0.3, 0.8):
        averaged = averaging_operator(grid, eta).apply(w0)
        scale = sup_norm(averaged)
        even = evenness_defect(averaged)
        negativity = max(0.0, -float(np.min(averaged.values)))
        bump = unimodality_defect(averaged.values)
        ok &= even <= 1e-12 * scale and negativity <= 1e-12 * scale and bump <= 1e-10 * scale
        details.append(f"eta={eta:g}: even {even:.1e}, neg {negativity:.1e}, bump {bump:.1e}")
    return _result("averaging_shape_preservation", ok, "; ".join(details))


def _check_averaging_asymptotic_orders(model, grid):
    constants = kdv_constants(model)
    w0 = kdv_profile(model, grid)
    # closed-form second derivative: ties the symbol route to continuum
    # calculus, so under-resolution breaks the measured orders
    w2 = constants.d1 * w0 - constants.d2 * (w0 * w0)
    plain, corrected = [], []
    for eta in _ETA_SWEEP:
        averaged = averaging_operator(grid, eta).apply(w0)
        plain.append(l2_norm(averaged - w0))
        corrected.append(l2_norm(averaged - w0 - (eta**2 / 24.0) * w2))
    slope1 = _fit_slope(_ETA_SWEEP, plain)
    slope2 = _fit_slope(_ETA_SWEEP, corrected)
    ok = abs(slope1 - 2.0) <= 0.2 and abs(slope2 - 4.0) <= 0.2
    return _result(
        "averaging_asymptotic_orders", ok, f"slopes {slope1:.3f} (want 2), {slope2:.3f} (want 4)"
    )


def _check_averaging_symbol_vs_quadrature(model, grid):
    w0 = kdv_profile(model, grid)
    worst = 0.0
    for eta in (0.4, 0.1):
        symbol_route = averaging_operator(grid, eta).apply(w0)
        direct_route = averaging_direct(eta, w0)
        worst = max(worst, l2_norm(symbol_route - direct_route))
    return _result("averaging_symbol_vs_quadrature", worst <= 1e-12, f"max l2 gap {worst:.2e}")


def _check_b_symbol_floor(model, grid):
    eps = 0.2
    k = grid.half_wavenumbers
    symbol = np.asarray(b_symbol(model, eps, k))
    floor_ok = float(np.min(symbol)) >= 1.0 - 1e-12
    at_zero = float(np.asarray(b_symbol(model, eps, 0.0)))
    inside = k <= 4.0 / eps
    c_inside = float(np.min(symbol[inside] / (1.0 + k[inside] ** 2)))
    c_outside = float(np.min(symbol[~inside]) * eps**2) if np.any(~inside) else math.inf
    ok = floor_ok and abs(at_zero - 1.0) <= 1e-12 and c_inside > 0 and c_outside > 0
    return _result(
        "b_symbol_floor",
        ok,
        f"b(0)={at_zero:.1f}, banded constants c={c_inside:.3f}, {c_outside:.3f}",
    )


def _check_b_inverse_roundtrip(model, grid):
    rng = np.random.default_rng(107)
    worst = 0.0
    for eps in (0.4, 0.1):
        operator = b_operator(model, grid, eps)
        g = random_band_limited(grid, 30.0, rng, parity="even")
        back = operator.apply(invert_b(model, grid, eps, g))
        worst = max(worst, l2_norm(back - g) / l2_norm(g))
    return _result("b_inverse_roundtrip", worst <= 1e-12, f"max relative gap {worst:.2e}")


def _check_b_inverse_self_adjoint(model, grid):
    rng = np.random.default_rng(108)
    eps = 0.2
    worst = 0.0
    for _ in range(3):
        f = random_band_limited(grid, 25.0, rng)
        g = random_band_limited(grid, 25.0, rng)
        gap = abs(
            inner_product(invert_b(model, grid, eps, f), g)
            - inner_product(f, invert_b(model, grid, eps, g))
        )
        worst = max(worst, gap)
    return _result("b_inverse_self_adjoint", worst <= 1e-12, f"max defect {worst:.2e}")


def _check_cutoff_inverse_stability(model, grid):
    band = min(120.0, 0.8 * float(grid.half_wavenumbers[-1]))
    rng = np.random.default_rng(109)
    ensemble = [random_band_limited(grid, band, rng, parity="even", decay=1.0) for _ in range(20)]
    ratios = []
    for eps in _EPS_SWEEP:
        worst = 0.0
        for g in ensemble:
            inverted = invert_b(model, grid, eps, g)
            smooth = cutoff(grid, eps, inverted)
            rough = inverted - smooth
            value = (sobolev22_norm(smooth) + l2_norm(rough) / eps**2) / l2_norm(g)
            worst = max(worst, value)
        ratios.append(worst)
    spread = max(ratios) / min(ratios)
    return _result(
        "cutoff_inverse_stability",
        spread < 2.0,
        f"constants {['%.3f' % r for r in ratios]}, spread {spread:.3f}",
    )


def _check_von_neumann_geometric(model, grid):
    w0 = kdv_profile(model, grid)
    ok = True
    details = []
    for eps in (0.4, 0.1):
        exact = invert_b(model, grid, eps, w0)
        partials = von_neumann_partial_sums(model, grid, eps, w0)
        errors = [l2_norm(partial - exact) for partial in islice(partials, 40)]
        measured = (errors[-1] / errors[-11]) ** 0.1
        predicted = model.sound_speed_sq / (eps**2 + model.sound_speed_sq)
        gap = abs(measured - predicted) / predicted
        ok &= gap <= 0.05
        details.append(f"eps={eps:g}: ratio {measured:.4f} vs {predicted:.4f}")
    return _result("von_neumann_geometric", ok, "; ".join(details))


def _check_von_neumann_shape_preservation(model, grid):
    w0 = kdv_profile(model, grid)
    eps = 0.2
    ok = True
    partials = list(islice(von_neumann_partial_sums(model, grid, eps, w0), 10))
    for terms in (1, 3, 10):
        partial = partials[terms - 1]
        scale = sup_norm(partial)
        ok &= float(np.min(partial.values)) >= -1e-12 * scale
        ok &= evenness_defect(partial) <= 1e-12 * scale
        ok &= unimodality_defect(partial.values) <= 1e-10 * scale
    return _result("von_neumann_shape_preservation", ok, "nonneg/even/unimodal partial sums")


def _check_profile_ode_residual(model, grid):
    constants = kdv_constants(model)
    w0 = kdv_profile(model, grid)
    residual = derivative(w0, 2) - constants.d1 * w0 + constants.d2 * (w0 * w0)
    value = sup_norm(residual)
    return _result("profile_ode_residual", value <= 1e-8, f"sup residual {value:.2e}")


def _check_profile_hamiltonian(model, grid):
    constants = kdv_constants(model)
    w0 = kdv_profile(model, grid)
    slope = derivative(w0, 1)
    energy = (
        0.5 * slope.values**2
        + constants.d2 * w0.values**3 / 3.0
        - 0.5 * constants.d1 * w0.values**2
    )
    value = float(np.max(np.abs(energy)))
    return _result("profile_hamiltonian", value <= 1e-8, f"sup energy {value:.2e}")


def _check_profile_tail_rate(model, grid):
    constants = kdv_constants(model)
    rate = measure_tail_decay(kdv_profile(model, grid))
    target = math.sqrt(constants.d1)
    gap = abs(rate - target) / target
    return _result("profile_tail_rate", gap <= 0.02, f"rate {rate:.4f} vs sqrt(d1) {target:.4f}")


def _check_residual_boundedness(model, grid):
    norms = []
    higher_order = []
    for eps in _EPS_SWEEP:
        pair = residuals(model, grid, eps)
        norms.append(l2_norm(pair.r) + l2_norm(pair.s))
        higher_order.append(l2_norm(pair.s))
    spread = max(norms) / min(norms)
    branch = " (S identically 0)" if max(higher_order) == 0.0 else ""
    return _result(
        "residual_boundedness",
        spread < 2.0,
        f"norms {['%.3f' % n for n in norms]}, spread {spread:.3f}{branch}",
    )


def _check_quadratic_operator_limit(model, grid):
    w0 = kdv_profile(model, grid)
    limit = apply_Q0(model, w0)
    gaps = [l2_norm(apply_Q(model, eps, w0) - limit) for eps in _EPS_SWEEP]
    slope = _fit_slope(_EPS_SWEEP, gaps)
    return _result(
        "quadratic_operator_limit", abs(slope - 2.0) <= 0.3, f"slope {slope:.3f} (want 2)"
    )


def _check_linearized_symmetry(model, grid):
    rng = np.random.default_rng(117)
    operator = linearized_operator(model, grid, 0.2)
    worst = 0.0
    for _ in range(3):
        f = random_band_limited(grid, 25.0, rng)
        g = random_band_limited(grid, 25.0, rng)
        gap = abs(
            inner_product(operator.apply_l(f), g) - inner_product(f, operator.apply_l(g))
        )
        worst = max(worst, gap)
    return _result("linearized_symmetry", worst <= 1e-10, f"max defect {worst:.2e}")


def _check_linearized_kernel_direction(model, grid):
    operator = linearized_operator(model, grid, 0.0)
    slope = derivative(operator.w0, 1)
    ratio = l2_norm(operator.apply_l(slope)) / l2_norm(slope)
    return _result("linearized_kernel_direction", ratio <= 1e-7, f"relative image {ratio:.2e}")


def _check_linearized_strong_convergence(model, grid):
    w0 = kdv_profile(model, grid)
    limit_operator = linearized_operator(model, grid, 0.0)
    limit = limit_operator.apply_l(w0)
    gaps = []
    for eps in _EPS_SWEEP:
        operator = linearized_operator(model, grid, eps)
        gaps.append(l2_norm(operator.apply_l(w0) - limit))
    slope = _fit_slope(_EPS_SWEEP, gaps)
    return _result(
        "linearized_strong_convergence", abs(slope - 2.0) <= 0.3, f"slope {slope:.3f} (want 2)"
    )


def _check_sigma_min_uniformity(model, grid):
    reference = linearized_operator(model, grid, 0.0).smallest_singular_value()
    values = []
    ok = True
    for eps in (0.2, 0.1, 0.05):
        sigma = linearized_operator(model, grid, eps).smallest_singular_value()
        values.append(sigma)
        ok &= sigma >= 0.5 * reference
    return _result(
        "sigma_min_uniformity",
        ok,
        f"sigma(0)={reference:.4f}, sigma(eps)={['%.4f' % v for v in values]}",
    )


CHECKS = {
    check.__name__.removeprefix("_check_"): check
    for check in (
        _check_averaging_self_adjoint,
        _check_averaging_norm_bounds,
        _check_averaging_shape_preservation,
        _check_averaging_asymptotic_orders,
        _check_averaging_symbol_vs_quadrature,
        _check_b_symbol_floor,
        _check_b_inverse_roundtrip,
        _check_b_inverse_self_adjoint,
        _check_cutoff_inverse_stability,
        _check_von_neumann_geometric,
        _check_von_neumann_shape_preservation,
        _check_profile_ode_residual,
        _check_profile_hamiltonian,
        _check_profile_tail_rate,
        _check_residual_boundedness,
        _check_quadratic_operator_limit,
        _check_linearized_symmetry,
        _check_linearized_kernel_direction,
        _check_linearized_strong_convergence,
        _check_sigma_min_uniformity,
    )
}


def run_verification(model: ChainModel, grid: SpectralGrid) -> list[CheckResult]:
    """Run every named property check; failures are collected, not raised."""
    results = []
    for name, check in CHECKS.items():
        try:
            results.append(check(model, grid))
        except Exception as exc:  # a crashed check is a failed property
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
