"""Named property suite exercising the operator calculus end to end.

Each check is deterministic (seeded probes, no ``numpy.random``), returns a
pass flag plus a short measurement detail, and is independent of the others.
The suite backs the ``verify`` command; the checks mirror the package's
analytic guarantees: self-adjointness, norm bounds, shape preservation,
asymptotic orders of the window average, agreement of every window A_{m eps}
of the model with its quadrature oracle, stability of the inverted linear
part, geometric convergence of its series representation, the limiting
profile identities, residual boundedness, and uniform invertibility of the
linearization.
``CHECKS`` is the one implementation of each property: the acceptance
criteria and the unit tests that state one of them call it by name.

The checks work on blocks and spectra, and make no probe value that they do
not read. A check's random probes are one (count, N) block from one draw of
uniform coefficients, sized by the parity: an even profile draws only real
parts, an odd one only imaginary parts. A multiplier, or a stack of them,
acts on the whole block in one ``apply_symbol`` call. Norms come from
spectra by Parseval where a check needs no samples: the cutoff constants
read the drawn coefficients, the quadrature oracle one transform of its
probes, and the von Neumann checks the series' rfft spectra, transforming
back only the partial sums whose shape they test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import (
    GridFunction,
    SpectralGrid,
    apply_symbol,
    derivative,
    evenness_defect,
    l2_norm,
    sup_norm,
)
from .linearized import linearized_operator
from .model import ChainModel, apply_Q, apply_Q0, kdv_profile
from .operators import (
    _quadrature_window,
    averaging_symbol,
    b_diagonal,
    cutoff_symbol,
    von_neumann_partial_sums,
)
from .solver import _line_slope, measure_tail_decay, residuals

__all__ = ["CHECKS", "CheckResult", "run_verification", "unimodality_defect",
           "random_band_limited_rows"]

_ETA_SWEEP = (0.4, 0.2, 0.1, 0.05)
_EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)
_ROOT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Uniforms:
    """Uniforms in [0, 1): draw i is the top 53 bits of output i of SplitMix64
    seeded with ``seed`` (Steele, Lea & Flood, OOPSLA 2014) times 2^-53, so a
    block of draws is that many single draws."""

    def __init__(self, seed: int):
        self._seed, self._drawn = seed % 2**64, 0

    def random(self, shape) -> np.ndarray:
        size = int(np.prod(shape))
        z = np.arange(self._drawn + 1, self._drawn + size + 1, dtype=np.uint64)
        self._drawn += size
        # SplitMix64 in place; uint64 products wrap as the hash's do
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(self._seed)
        shifted = np.empty_like(z)
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            np.right_shift(z, np.uint64(shift), out=shifted)
            z ^= shifted
            z *= np.uint64(factor)
        np.right_shift(z, np.uint64(31), out=shifted)
        z ^= shifted
        z >>= np.uint64(11)
        # the uniforms go to shifted's memory: a fresh process pays a page
        # fault per new page it touches
        uniforms = shifted.view(np.float64)
        np.multiply(z, 2.0**-53, out=uniforms)
        return uniforms.reshape(shape)


def _band_draws(grid: SpectralGrid, band: float, rng, count: int, parity: str):
    """The number of modes k <= band below Nyquist, and one (count, width)
    block of coefficients sqrt(3) (2u - 1) for the parts of them that
    ``parity`` keeps, as ``random_band_limited_rows`` lays them out."""
    modes = min(int(np.count_nonzero(grid.half_wavenumbers <= band)), grid.num_points // 2)
    width = (parity != "odd") * modes + (parity != "even") * max(modes - 1, 0)
    draws = rng.random((count, width))
    draws *= 2.0 * _ROOT3
    draws -= _ROOT3
    return modes, draws


def random_band_limited_rows(
    grid: SpectralGrid, band: float, rng, count: int, parity: str = "none", decay: float = 0.0
) -> np.ndarray:
    """(count, N) block of unit-l2 random profiles with spectral support in |k| <= band.

    Each coefficient is sqrt(3) (2u - 1), of unit variance, for one uniform u
    of ``rng.random(shape)``. A profile takes the modes k <= band below
    Nyquist: parity even draws only their real parts, odd only the imaginary
    parts past mode 0, none both (the real parts first), so one call draws a
    (count, width) block and row j is what the j-th of ``count`` successive
    one-row calls gives. ``decay`` > 0 shapes the spectrum with a
    (1 + k^2)^(-decay) envelope, mimicking the smoothness of right-hand sides
    arising in practice.
    """
    k = grid.half_wavenumbers
    modes, draws = _band_draws(grid, band, rng, count, parity)
    coeff = np.zeros((count, len(k)), dtype=complex)
    if parity != "odd":
        coeff.real[:, :modes] = draws[:, :modes]
    if parity != "even":
        coeff.imag[:, 1:modes] = draws[:, draws.shape[1] - (modes - 1) :]
    if decay:
        coeff *= (1.0 + k**2) ** (-decay)
    rows = np.fft.irfft(coeff, n=grid.num_points)
    norms = _row_norms(grid, rows)
    rows *= (1.0 / np.where(norms > 0, norms, 1.0))[:, None]  # zero rows stay zero
    return rows


def unimodality_defect(values) -> float:
    """Largest violation of rise-then-fall monotonicity around the peak."""
    values = np.asarray(values, dtype=float)
    peak = int(np.argmax(values))
    drop = np.max(-np.diff(values[: peak + 1]), initial=0.0)
    rise = np.max(np.diff(values[peak:]), initial=0.0)
    return float(max(0.0, drop, rise))  # +0.0, not -0.0, when nothing is violated


def _fit_slope(xs, ys) -> float:
    return _line_slope(np.log(xs), np.log(ys))


def _row_norms(grid, rows) -> np.ndarray:
    """``l2_norm`` of each row of a (count, N) block."""
    return np.sqrt(grid.spacing * np.sum(rows**2, axis=1))


def _uniformity(label: str, values: list, note: str = "") -> tuple:
    """Pass when the values over the eps sweep stay within a factor 2 of each other."""
    spread = max(values) / min(values)
    listed = ["%.3f" % v for v in values]
    return spread < 2.0, f"{label} {listed}, spread {spread:.3f}{note}"


def _second_order(gaps: list) -> tuple:
    """Pass when the gaps over the eps sweep fall off as eps^2 (fitted slope 2 +- 0.3)."""
    slope = _fit_slope(_EPS_SWEEP, gaps)
    return abs(slope - 2.0) <= 0.3, f"slope {slope:.3f} (want 2)"


def _adjoint_defect(grid, rng, band, apply) -> float:
    """Largest |<apply(f), g> - <f, apply(g)>| over three random band-limited
    pairs, drawn as one (6, N) block f1, g1, f2, g2, f3, g3 that ``apply``
    maps to its (6, N) image."""
    probes = random_band_limited_rows(grid, band, rng, 6)
    images = apply(probes)
    f, g = probes[0::2], probes[1::2]
    forward = grid.spacing * np.sum(images[0::2] * g, axis=1)
    backward = grid.spacing * np.sum(f * images[1::2], axis=1)
    return float(np.max(np.abs(forward - backward)))


def _shape_defects(f):
    """Odd part, negative part and unimodality defect of f, and whether all
    three are round-off (1e-12, 1e-12 and 1e-10 of sup |f|)."""
    scale = sup_norm(f)
    even = evenness_defect(f)
    negativity = max(0.0, -float(np.min(f.values)))
    bump = unimodality_defect(f.values)
    shaped = even <= 1e-12 * scale and negativity <= 1e-12 * scale and bump <= 1e-10 * scale
    return shaped, (even, negativity, bump)


def _check_averaging_self_adjoint(model, grid):
    rng = _Uniforms(101)
    symbols = [averaging_symbol(grid, eta) for eta in (0.3, 0.8)]
    worst = max(
        _adjoint_defect(grid, rng, 20.0, lambda rows: apply_symbol(rows, s)) for s in symbols
    )
    return worst <= 1e-12, f"max defect {worst:.2e}"


def _check_averaging_norm_bounds(model, grid):
    rng = _Uniforms(102)
    ok = True
    worst = 0.0
    # three probes per eta, drawn as one block
    blocks = np.split(random_band_limited_rows(grid, 40.0, rng, 6), 2)
    for eta, probes in zip((0.3, 0.8), blocks):
        averaged = apply_symbol(probes, averaging_symbol(grid, eta))
        norms = _row_norms(grid, probes)
        ok &= bool(np.all(_row_norms(grid, averaged) <= norms * (1 + 1e-12)))
        ratios = np.max(np.abs(averaged), axis=1) / (eta**-0.5 * norms)
        worst = max(worst, float(np.max(ratios)))
        ok &= bool(np.all(ratios <= 1 + 1e-12))
    return ok, f"max sup-bound ratio {worst:.3f}"


def _averages(model, grid, etas) -> np.ndarray:
    """(len(etas), N) window averages of w0, one row per width, from one
    ``apply_symbol`` call on the stacked symbols: one transform of w0."""
    symbols = np.stack([averaging_symbol(grid, eta) for eta in etas])
    return apply_symbol(kdv_profile(model, grid).values, symbols)


def _check_averaging_shape_preservation(model, grid):
    etas = (0.3, 0.8)
    ok = True
    details = []
    for eta, values in zip(etas, _averages(model, grid, etas)):
        shaped, (even, negativity, bump) = _shape_defects(GridFunction(grid, values))
        ok &= shaped
        details.append(f"eta={eta:g}: even {even:.1e}, neg {negativity:.1e}, bump {bump:.1e}")
    return ok, "; ".join(details)


def _check_averaging_asymptotic_orders(model, grid):
    w0 = kdv_profile(model, grid)
    # closed-form second derivative: ties the symbol route to continuum
    # calculus, so under-resolution breaks the measured orders
    w2 = model.d1 * w0 - model.d2 * (w0 * w0)
    plain, corrected = [], []
    for eta, values in zip(_ETA_SWEEP, _averages(model, grid, _ETA_SWEEP)):
        averaged = GridFunction(grid, values)
        plain.append(l2_norm(averaged - w0))
        corrected.append(l2_norm(averaged - w0 - (eta**2 / 24.0) * w2))
    slope1 = _fit_slope(_ETA_SWEEP, plain)
    slope2 = _fit_slope(_ETA_SWEEP, corrected)
    ok = abs(slope1 - 2.0) <= 0.2 and abs(slope2 - 4.0) <= 0.2
    return ok, f"slopes {slope1:.3f} (want 2), {slope2:.3f} (want 4)"


def _check_averaging_symbol_vs_quadrature(model, grid):
    # w0 and two smooth random probes against each window A_{m eps} of the
    # model, m = 1..M, at eps 0.4 and 0.1; one quadrature window per eta. By
    # Parseval each squared l2 gap is h/N sum_n w_n |rfft probe_n|^2 |symbol_n
    # - window_n|^2, so the probes are transformed once for every window
    rng = _Uniforms(202)
    probes = np.vstack(
        [kdv_profile(model, grid).values, random_band_limited_rows(grid, 8.0, rng, 2, decay=1.0)]
    )
    power = np.abs(np.fft.rfft(probes)) ** 2
    power *= grid.half_weights * (grid.spacing / grid.num_points)
    worst = 0.0
    for eps in (0.4, 0.1):
        for m in range(1, model.neighbor_range + 1):
            eta = m * eps
            gap = averaging_symbol(grid, eta) - _quadrature_window(grid, eta)
            worst = max(worst, math.sqrt(float(np.max(np.einsum("pn,n->p", power, gap**2)))))
    return worst <= 1e-12, f"max l2 gap {worst:.2e}"


def _check_b_symbol_floor(model, grid):
    eps = 0.2
    k, symbol = grid.half_wavenumbers, b_diagonal(model, grid, eps)
    floor_ok = float(np.min(symbol)) >= 1.0 - 1e-12
    at_zero = float(symbol[0])  # k_0 = 0
    inside = k <= 4.0 / eps
    c_inside = float(np.min(symbol[inside] / (1.0 + k[inside] ** 2)))
    c_outside = float(np.min(symbol[~inside]) * eps**2) if np.any(~inside) else math.inf
    ok = floor_ok and abs(at_zero - 1.0) <= 1e-12 and c_inside > 0 and c_outside > 0
    return ok, f"b(0)={at_zero:.1f}, banded constants c={c_inside:.3f}, {c_outside:.3f}"


def _check_b_inverse_roundtrip(model, grid):
    # one probe per eps, mapped through the stacked 1/b and b: 4 transforms
    probes = random_band_limited_rows(grid, 30.0, _Uniforms(107), 2, parity="even")
    b = np.stack([b_diagonal(model, grid, eps) for eps in (0.4, 0.1)])
    gaps = apply_symbol(apply_symbol(probes, 1.0 / b), b) - probes
    worst = float(np.max(np.sqrt(np.sum(gaps**2, axis=1) / np.sum(probes**2, axis=1))))
    return worst <= 1e-12, f"max relative gap {worst:.2e}"


def _check_b_inverse_self_adjoint(model, grid):
    rng = _Uniforms(108)
    inverse = 1.0 / b_diagonal(model, grid, 0.2)
    worst = _adjoint_defect(grid, rng, 25.0, lambda rows: apply_symbol(rows, inverse))
    return worst <= 1e-12, f"max defect {worst:.2e}"


def _split_inverse_constants(model, grid) -> list[float]:
    """max over a 20-profile ensemble of (|S B_eps^{-1} g|_{W22} +
    |(1 - S) B_eps^{-1} g|_2 / eps^2) / |g|_2, S the |k| <= 4/eps cutoff,
    for each eps of the sweep."""
    k = grid.half_wavenumbers
    band = min(120.0, 0.8 * float(k[-1]))
    # Parseval: each squared norm is a weighted sum of |rfft g|^2 and B_eps^{-1}
    # divides it by b_eps^2. The ratio is scale-free, and an even profile's
    # spectrum is real, so the squares of its drawn coefficients under the
    # profiles' (1 + k^2)^-1 envelope are its power spectrum, nonzero on the
    # first ``modes`` entries only: no profile is built or transformed
    modes, power = _band_draws(grid, band, _Uniforms(109), 20, "even")
    power *= (1.0 + k[:modes] ** 2) ** -1.0
    power *= power
    weights, sobolev = grid.half_weights[:modes], grid.sobolev22_weights[:modes]
    norms = np.sqrt(np.einsum("pn,n->p", power, weights))
    ratios = []
    for eps in _EPS_SWEEP:
        inverse_sq = (1.0 / b_diagonal(model, grid, eps)[:modes]) ** 2
        smooth = cutoff_symbol(grid, eps)[:modes]
        smooth_sq = np.einsum("pn,n->p", power, sobolev * smooth * inverse_sq)
        rough_sq = np.einsum("pn,n->p", power, weights * (1.0 - smooth) * inverse_sq)
        ratios.append(float(np.max((np.sqrt(smooth_sq) + np.sqrt(rough_sq) / eps**2) / norms)))
    return ratios


def _check_cutoff_inverse_stability(model, grid):
    constants = _split_inverse_constants(model, grid)
    return _uniformity("constants", constants)


def _check_von_neumann_geometric(model, grid):
    w0 = kdv_profile(model, grid)
    spectrum = np.fft.rfft(w0.values)
    ok = True
    details = []
    for eps in (0.4, 0.1):
        exact = (1.0 / b_diagonal(model, grid, eps)) * spectrum
        partials = von_neumann_partial_sums(model, grid, eps, w0)
        # Parseval: each l2 error is sqrt(h/N sum_n w_n |rfft error_n|^2), and
        # h/N cancels in the ratio
        errors = [
            math.sqrt(grid.half_weights @ np.abs(partial - exact) ** 2)
            for partial in islice(partials, 40)
        ]
        measured = (errors[-1] / errors[-11]) ** 0.1
        predicted = model.sound_speed_sq / (eps**2 + model.sound_speed_sq)
        gap = abs(measured - predicted) / predicted
        ok &= gap <= 0.05
        details.append(f"eps={eps:g}: ratio {measured:.4f} vs {predicted:.4f}")
    return ok, "; ".join(details)


def _check_von_neumann_shape_preservation(model, grid):
    w0 = kdv_profile(model, grid)
    partials = list(islice(von_neumann_partial_sums(model, grid, 0.2, w0), 10))
    ok = all(
        _shape_defects(GridFunction(grid, np.fft.irfft(partials[terms - 1], n=grid.num_points)))[0]
        for terms in (1, 3, 10)
    )
    return ok, "nonneg/even/unimodal partial sums"


def _check_profile_ode_residual(model, grid):
    w0 = kdv_profile(model, grid)
    residual = derivative(w0, 2) - model.d1 * w0 + model.d2 * (w0 * w0)
    value = sup_norm(residual)
    return value <= 1e-8, f"sup residual {value:.2e}"


def _check_profile_hamiltonian(model, grid):
    w0 = kdv_profile(model, grid)
    slope = derivative(w0, 1)
    energy = (
        0.5 * slope.values**2
        + model.d2 * w0.values**3 / 3.0
        - 0.5 * model.d1 * w0.values**2
    )
    value = float(np.max(np.abs(energy)))
    return value <= 1e-8, f"sup energy {value:.2e}"


def _check_profile_tail_rate(model, grid):
    rate = measure_tail_decay(kdv_profile(model, grid))
    target = math.sqrt(model.d1)
    gap = abs(rate - target) / target
    return gap <= 0.02, f"rate {rate:.4f} vs sqrt(d1) {target:.4f}"


def _check_residual_boundedness(model, grid):
    norms = []
    higher_order = []
    for eps in _EPS_SWEEP:
        r, s = (float(np.linalg.norm(term)) for term in residuals(model, grid, eps))
        norms.append(r + s)
        higher_order.append(s)
    branch = " (S identically 0)" if max(higher_order) == 0.0 else ""
    return _uniformity("norms", norms, branch)


def _check_quadratic_operator_limit(model, grid):
    w0 = kdv_profile(model, grid)
    limit = apply_Q0(model, w0)
    gaps = [l2_norm(apply_Q(model, eps, w0) - limit) for eps in _EPS_SWEEP]
    return _second_order(gaps)


def _check_linearized_symmetry(model, grid):
    operator = linearized_operator(model, grid, 0.2)
    worst = _adjoint_defect(
        grid,
        _Uniforms(117),
        25.0,
        lambda rows: np.array([operator.apply_l(GridFunction(grid, row)).values for row in rows]),
    )
    return worst <= 1e-10, f"max defect {worst:.2e}"


def _check_linearized_kernel_direction(model, grid):
    operator = linearized_operator(model, grid, 0.0)
    slope = derivative(operator.w0, 1)
    ratio = l2_norm(operator.apply_l(slope)) / l2_norm(slope)
    return ratio <= 1e-7, f"relative image {ratio:.2e}"


def _check_linearized_strong_convergence(model, grid):
    w0 = kdv_profile(model, grid)
    limit = linearized_operator(model, grid, 0.0).apply_l(w0)
    operators = [linearized_operator(model, grid, eps) for eps in _EPS_SWEEP]
    gaps = [l2_norm(operator.apply_l(w0) - limit) for operator in operators]
    return _second_order(gaps)


def _check_sigma_min_uniformity(model, grid):
    reference = linearized_operator(model, grid, 0.0).smallest_singular_value()
    values = []
    ok = True
    for eps in (0.2, 0.1, 0.05):
        sigma = linearized_operator(model, grid, eps).smallest_singular_value()
        values.append(sigma)
        ok &= sigma >= 0.5 * reference
    return ok, f"sigma(0)={reference:.4f}, sigma(eps)={['%.4f' % v for v in values]}"


def _named(check) -> tuple:
    """The name of ``_check_<name>`` and the check returning its (passed,
    detail) as a ``CheckResult``."""
    name = check.__name__.removeprefix("_check_")

    def run(model, grid) -> CheckResult:
        passed, detail = check(model, grid)
        return CheckResult(name, bool(passed), detail)

    return name, run


# every _check_ function of this module, in the order of definition
CHECKS = dict(_named(check) for key, check in list(globals().items()) if key.startswith("_check_"))


def run_verification(model: ChainModel, grid: SpectralGrid) -> list[CheckResult]:
    """Run every named property check; failures are collected, not raised."""
    results = []
    for name, check in CHECKS.items():
        try:
            results.append(check(model, grid))
        except Exception as exc:  # a crashed check is a failed property
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
