"""Chain model validation, derived constants, profile, nonlinear operators."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import chainwaves as cw
from chainwaves import PsiFamily
from chainwaves.grid import evenness_defect
from chainwaves.model import _exp_tail, apply_P, apply_Q, apply_Q0
from chainwaves.solver import measure_tail_decay
from conftest import random_band_limited


def test_force_examples(model1):
    assert model1.force(1, 0.0) == 0.0
    assert model1.force(1, 0.1) == pytest.approx(0.11, rel=1e-14)
    cubic = cw.ChainModel((1.0,), (1.0,), PsiFamily.cubic((2.0,)))
    assert cubic.force(1, 0.5) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(IndexError):
        model1.force(2, 0.1)
    with pytest.raises(IndexError):
        model1.force(0, 0.1)


def test_model_validation_rejects():
    with pytest.raises(ValueError):
        cw.ChainModel((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        cw.ChainModel((1.0,), (0.0,))
    with pytest.raises(ValueError):
        cw.ChainModel((), ())
    with pytest.raises(ValueError):
        cw.ChainModel((1.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        cw.ChainModel((1.0,), (1.0,), PsiFamily.cubic((0.1, 0.2)))
    with pytest.raises(ValueError):
        PsiFamily("quartic", (1.0,))
    # non-finite values used to pass and fail later as a non-finite grid
    # function; parameters of family none used to be dropped silently
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            cw.ChainModel((bad,), (1.0,))
        with pytest.raises(ValueError, match="finite"):
            cw.ChainModel((1.0,), (bad,))
        with pytest.raises(ValueError, match="finite"):
            cw.ChainModel((1.0,), (1.0,), PsiFamily.cubic((bad,)))
    with pytest.raises(ValueError, match="'none' needs 0 parameters, got 1"):
        cw.ChainModel((1.0,), (1.0,), PsiFamily("none", (0.3,)))


@pytest.mark.parametrize(
    "alpha, beta, name",
    [((1e308, 1e308), (1.0, 1.0), "sound_speed_sq"), ((1e300,), (1e-300,), "d2")],
    ids=["sums-overflow", "d2-underflows"],
)
def test_model_without_kdv_limit_rejected(alpha, beta, name):
    # finite positive coefficients whose KdV constants are 0 or inf used to
    # pass, and failed later outside the CLI's config check; in the first
    # case c0^2 overflows and d1 = 12 / sum alpha_m m^4 is 0
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
        cw.ChainModel(alpha, beta)


def test_kdv_constants_cases(model1, model2):
    assert (model1.sound_speed_sq, model1.d1, model1.d2) == (1.0, 12.0, 12.0)
    assert model2.sound_speed_sq == 5.0
    assert model2.d1 == pytest.approx(12.0 / 17.0, rel=1e-15)
    assert model2.d2 == pytest.approx(108.0 / 17.0, rel=1e-15)
    m3 = cw.ChainModel((1.0, 0.5, 1.0 / 3.0), (1.0, 1.0, 1.0))
    assert m3.sound_speed_sq == pytest.approx(6.0, rel=1e-15)


def test_toda_remainder_family():
    model = cw.ChainModel((1.0,), (1.0,), PsiFamily.toda_remainder((1.0,)))
    # psi' is the exponential with its first three Taylor terms removed
    r = 0.3
    assert model.psi.prime(1, r) == pytest.approx(
        math.exp(r) - 1 - r - r**2 / 2, rel=1e-13
    )
    assert model.psi.gamma(1) == pytest.approx(math.e - 2.0)
    # series branch agrees with the direct formula across its switch points
    for r in (1.999, 2.001, -1.999, -2.001):
        direct = math.exp(r) - 1 - r - r**2 / 2
        assert model.psi.prime(1, r) == pytest.approx(direct, rel=1e-13)
    # tiny r: the direct formula loses all digits, the series keeps them
    r = 1e-5
    assert model.psi.prime(1, r) == pytest.approx(r**3 / 6 + r**4 / 24, rel=1e-12)


def _exact_tail(r, first_order):
    # sum_{j >= first_order} r^j / j! in exact rationals, truncated past 1e-50
    x = Fraction(r)
    return sum(x**j / math.factorial(j) for j in range(first_order, first_order + 45))


def _exp_tail_reference(r, first_order):
    # the out-of-place form of model._exp_tail, kept as its bitwise reference
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
    return np.where(np.abs(r) <= 2.0, series, np.exp(r) - head)


@pytest.mark.parametrize("first_order", [2, 3, 4])
def test_exp_tail_in_place_is_bitwise_reference(first_order):
    # the series branch (|r| <= 2, switch points included) and the exp branch
    r = np.random.default_rng(first_order).uniform(-3.0, 3.0, (3, 1437))
    r[0, :4] = (-2.0, 2.0, np.nextafter(2.0, 3.0), 0.0)
    assert np.any(np.abs(r) <= 2.0) and np.any(np.abs(r) > 2.0)
    got = _exp_tail(r, first_order)
    assert got.tobytes() == _exp_tail_reference(r, first_order).tobytes()
    for x in (0.0, 1.5, -2.5, 2.0):
        assert _exp_tail(x, first_order) == float(_exp_tail_reference(x, first_order))


@pytest.mark.parametrize(
    "psi", [PsiFamily.cubic((0.1, 0.3)), PsiFamily.toda_remainder((0.5, 0.2))]
)
def test_force_laws_on_compression(psi):
    # exact rational references on [-1, 1], negative (compressive) stretches
    # included; the bound is relative to the sum of the terms' magnitudes,
    # the conditioning of the sum
    model = cw.ChainModel((1.0, 0.5), (1.0, 0.25), psi)
    r = np.linspace(-1.0, 1.0, 201)

    def check(got, terms):
        exact = np.array([float(sum(t)) for t in terms])
        scale = np.array([float(sum(abs(x) for x in t)) for t in terms])
        assert np.all(np.abs(got - exact) <= 1e-14 * scale)

    for m in (1, 2):
        a, b, p = (Fraction(c[m - 1]) for c in (model.alpha, model.beta, psi.params))
        if psi.kind == "cubic":
            prime = [p * Fraction(x) ** 3 for x in r]
            value = [p * Fraction(x) ** 4 / 4 for x in r]
        else:
            prime = [p * _exact_tail(x, 3) for x in r]
            value = [p * _exact_tail(x, 4) for x in r]
        check(psi.prime(m, r), [[q] for q in prime])
        check(psi.value(m, r), [[q] for q in value])
        check(
            model.force(m, r),
            [[a * Fraction(x), b * Fraction(x) ** 2, q] for x, q in zip(r, prime)],
        )
        check(
            model.potential(m, r),
            [[a * Fraction(x) ** 2 / 2, b * Fraction(x) ** 3 / 3, q] for x, q in zip(r, value)],
        )


def test_kdv_profile_peak_and_domain(model2):
    grid = cw.make_grid(cw.default_half_length(model2), 1024)
    w0 = cw.kdv_profile(model2, grid)
    assert cw.sup_norm(w0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert evenness_defect(w0) <= 1e-13 * cw.sup_norm(w0)
    assert np.all(w0.values > 0)
    small = cw.make_grid(3.0, 64)
    with pytest.raises(cw.DomainTooSmallError):
        cw.kdv_profile(model2, small)


@pytest.mark.parametrize("half_length", [210.0, 420.0, 1000.0])
def test_kdv_profile_wide_domain(model1, half_length):
    # rate L = sqrt(3) L passes 355, where cosh(rate L)^2 overflows a float:
    # the profile is built with no error or warning, equals sech^2 wherever
    # rate |x| <= 350 and is below 1e-300 beyond
    grid = cw.make_grid(half_length, 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w0 = cw.kdv_profile(model1, grid)
    rate = 0.5 * math.sqrt(model1.d1)
    near = rate * np.abs(grid.nodes) <= 350.0
    assert np.array_equal(w0.values[near], 1.5 / np.cosh(rate * grid.nodes[near]) ** 2)
    assert np.all((0 < w0.values[~near]) & (w0.values[~near] < 1e-300))


def test_default_half_length(model1, model2, model2_cubic):
    # 30/sqrt(d1) wherever it suffices, the 1e-12 tail length beyond
    for model in (model1, model2, model2_cubic):
        assert cw.default_half_length(model) == 30.0 / math.sqrt(model.d1)
    small_beta = cw.ChainModel((1.0,), (0.5,))
    half_length = cw.default_half_length(small_beta)
    assert half_length > 30.0 / math.sqrt(small_beta.d1)
    w0 = cw.kdv_profile(small_beta, cw.make_grid(half_length, 512))
    assert 0.5e-12 < w0.values[0] < 1e-12
    # the error names a length that suffices
    short = cw.make_grid(30.0 / math.sqrt(small_beta.d1), 512)
    with pytest.raises(cw.DomainTooSmallError) as info:
        cw.kdv_profile(small_beta, short)
    named = float(str(info.value).rsplit(" ", 1)[-1])
    cw.kdv_profile(small_beta, cw.make_grid(named, 512))


def test_kdv_profile_identities(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    ode = cw.derivative(w0, 2) - model1.d1 * w0 + model1.d2 * (w0 * w0)
    assert cw.sup_norm(ode) < 1e-8
    rate = measure_tail_decay(w0)
    assert rate == pytest.approx(math.sqrt(model1.d1), rel=0.02)


def test_profile_hamiltonian_vanishes(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    slope = cw.derivative(w0, 1)
    energy = (
        0.5 * slope.values**2
        + model1.d2 * w0.values**3 / 3.0
        - 0.5 * model1.d1 * w0.values**2
    )
    assert float(np.max(np.abs(energy))) < 1e-8


def test_apply_Q_zero_and_limit(model1, grid1):
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(apply_Q(model1, 0.2, zero)) == 0.0
    w0 = cw.kdv_profile(model1, grid1)
    limit = apply_Q0(model1, w0)
    eps_values = (0.4, 0.2, 0.1, 0.05)
    gaps = [cw.l2_norm(apply_Q(model1, eps, w0) - limit) for eps in eps_values]
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_apply_Q_matches_quadrature_oracle(model1, grid1):
    # single-mode input against the direct-quadrature averaging route
    eps = 0.3
    k = grid1.half_wavenumbers[6]
    w = cw.GridFunction(grid1, np.cos(k * grid1.nodes))
    inner = cw.averaging_direct(grid1, eps, w.values)
    oracle = cw.GridFunction(grid1, cw.averaging_direct(grid1, eps, inner * inner))
    assert cw.l2_norm(apply_Q(model1, eps, w) - oracle) < 1e-12


def test_apply_Q_nonnegative_and_even(model1, grid1, rng):
    f = random_band_limited(grid1, 30.0, rng)
    image = apply_Q(model1, 0.25, f)
    assert float(np.min(image.values)) >= -1e-12 * cw.sup_norm(image)
    even = random_band_limited(grid1, 30.0, rng, parity="even")
    assert evenness_defect(apply_Q(model1, 0.25, even)) <= 1e-12


def test_apply_Q0_cases(model2, grid2):
    ones = cw.GridFunction(grid2, np.ones(grid2.num_points))
    np.testing.assert_allclose(apply_Q0(model2, ones).values, 9.0, atol=1e-14)
    zero = cw.GridFunction(grid2, np.zeros(grid2.num_points))
    assert cw.sup_norm(apply_Q0(model2, zero)) == 0.0


def test_apply_P_none_family(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    assert cw.sup_norm(apply_P(model1, 0.2, w0)) == 0.0


def test_apply_P_cubic_closed_form(grid1):
    # the eps powers cancel exactly for the cubic family
    model = cw.ChainModel((1.0,), (1.0,), PsiFamily.cubic((0.7,)))
    w0 = cw.kdv_profile(model, grid1)
    eps = 0.23
    averaging = cw.averaging_symbol(grid1, eps)
    inner = cw.apply_symbol(w0.values, averaging)
    expected = cw.GridFunction(grid1, 0.7 * cw.apply_symbol(inner * inner * inner, averaging))
    image = apply_P(model, eps, w0)
    assert cw.l2_norm(image - expected) <= 1e-12 * cw.l2_norm(expected)


def test_apply_P_bounded_over_sweep(model2_cubic):
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    w0 = cw.kdv_profile(model2_cubic, grid)
    norms = [cw.l2_norm(apply_P(model2_cubic, eps, w0)) for eps in (0.4, 0.2, 0.1, 0.05)]
    assert max(norms) / min(norms) < 2.0


def test_apply_P_warns_outside_regime(grid1):
    model = cw.ChainModel((1.0,), (1.0,), PsiFamily.cubic((0.1,)))
    big = cw.GridFunction(grid1, np.full(grid1.num_points, 30.0))
    with pytest.warns(UserWarning, match="curvature"):
        apply_P(model, 1.0, big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_P(model, 0.1, cw.kdv_profile(model, grid1))


def test_tw_residual_zero_and_profile_order(model1, grid1):
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.tw_residual(model1, 0.2, zero) == 0.0
    w0 = cw.kdv_profile(model1, grid1)
    eps_values = (0.4, 0.2, 0.1, 0.05)
    values = [cw.tw_residual(model1, eps, w0) for eps in eps_values]
    slope = np.polyfit(np.log(eps_values), np.log(values), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_tw_residual_matches_raw_eigenvalue_form(model2_cubic):
    # the operator-split residual equals the eigenvalue-problem residual/eps^4
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    w = cw.kdv_profile(model2_cubic, grid)
    eps = 0.2
    speed_sq = model2_cubic.sound_speed_sq + eps**2
    raw = eps**2 * speed_sq * w.values
    for m in range(1, model2_cubic.neighbor_range + 1):
        averaging = cw.averaging_symbol(grid, m * eps)
        argument = m * eps**2 * cw.apply_symbol(w.values, averaging)
        forced = np.asarray(model2_cubic.force(m, argument))
        raw = raw - m * cw.apply_symbol(forced, averaging)
    raw_norm = cw.l2_norm(cw.GridFunction(grid, raw)) / eps**4
    assert cw.tw_residual(model2_cubic, eps, w) == pytest.approx(raw_norm, rel=1e-6)


@pytest.mark.parametrize("name", ["M1", "M2", "M2-cubic", "M3-toda"])
def test_tw_defect_transform_count(
    name, model1, model2, model2_cubic, model3_toda, transform_lengths
):
    # one rfft of w, one batched inverse and one batched forward transform
    # of M rows, and one inverse transform: 2 + 2M of length N, psi or not
    model = {"M1": model1, "M2": model2, "M2-cubic": model2_cubic, "M3-toda": model3_toda}[name]
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    w = cw.kdv_profile(model, grid)
    cw.tw_defect(model, 0.1, w)  # fills the symbol caches
    lengths = transform_lengths()
    cw.tw_defect(model, 0.1, w)
    assert lengths == [grid.num_points] * (2 + 2 * model.neighbor_range)


def test_curvature_bound_sampled():
    # built-in families satisfy |psi''(r)| <= gamma r^2 on [-1, 1] and
    # psi'(0) = 0, at every range of an M = 3 model, for two parameter sets
    r = np.linspace(-1, 1, 401)
    for kind in ("cubic", "toda-remainder"):
        for params in ((2.5, 0.1, 1.0), (0.05, 7.0, 0.0)):
            model = cw.ChainModel((1.0,) * 3, (1.0,) * 3, PsiFamily(kind, params))
            for m in range(1, model.neighbor_range + 1):
                second = np.asarray(model.psi.second(m, r))
                assert np.all(np.abs(second) <= model.psi.gamma(m) * r**2 + 1e-15)
                assert model.psi.prime(m, 0.0) == 0.0
