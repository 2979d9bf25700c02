"""Residuals, corrector fixed point, wave solves, diagnostics, sweeps."""

import gc
import math
import sys
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import chainwaves as cw
from chainwaves import lattice, linearized, operators, solver
from chainwaves.grid import evenness_defect
from chainwaves.linearized import even_coefficients, even_synthesis, linearized_operator
from chainwaves.model import apply_P, apply_Q
from chainwaves.solver import SolveDiagnostics, fixed_point_map, measure_tail_decay, residuals
from chainwaves.verify import CHECKS, unimodality_defect
from conftest import project_even, random_band_limited


@pytest.fixture(scope="module")
def solution1(model1, grid1):
    return cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=0.2))


def test_config_validation():
    # epsilon and damping are the only settings; the tolerances and the
    # iteration budget are solver constants
    assert [field.name for field in fields(cw.SolveConfig)] == ["epsilon", "damping"]
    with pytest.raises(ValueError):
        cw.SolveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        cw.SolveConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        cw.SolveConfig(epsilon=0.1, damping=0.0)


def test_config_rejects_subnormal_fourth_power():
    # the defect is scaled by eps^-4: an eps whose fourth power is below the
    # smallest normal float is rejected before any solve
    for eps in (1e-170, 1e-77, math.nextafter(sys.float_info.min**0.25, 0.0)):
        with pytest.raises(ValueError, match="epsilon"):
            cw.SolveConfig(epsilon=eps)
    assert cw.SolveConfig(epsilon=2e-77).epsilon == 2e-77


def test_residuals_psi_none_has_zero_s(model1, grid1):
    r, s = residuals(model1, grid1, 0.2)
    assert r.shape == s.shape == (grid1.num_points // 2 + 1,)
    assert not s.any()
    assert np.linalg.norm(r) > 0.0


@pytest.mark.parametrize("eps", [1.0, 0.4, 0.1, 0.05])
def test_residuals_match_term_by_term_reference(eps, model1, model2_cubic, model3_toda):
    # R comes from the psi-free defect and S from the averages of w0; apply_Q,
    # apply_P and B_eps give them term by term on the grid. Both routes
    # amplify the round-off of B_eps w0 by 1/eps^2, so they agree to that
    # floor, eps_mach max(b) ||w0|| / eps^2
    for model in (model1, model2_cubic, model3_toda):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        w0 = cw.kdv_profile(model, grid)
        b = cw.b_diagonal(model, grid, eps)
        b_w0 = cw.GridFunction(grid, cw.apply_symbol(w0.values, b))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cw.CurvatureWarning)
            r, s = residuals(model, grid, eps)
            r_grid = (1.0 / eps**2) * (apply_Q(model, eps, w0) - b_w0)
            s_grid = apply_P(model, eps, w0)
        floor = np.finfo(float).eps * b.max() * cw.l2_norm(w0) / eps**2
        assert np.linalg.norm(r - even_coefficients(r_grid)) <= 4 * floor
        assert np.linalg.norm(s - even_coefficients(s_grid)) <= 4 * floor


def test_residuals_bounded_over_sweep(model1, model2, model2_cubic):
    for model in (model1, model2, model2_cubic):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        result = CHECKS["residual_boundedness"](model, grid)
        assert result.passed, result.detail


def test_residuals_cauchy_in_eps(model1, grid1):
    # R_eps approaches a limit: consecutive sweep differences shrink
    eps_values = (0.4, 0.2, 0.1, 0.05)
    rs = [residuals(model1, grid1, eps)[0] for eps in eps_values]
    gaps = [np.linalg.norm(rs[i + 1] - rs[i]) for i in range(len(rs) - 1)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_apply_N_lipschitz_scale(model2_cubic):
    # the remainder N is eps^2-small in the Lipschitz sense; since
    # eps^2 (N[v2] - N[v1]) = P[w0 + eps^2 v2] - P[w0 + eps^2 v1], measure that
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    w0 = cw.kdv_profile(model2_cubic, grid)
    local_rng = np.random.default_rng(3)
    v1 = random_band_limited(grid, 8.0, local_rng, parity="even", decay=1.0)
    v2 = random_band_limited(grid, 8.0, local_rng, parity="even", decay=1.0)
    eps_values = (0.2, 0.1, 0.05)
    ratios = []
    for eps in eps_values:
        gap = cw.l2_norm(
            apply_P(model2_cubic, eps, w0 + eps**2 * v2)
            - apply_P(model2_cubic, eps, w0 + eps**2 * v1)
        )
        ratios.append(gap / cw.l2_norm(v2 - v1))
    slope = np.polyfit(np.log(eps_values), np.log(ratios), 1)[0]
    assert slope >= 1.7  # at least eps^2 smallness


def test_fixed_point_property(model1, grid1, solution1):
    # the map acts on cosine coordinates, whose Euclidean norm is the l2 norm
    v, eps = even_coefficients(solution1.v), solution1.epsilon
    operator, residual = linearized_operator(model1, grid1, eps), residuals(model1, grid1, eps)[0]
    image = fixed_point_map(model1, v, operator, residual)
    gap = float(np.linalg.norm(image - v))
    assert gap <= 10 * linearized.TOL * max(1.0, cw.l2_norm(solution1.v))


def test_fixed_point_contraction(model1, grid1):
    eps = 0.2
    operator, residual = linearized_operator(model1, grid1, eps), residuals(model1, grid1, eps)[0]
    v = np.zeros(grid1.num_points // 2 + 1)
    increments = []
    for _ in range(8):
        image = fixed_point_map(model1, v, operator, residual)
        increments.append(float(np.linalg.norm(image - v)))
        v = image
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 1e-14]
    assert all(r < 1.0 for r in ratios)


def test_fixed_point_map_is_handed_the_cached_operator_and_r(model2_cubic, model3_toda, monkeypatch):
    # solve_wave hands every step the cached L_eps itself and the R that
    # residuals reports, built once per solve
    handed = []
    step = solver.fixed_point_map

    def recorded(model, v, operator, residual):
        handed.append((model, operator, residual))
        return step(model, v, operator, residual)

    monkeypatch.setattr(solver, "fixed_point_map", recorded)
    eps, steps = 0.1, 0
    for model in (model2_cubic, model3_toda):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        handed.clear()
        cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps))
        r = residuals(model, grid, eps)[0]
        for given, operator, residual in handed:
            assert given is model and operator is linearized_operator(model, grid, eps)
            assert residual.dtype == r.dtype and residual.tobytes() == r.tobytes()
        steps += len(handed)
    assert steps == 11


def _paper_rhs(model, eps, w0, residual, v):
    """R + S + eps^2 Q[v] + eps^2 N[v] on the grid, from the term-by-term
    operators, with R + S the grid function ``residual``."""
    remainder = apply_P(model, eps, w0 + eps**2 * v) - apply_P(model, eps, w0)
    return project_even(residual + eps**2 * apply_Q(model, eps, v) + remainder)


def test_fixed_point_map_is_paper_map(model1, model2_cubic, model3_toda):
    # the map in cosine coordinates equals the paper's map
    # L_eps^{-1}(R + S + eps^2 Q[v] + eps^2 N[v]) assembled on the grid; a
    # cold solve_wave takes as many steps as that map iterated on grid
    # functions under the same stop test, to the same wave and sigma_min
    eps = 0.2
    rng = np.random.default_rng(11)
    for model in (model1, model2_cubic, model3_toda):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        linearized_operator.cache_clear()
        solution = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps))
        linearized_operator.cache_clear()
        operator = linearized_operator(model, grid, eps)
        w0 = operator.w0
        r, s = residuals(model, grid, eps)
        residual = even_synthesis(grid, r + s)
        v = random_band_limited(grid, 8.0, rng, parity="even", decay=1.0)
        rhs = _paper_rhs(model, eps, w0, residual, v)
        paper = operator.solve(even_coefficients(rhs))
        image = fixed_point_map(model, even_coefficients(v), operator, r)
        assert np.linalg.norm(image - paper) <= 1e-11 * np.linalg.norm(paper)
        v = cw.GridFunction(grid, np.zeros(grid.num_points))
        for iterations in range(1, 51):
            rhs = _paper_rhs(model, eps, w0, residual, v)
            image = even_synthesis(grid, operator.solve(even_coefficients(rhs)))
            increment = cw.l2_norm(image - v)
            v = image
            if increment <= 1e-12 * max(1.0, cw.l2_norm(v)):
                break
        assert solution.diagnostics.iterations == iterations
        assert solution.diagnostics.sigma_min == operator.smallest_singular_value()
        gap = cw.sup_norm(solution.w - (w0 + eps**2 * v))
        assert gap <= 1e-14 * cw.sup_norm(solution.w)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("name", ["M1", "M2-cubic", "M3-toda"])
def test_solve_wave_in_the_kdv_regime(name, n, model1, model2_cubic, model3_toda):
    # the paper's eps -> 0 regime: no O(1) term cancels in a step, so the
    # default config converges in a few steps
    model = {"M1": model1, "M2-cubic": model2_cubic, "M3-toda": model3_toda}[name]
    grid = cw.make_grid(cw.default_half_length(model), n)
    for eps in (1e-3, 1e-4):
        diagnostics = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps)).diagnostics
        assert diagnostics.iterations <= 5, eps
        assert diagnostics.tw_residual <= 1e-9, eps


def test_corrector_accuracy_floor(model1, grid1):
    # R carries round-off of about eps_mach/eps^2, so v is trusted down
    # to eps 1e-4 (SolveConfig): there ||v|| is within 1e-5 of its value at 1e-3
    norms = [
        cw.l2_norm(cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=eps)).v)
        for eps in (1e-3, 1e-4)
    ]
    assert abs(norms[1] - norms[0]) <= 1e-5 * norms[0]


def _toda_wave(x, eps):
    """The Toda chain's exact wave: with sinh(kappa)/kappa = sqrt(1 + eps^2),
    eps^2 w = kappa [tanh(kappa (x/eps + 1/2)) - tanh(kappa (x/eps - 1/2))],
    summed as kappa sinh(kappa) / (cosh(kappa (x/eps + 1/2)) cosh(kappa (x/eps - 1/2)))
    so that no tanh difference cancels."""

    def excess(kappa):  # sinh(kappa)/kappa - 1, by its series below 0.1
        k2 = kappa * kappa
        if kappa < 0.1:
            return k2 * (1 / 6 + k2 * (1 / 120 + k2 * (1 / 5040 + k2 * (1 / 362880 + k2 / 39916800))))
        return math.sinh(kappa) / kappa - 1.0

    target = eps**2 / (1.0 + math.sqrt(1.0 + eps**2))  # sqrt(1 + eps^2) - 1
    low, high = 0.0, 4.0
    while (middle := 0.5 * (low + high)) not in (low, high):
        low, high = (middle, high) if excess(middle) < target else (low, middle)
    kappa, xi = low, x / eps
    return kappa * math.sinh(kappa) / (np.cosh(kappa * (xi + 0.5)) * np.cosh(kappa * (xi - 0.5))) / eps**2


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("eps", [0.4, 0.1, 0.01, 1e-3])
def test_solve_wave_matches_the_toda_wave(eps, n):
    # M1 with alpha 1, beta 1/2 and a toda-remainder scale of 1 is the Toda
    # lattice, force e^r - 1: the default solve meets its closed-form wave
    # to 9.0e-13 of the peak or better (3.3e-13 from eps 0.01 down)
    model = cw.ChainModel((1.0,), (0.5,), cw.PsiFamily.toda_remainder((1.0,)))
    grid = cw.make_grid(cw.default_half_length(model), n)
    solution = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps))
    exact = _toda_wave(grid.nodes, eps)
    assert np.max(np.abs(solution.w.values - exact)) <= 1e-11 * np.max(exact)


@pytest.mark.parametrize(
    ("beta", "psi", "a", "b", "c"),
    [(1.0, cw.PsiFamily(), 12 / 5, -9 / 4, 3 / 5),
     (0.5, cw.PsiFamily.toda_remainder((1.0,)), 3 / 10, -9 / 4, 6 / 5)],
)
def test_corrector_matches_the_rational_v0(beta, psi, a, b, c):
    # the eps^2 term in closed form, v0 = a sech^2 y + b sech^4 y + c y tanh y
    # sech^2 y at y = sqrt(d1) x / 2, on M1 and on the Toda chain (alpha 1,
    # beta 1/2): a default solve at eps 1e-3 meets it to 1.1e-6 and 7.8e-7 of
    # its peak
    model = cw.ChainModel((1.0,), (beta,), psi)
    grid = cw.make_grid(cw.default_half_length(model), 2048)
    solution = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=1e-3))
    y = 0.5 * math.sqrt(model.d1) * grid.nodes
    sech2 = 1.0 / np.cosh(y) ** 2
    v0 = (a + b * sech2 + c * y * np.tanh(y)) * sech2
    assert np.max(np.abs(solution.v.values - v0)) <= 1e-5 * np.max(np.abs(v0))


def _scaled(model, force=1.0, amplitude=1.0):
    """The chain with alpha_m, beta_m and the psi params times ``force``,
    beta_m times ``amplitude`` and the psi params times ``amplitude``
    squared; the latter divides a polynomial chain's amplitudes by it."""
    return cw.ChainModel(
        tuple(force * a for a in model.alpha),
        tuple(force * amplitude * b for b in model.beta),
        cw.PsiFamily(model.psi.kind, tuple(force * amplitude**2 * p for p in model.psi.params)),
    )


@pytest.mark.parametrize("name", ["M1", "M2-cubic", "M3-toda", "Toda"])
def test_solve_wave_is_covariant_under_time_scaling(name, model1, model2_cubic, model3_toda):
    # forces times lam are time run sqrt(lam) times faster: the wave at eps
    # sqrt(lam) on a domain sqrt(lam) times wider is w / lam at the same
    # nodes. One base domain serves every copy, the widest of their default
    # domains mapped back; the worst gap reads 1.3e-14 of the peak (M1, lam 7)
    toda = cw.ChainModel((1.0,), (0.5,), cw.PsiFamily.toda_remainder((1.0,)))
    model = {"M1": model1, "M2-cubic": model2_cubic, "M3-toda": model3_toda, "Toda": toda}[name]
    copies = {lam: _scaled(model, force=lam) for lam in (0.06, 0.12, 7.0)}
    half_length = max(
        [cw.default_half_length(model)]
        + [cw.default_half_length(copy) / math.sqrt(lam) for lam, copy in copies.items()]
    )
    grid = cw.make_grid(half_length, 2048)
    w = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=0.2)).w.values
    for lam, copy in copies.items():
        scaled_grid = cw.make_grid(half_length * math.sqrt(lam), 2048)
        config = cw.SolveConfig(epsilon=0.2 * math.sqrt(lam))
        w_lam = cw.solve_wave(copy, scaled_grid, config).w.values
        assert np.max(np.abs(lam * w_lam - w)) <= 1e-12 * np.max(w), lam


@pytest.mark.parametrize("name", ["M1", "M2-cubic"])
def test_solve_wave_is_covariant_under_amplitude_scaling(name, model1, model2_cubic):
    # beta times mu and the cubic deltas times mu^2 leave the chain's wave
    # at w / mu; the worst gap reads 1.3e-14 of the peak (M1, mu 50)
    model = {"M1": model1, "M2-cubic": model2_cubic}[name]
    copies = {mu: _scaled(model, amplitude=mu) for mu in (0.1, 50.0)}
    half_length = max(map(cw.default_half_length, [model, *copies.values()]))
    grid = cw.make_grid(half_length, 2048)
    w = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=0.2)).w.values
    for mu, copy in copies.items():
        w_mu = cw.solve_wave(copy, grid, cw.SolveConfig(epsilon=0.2)).w.values
        assert np.max(np.abs(mu * w_mu - w)) <= 1e-12 * np.max(w), mu


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("damping", [1.0, 0.7])
def test_diverging_solve_fails_typed(n, damping):
    # the Toda chain at eps 1.0 diverges; the solve stops at its first
    # non-finite increment (steps 24 to 33 here) with NoConvergenceError
    # instead of running its budget on NaN or passing an infinite ||v||
    model = cw.ChainModel((1.0,), (0.5,), cw.PsiFamily.toda_remainder((1.0,)))
    grid = cw.make_grid(cw.default_half_length(model), n)
    config = cw.SolveConfig(epsilon=1.0, damping=damping)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cw.CurvatureWarning)
        with pytest.raises(cw.NoConvergenceError, match="non-finite"):
            cw.solve_wave(model, grid, config)


@pytest.mark.parametrize(("name", "rows"), [("M2", 68), ("M2-cubic", 84)])
def test_sweep_row_forms_r_once(name, rows, model2, model2_cubic, transform_lengths):
    """A cold one-row sweep at eps 0.1, N = 1024 transforms the rows of its
    cold solve (68 on M2, 80 on M2-cubic) and the 2M rows of S_eps that only
    ``residuals`` forms when psi is not none: the solve takes R from the
    row's ``residuals`` call, where forming R again took 2M more rows (72 and
    88)."""
    model = {"M2": model2, "M2-cubic": model2_cubic}[name]
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    linearized_operator.cache_clear()
    lengths = transform_lengths()
    (row,) = cw.convergence_sweep(model, grid, [0.1], cw.SolveConfig(epsilon=0.1))
    assert row.error is None and row.iterations == 6
    assert lengths == [1024] * rows


def test_solve_wave_contract(model1, grid1, solution1):
    d = solution1.diagnostics
    assert d.tw_residual <= 1e-9
    assert d.iterations <= 50
    assert float(np.min(solution1.w.values)) >= -1e-10
    assert evenness_defect(solution1.w) <= 1e-10
    assert solution1.wave_speed_sq == pytest.approx(model1.sound_speed_sq + 0.04)
    # ansatz consistency: w - w0 - eps^2 v vanishes identically
    rebuilt = solution1.w0 + solution1.epsilon**2 * solution1.v
    assert np.array_equal(rebuilt.values, solution1.w.values)


def test_solve_wave_convergence_order(model1, grid1):
    errors = {}
    for eps in (0.2, 0.1, 0.05):
        solution = cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=eps))
        errors[eps] = (
            cw.l2_norm(solution.w - solution.w0),
            cw.sup_norm(solution.w - solution.w0),
        )
    for idx in (0, 1):
        order1 = math.log(errors[0.2][idx] / errors[0.1][idx]) / math.log(2.0)
        order2 = math.log(errors[0.1][idx] / errors[0.05][idx]) / math.log(2.0)
        assert order1 == pytest.approx(2.0, abs=0.3)
        assert order2 == pytest.approx(2.0, abs=0.3)


def test_solve_wave_deterministic(model1, grid1):
    first = cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=0.15))
    second = cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=0.15))
    assert np.array_equal(first.w.values, second.w.values)
    assert first.diagnostics == second.diagnostics


def test_solve_wave_no_convergence_budget(model1, grid1):
    # M1 at eps 1.0 with damping 1.0 stalls near an increment of 3.6e-11,
    # above its TOL budget, and runs out of steps
    with pytest.raises(cw.NoConvergenceError, match=f"after {solver.MAX_ITERATIONS} iterations"):
        cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=1.0))


def test_solve_wave_that_does_not_contract_spends_the_budget():
    # with a toda remainder of scale 2, M1's map at eps 1.0 does not
    # contract: its increments stay O(1) (5.981e-01 at the end), and the
    # solve ends after all 200 map steps
    model = cw.ChainModel((1.0,), (1.0,), cw.PsiFamily.toda_remainder((2.0,)))
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cw.CurvatureWarning)
        with pytest.raises(cw.NoConvergenceError, match="after 200 iterations") as info:
            cw.solve_wave(model, grid, cw.SolveConfig(epsilon=1.0))
    increment = float(str(info.value).split(" at ")[1].split()[0])
    assert increment > 0.1


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(cw.NoConvergenceError):
            call()
    return caught


def test_solve_wave_warns_about_curvature_once():
    # M1-toda at eps 1.0 leaves |r| <= 1 on several of its 200 iterations,
    # each time with another |r|; the solve reports only the largest
    model = cw.ChainModel((1.0,), (1.0,), cw.PsiFamily.toda_remainder((2.0,)))
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    config = cw.SolveConfig(epsilon=1.0)
    raw = _recorded(lambda: solver._solve_wave(model, grid, config))
    assert len({str(w.message) for w in raw}) > 1
    merged = _recorded(lambda: cw.solve_wave(model, grid, config))
    assert len(merged) == 1
    assert merged[0].category is cw.CurvatureWarning
    assert merged[0].message.peak == max(w.message.peak for w in raw)


def test_solve_wave_passes_other_warnings_through(model1, grid1, monkeypatch):
    tail_decay = solver.measure_tail_decay

    def warning_tail_decay(w):
        warnings.warn("tail fit", RuntimeWarning)
        warnings.warn("tail fit", RuntimeWarning)
        return tail_decay(w)

    monkeypatch.setattr(solver, "measure_tail_decay", warning_tail_decay)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=0.2))
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "tail fit")] * 2


def test_solve_wave_cubic_model(model2_cubic):
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    solution = cw.solve_wave(model2_cubic, grid, cw.SolveConfig(epsilon=0.2))
    assert solution.diagnostics.tw_residual <= 1e-9
    assert unimodality_defect(solution.w.values) <= 1e-10 * cw.sup_norm(solution.w)


def test_solve_wave_large_grid(model2_cubic):
    # matrix-free L_eps keeps N = 16384 at O(N) memory; refining 4096 -> 16384
    # on the same box leaves the wave unchanged on the shared nodes
    half_length = cw.default_half_length(model2_cubic)
    config = cw.SolveConfig(epsilon=0.1)
    coarse = cw.solve_wave(model2_cubic, cw.make_grid(half_length, 4096), config)
    fine = cw.solve_wave(model2_cubic, cw.make_grid(half_length, 16384), config)
    assert fine.diagnostics.tw_residual <= 1e-9
    assert np.max(np.abs(fine.w.values[::4] - coarse.w.values)) <= 1e-12
    assert abs(fine.diagnostics.sigma_min - coarse.diagnostics.sigma_min) <= 1e-10


def test_eigen_identity_converged(solution1):
    assert cw.eigen_identity_check(solution1) <= 1e-6


def test_eigen_identity_trivial_wave(model1, grid1):
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    trivial = cw.WaveSolution(
        model=model1,
        grid=grid1,
        epsilon=0.2,
        wave_speed_sq=model1.sound_speed_sq + 0.04,
        w0=zero,
        v=zero,
        w=zero,
        diagnostics=SolveDiagnostics(0, 0.0, 0.0, 0.0, 1.0, float("nan")),
    )
    assert cw.eigen_identity_check(trivial) == 0.0


def test_eigen_identity_tracks_solver_tolerance(model1, grid1, monkeypatch):
    config = cw.SolveConfig(epsilon=0.2)
    tight = cw.solve_wave(model1, grid1, config)
    # the one tolerance of the increments and the linear solves, loosened
    for module in (linearized, solver):
        monkeypatch.setattr(module, "TOL", 1e-6)
    loose = cw.solve_wave(model1, grid1, config)
    assert cw.eigen_identity_check(loose) > cw.eigen_identity_check(tight)


def test_eigen_identity_matches_force_law_form(model2_cubic, model3_toda):
    # off a solution, eps^2 ||J_w w'|| / ||w'|| is the force-law defect
    # ||sum_m m^2 A(force_m'(m eps^2 A w) A w') - c^2 w'|| / ||w'||
    eps = 0.2
    for model in (model2_cubic, model3_toda):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        w = cw.kdv_profile(model, grid)
        speed_sq = model.sound_speed_sq + eps**2
        w_prime = cw.derivative(w, 1)
        total = -speed_sq * w_prime.values
        for m, (a, b) in enumerate(zip(model.alpha, model.beta), start=1):
            averaging = cw.averaging_symbol(grid, m * eps)
            argument = m * eps**2 * cw.apply_symbol(w.values, averaging)
            stiffness = a + 2.0 * b * argument + model.psi.second(m, argument)
            inner = stiffness * cw.apply_symbol(w_prime.values, averaging)
            total += m**2 * cw.apply_symbol(inner, averaging)
        expected = cw.l2_norm(cw.GridFunction(grid, total)) / cw.l2_norm(w_prime)
        solution = cw.WaveSolution(
            model=model,
            grid=grid,
            epsilon=eps,
            wave_speed_sq=speed_sq,
            w0=w,
            v=cw.GridFunction(grid, np.zeros(grid.num_points)),
            w=w,
            diagnostics=SolveDiagnostics(0, 0.0, 0.0, 0.0, 1.0, float("nan")),
        )
        assert cw.eigen_identity_check(solution) == pytest.approx(expected, rel=1e-9)


def test_measure_tail_decay_manufactured(grid1):
    exponential = cw.GridFunction(grid1, np.exp(-2.0 * np.abs(grid1.nodes)))
    assert measure_tail_decay(exponential) == pytest.approx(2.0, rel=0.01)
    flat = cw.GridFunction(grid1, np.ones(grid1.num_points))
    with pytest.raises(cw.EmptyWindowError):
        measure_tail_decay(flat)


def test_tail_rate_stable_under_round_off(solution1):
    # an even perturbation at the round-off of w barely moves the fitted
    # rate: the fit window stops at w = 1e-8, where 1e-15 is 1e-7 relative
    w = solution1.w
    base = measure_tail_decay(w)
    rng = np.random.default_rng(5)
    for _ in range(4):
        noise = cw.GridFunction(w.grid, rng.uniform(-1e-15, 1e-15, w.grid.num_points))
        rate = measure_tail_decay(w + project_even(noise))
        assert abs(rate - base) <= 1e-9 * base


def _exact_slope(xs, ys):
    # the least-squares slope of the float data in rational arithmetic
    xs, ys = [list(map(Fraction, map(float, v))) for v in (xs, ys)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(
        sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    )


def test_line_slope_is_the_least_squares_slope(solution1):
    # on the fit window of a solved profile's tail and on a transport run's
    # energies; np.polyfit is 8e-5 off the exact slope of those energies,
    # whose trend is round-off, and is held only on the tail
    w = solution1.w
    x = w.grid.nodes
    mask = (x > 0) & (w.values > 1e-8) & (w.values < 1e-4)
    tail = (x[mask], np.log(w.values[mask]))
    positions, velocities = cw.wave_initial_data(solution1, 80)
    energies = np.empty(201)
    lattice._Verlet(solution1.model, positions, velocities, 0.05).run(200, energies)
    for xs, ys in (tail, (0.05 * np.arange(201), energies)):
        assert solver._line_slope(xs, ys) == pytest.approx(_exact_slope(xs, ys), rel=1e-12)
    assert solver._line_slope(*tail) == pytest.approx(np.polyfit(*tail, 1)[0], rel=1e-12)


def test_no_polyfit_in_solve_transport_verify(model1, grid1, monkeypatch):
    # the line fits of the tail rate, the energy drift and verify's slopes
    # are closed form: none reaches for numpy's least squares
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np, "polyfit", refuse)
    solution = cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=0.2))
    assert solution.diagnostics.tail_decay_rate > 0
    assert cw.run_transport(solution, 80, 0.4, 0.05).energy_drift >= 0
    results = cw.run_verification(model1, grid1)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_convergence_sweep_rows(model1, grid1):
    config = cw.SolveConfig(epsilon=0.4)
    rows = cw.convergence_sweep(model1, grid1, (0.4, 0.2, 0.1, 0.05), config)
    assert len(rows) == 4
    assert rows[0].order_l2 is None and rows[0].order_sup is None
    for row in rows[1:]:
        assert 1.7 <= row.order_l2 <= 2.3
        assert 1.7 <= row.order_sup <= 2.3
    assert all(row.tw_residual <= 1e-9 for row in rows)
    sigma = [row.sigma_min for row in rows]
    assert min(sigma) > 0.3
    norms_v = [row.l2_error / row.epsilon**2 for row in rows]
    assert max(norms_v) / min(norms_v) < 2.0


def test_convergence_sweep_to_small_eps(model2):
    # down to eps 1e-3 every row converges, at C7's order rule 2 +- 0.3
    grid = cw.make_grid(cw.default_half_length(model2), 1024)
    schedule = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
    rows = cw.convergence_sweep(model2, grid, schedule, cw.SolveConfig(epsilon=0.1))
    assert [row.error for row in rows] == [None] * len(schedule)
    for row in rows[1:]:
        assert abs(row.order_l2 - 2.0) <= 0.3 and abs(row.order_sup - 2.0) <= 0.3


def test_convergence_sweep_single_row(model1, grid1):
    rows = cw.convergence_sweep(model1, grid1, (0.2,), cw.SolveConfig(epsilon=0.2))
    assert len(rows) == 1
    assert rows[0].order_l2 is None


def test_convergence_sweep_rejects_increasing(model1, grid1):
    with pytest.raises(ValueError):
        cw.convergence_sweep(model1, grid1, (0.1, 0.2), cw.SolveConfig(epsilon=0.1))


def test_convergence_sweep_partial_failure(model1, grid1):
    # a failing row is marked and the sweep continues: M1 runs out of steps
    # at eps 1.0 and solves at 0.4
    rows = cw.convergence_sweep(model1, grid1, (1.0, 0.4), cw.SolveConfig(epsilon=1.0))
    assert [row.error for row in rows] == ["NoConvergence", None]
    assert rows[0].residual_norm_rs > 0.0 and rows[0].iterations is None
    assert rows[1].iterations > 0 and rows[1].tw_residual <= solver.TOL_RESIDUAL
    assert rows[1].order_l2 is None  # no order next to a failed row


def test_convergence_sweep_warns_about_curvature_once_per_row():
    # each row's residuals and solve push |r| above 1 at several places; the
    # sweep reports only the largest |r| of each row
    model = cw.ChainModel((1.0,), (1.0,), cw.PsiFamily.toda_remainder((2.0,)))
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    schedule = (1.0, 0.9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = cw.convergence_sweep(model, grid, schedule, cw.SolveConfig(epsilon=1.0))
    assert [row.error for row in rows] == ["NoConvergence"] * len(schedule)
    assert [w.category for w in caught] == [cw.CurvatureWarning] * len(schedule)


def _traced_after(*calls) -> list[int]:
    """Traced bytes still allocated after each of ``calls``, run in turn in
    one tracing session."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = []
        for call in calls:
            call()
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0])
        return kept
    finally:
        tracemalloc.stop()


def test_convergence_sweep_keeps_no_operator(model2_cubic):
    # each row's L_eps is built outside the linearized_operator cache and
    # dropped when the next row starts: a 6-row sweep keeps less than one
    # cached operator's footprint more than a 2-row sweep. Measured after a
    # warm-up sweep, which takes the first call's imports out: 120 against
    # 47 kB kept, where an operator holds 189 kB and the cache kept 1255
    # against 425 kB; the rest is the symbol caches of the extra rows
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    schedule = (0.4, 0.3, 0.2, 0.1, 0.05, 0.025)
    config = cw.SolveConfig(epsilon=0.4)
    cw.convergence_sweep(model2_cubic, grid, schedule[:2], config)
    held, left = _traced_after(
        lambda: cw.solve_wave(model2_cubic, grid, cw.SolveConfig(epsilon=0.15)),
        linearized_operator.cache_clear,
    )
    kept = []
    for rows in (2, 6):
        for cache in (linearized_operator, operators.averaging_stack, operators.averaging_symbol,
                      operators._b_diagonal):
            cache.cache_clear()
        kept += _traced_after(lambda: cw.convergence_sweep(model2_cubic, grid, schedule[:rows], config))
        assert linearized_operator.cache_info().currsize == 0
    assert kept[1] - kept[0] < held - left


def test_convergence_sweep_holds_each_window_symbol_once(model2_cubic):
    # a sweep row averages with one (M, N/2 + 1) stack whose rows are
    # bitwise averaging_symbol(grid, m eps) but are not taken from that
    # cache: after a warm 6-row sweep, dropping the stacks frees their 52 kB
    # and then dropping the symbol cache frees nothing (it freed 35 kB of
    # copies of the stacked symbols when the stacks were built from it)
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    schedule = (0.4, 0.3, 0.2, 0.1, 0.05, 0.025)
    config = cw.SolveConfig(epsilon=0.4)
    cw.convergence_sweep(model2_cubic, grid, schedule, config)
    for cache in (operators.averaging_stack, operators.averaging_symbol):
        cache.cache_clear()
    kept = _traced_after(
        lambda: cw.convergence_sweep(model2_cubic, grid, schedule, config),
        operators.averaging_stack.cache_clear,
        operators.averaging_symbol.cache_clear,
    )
    stack_bytes = 6 * 2 * (grid.num_points // 2 + 1) * 8
    assert kept[0] - kept[1] >= stack_bytes
    assert kept[1] - kept[2] < grid.num_points // 2 + 1  # not one symbol's 8 bytes a mode
    for eps in schedule:
        stack = operators.averaging_stack(grid, eps, 2)
        for m, row in enumerate(stack.symbols, start=1):
            assert np.array_equal(row, cw.averaging_symbol(grid, m * eps))


def test_convergence_sweep_rows_equal_cached_solves(model2_cubic):
    # the sweep's private operator path (psi not none) gives each row exactly
    # the diagnostics of a cold solve_wave through the cache at its eps
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    w0 = cw.kdv_profile(model2_cubic, grid)
    linearized_operator.cache_clear()
    rows = cw.convergence_sweep(model2_cubic, grid, (0.4, 0.2, 0.1, 0.05), cw.SolveConfig(epsilon=0.4))
    for row in rows:
        linearized_operator.cache_clear()
        solution = cw.solve_wave(model2_cubic, grid, cw.SolveConfig(epsilon=row.epsilon))
        d = solution.diagnostics
        assert (row.iterations, row.tw_residual, row.sigma_min, row.l2_error) == (
            d.iterations, d.tw_residual, d.sigma_min, cw.l2_norm(solution.w - w0)
        )
