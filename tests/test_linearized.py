"""Linearized operator: evenness, symmetry, dense cross-check, certified solves."""

import numpy as np
import pytest

import chainwaves as cw
from chainwaves.linearized import (
    LinearizedOperator,
    even_coefficients,
    even_synthesis,
    linearized_operator,
)
from chainwaves.verify import random_band_limited


@pytest.fixture(scope="module")
def op1(model1, grid1):
    return linearized_operator(model1, grid1, 0.2)


@pytest.fixture(scope="module")
def op1_limit(model1, grid1):
    return linearized_operator(model1, grid1, 0.0)


def test_even_basis_roundtrip(grid1, rng):
    coeffs = rng.standard_normal(grid1.num_points // 2 + 1)
    f = even_synthesis(grid1, coeffs)
    assert cw.evenness_defect(f) <= 1e-13 * max(1.0, cw.sup_norm(f))
    np.testing.assert_allclose(even_coefficients(f), coeffs, atol=1e-12)
    # coefficients of an even function synthesize back to it
    g = random_band_limited(grid1, 40.0, rng, parity="even")
    back = even_synthesis(grid1, even_coefficients(g))
    assert cw.l2_norm(back - g) <= 1e-13


def test_apply_m_zero_and_limit_formula(op1, op1_limit, grid1, model1, rng):
    zero = cw.grid_function(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(op1.apply_m(zero)) == 0.0
    v = random_band_limited(grid1, 25.0, rng, parity="even")
    coeff = 2.0 * sum(b * m**3 for m, b in enumerate(model1.beta, start=1))
    pointwise = coeff * (op1_limit.w0 * v)
    assert cw.l2_norm(op1_limit.apply_m(v) - pointwise) < 1e-13


def test_apply_m_converges_to_limit(model1, grid1, rng):
    v = random_band_limited(grid1, 10.0, rng, parity="even", decay=1.0)
    limit = linearized_operator(model1, grid1, 0.0).apply_m(v)
    eps_values = (0.4, 0.2, 0.1, 0.05)
    gaps = [
        cw.l2_norm(linearized_operator(model1, grid1, eps).apply_m(v) - limit)
        for eps in eps_values
    ]
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_apply_l_kernel_direction(op1_limit):
    slope = cw.derivative(op1_limit.w0, 1)
    ratio = cw.l2_norm(op1_limit.apply_l(slope)) / cw.l2_norm(slope)
    assert ratio <= 1e-7


def test_apply_l_zero_and_symmetry(op1, grid1, rng):
    zero = cw.grid_function(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(op1.apply_l(zero)) == 0.0
    for _ in range(3):
        f = random_band_limited(grid1, 25.0, rng)
        g = random_band_limited(grid1, 25.0, rng)
        gap = abs(
            cw.inner_product(op1.apply_l(f), g) - cw.inner_product(f, op1.apply_l(g))
        )
        assert gap <= 1e-10


def test_apply_l_strong_convergence(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    limit = linearized_operator(model1, grid1, 0.0).apply_l(w0)
    eps_values = (0.4, 0.2, 0.1, 0.05)
    gaps = [
        cw.l2_norm(linearized_operator(model1, grid1, eps).apply_l(w0) - limit)
        for eps in eps_values
    ]
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) <= 0.3


@pytest.mark.parametrize("eps", [0.4, 0.1])
def test_jacobian_matches_defect_difference(model2_cubic, model3_toda, eps):
    # at any profile, LinearizedOperator is the Jacobian of tw_defect,
    # psi'' term included: central differences agree to O(h^2)
    h = 1e-3
    rng = np.random.default_rng(13)
    for model in (model2_cubic, model3_toda):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        w0 = cw.kdv_profile(model, grid)
        v = random_band_limited(grid, 8.0, rng, parity="even", decay=1.0)
        jacobian = LinearizedOperator(model, grid, eps, w0).apply_l(v)
        difference = (1.0 / (2.0 * h)) * (
            cw.tw_defect(model, eps, w0 + h * v) - cw.tw_defect(model, eps, w0 - h * v)
        )
        assert cw.l2_norm(jacobian - difference) <= 1e-7 * cw.l2_norm(jacobian)


def test_parity_preservation(op1, grid1, rng):
    v = random_band_limited(grid1, 25.0, rng, parity="even")
    assert cw.evenness_defect(op1.apply_m(v)) <= 1e-12
    assert cw.evenness_defect(op1.apply_l(v)) <= 1e-11


def dense_reference(operator):
    """L_eps in the orthonormal cosine basis, one apply_l per basis vector
    (test-only cross-check of the matrix-free path; N <= 2048)."""
    assert operator.grid.num_points <= 2048
    identity = np.eye(operator.grid.num_points // 2 + 1)
    columns = [
        even_coefficients(operator.apply_l(even_synthesis(operator.grid, e))) for e in identity
    ]
    return np.column_stack(columns)


@pytest.fixture(scope="module")
def references(op1, op1_limit):
    return [(operator, dense_reference(operator)) for operator in (op1, op1_limit)]


def test_dense_reference_symmetric(references):
    for _, matrix in references:
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-9


def test_solve_matches_dense_reference(references, grid1, rng):
    g = random_band_limited(grid1, 30.0, rng, parity="even", decay=0.5)
    for operator, matrix in references:
        direct = np.linalg.solve(matrix, even_coefficients(g))
        gap = np.linalg.norm(even_coefficients(operator.solve(g)) - direct)
        assert gap <= 1e-12 * np.linalg.norm(direct)


def test_sigma_min_matches_dense_reference(references, op1_limit):
    for operator, matrix in references:
        direct = float(np.min(np.abs(np.linalg.eigvalsh(matrix))))
        assert operator.smallest_singular_value() == pytest.approx(direct, rel=1e-10)
    # regression: the limit operator's even-subspace gap sits at 3/4
    assert op1_limit.smallest_singular_value() == pytest.approx(0.75, abs=1e-3)


def test_sigma_min_uniform_in_eps(model1, grid1):
    reference = linearized_operator(model1, grid1, 0.0).smallest_singular_value()
    for eps in (0.2, 0.1, 0.05):
        sigma = linearized_operator(model1, grid1, eps).smallest_singular_value()
        assert sigma >= 0.5 * reference


def test_solve_zero_and_manufactured(op1_limit, grid1, rng):
    zero = cw.grid_function(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(op1_limit.solve(zero)) == 0.0
    target = random_band_limited(grid1, 20.0, rng, parity="even", decay=0.5)
    rhs = op1_limit.apply_l(target)
    recovered = op1_limit.solve(rhs, tol=1e-12)
    assert cw.l2_norm(recovered - target) <= 1e-8 * cw.l2_norm(target)


def test_solve_contract_residual(op1, grid1, rng):
    g = random_band_limited(grid1, 30.0, rng, parity="even", decay=0.5)
    tol = 1e-12
    v = op1.solve(g, tol)
    assert cw.l2_norm(op1.apply_l(v) - g) <= tol * max(1.0, cw.l2_norm(g)) + 1e-13
    assert cw.evenness_defect(v) <= 1e-13 * max(1.0, cw.sup_norm(v))


def test_solve_unreachable_tolerance_raises(op1, grid1, rng):
    g = random_band_limited(grid1, 30.0, rng, parity="even", decay=0.5)
    with pytest.raises(cw.NoConvergenceError):
        op1.solve(g, tol=1e-20)


def test_solve_rejects_odd_input(op1, grid1, rng):
    odd = random_band_limited(grid1, 20.0, rng, parity="odd")
    assert cw.l2_norm(cw.project_even(odd)) <= 1e-13
    energy = np.abs(np.fft.rfft(odd.values)) ** 2
    assert np.sum(energy[grid1.half_wavenumbers > 20.0]) <= 1e-26 * np.sum(energy)
    with pytest.raises(cw.NotEvenError):
        op1.solve(odd)


def test_solve_near_singular_guard(op1, grid1, monkeypatch, rng):
    monkeypatch.setattr(LinearizedOperator, "smallest_singular_value", lambda self: 1e-9)
    g = random_band_limited(grid1, 20.0, rng, parity="even")
    with pytest.raises(cw.NearSingularError):
        op1.solve(g)


def test_grid_mismatch_rejected(op1):
    other = cw.make_grid(op1.grid.half_length, op1.grid.num_points * 2)
    f = cw.grid_function(other, np.zeros(other.num_points))
    with pytest.raises(cw.GridMismatchError):
        op1.apply_l(f)
