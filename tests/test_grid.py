"""Grid construction, transforms, norms, evenness, and calculus."""

import math
import tracemalloc

import numpy as np
import pytest

import chainwaves as cw
from chainwaves.grid import evenness_defect
from chainwaves.verify import random_band_limited_rows
from conftest import project_even, random_band_limited


def test_make_grid_fields():
    grid = cw.make_grid(40.0, 4096)
    assert grid.spacing == pytest.approx(80.0 / 4096)
    assert grid.spacing == 0.01953125
    assert grid.nodes[0] == -40.0
    assert grid.spacing * grid.num_points == pytest.approx(2 * grid.half_length, rel=1e-15)


def test_make_grid_integer_wavenumbers():
    grid = cw.make_grid(math.pi, 16)
    assert list(np.rint(grid.half_wavenumbers).astype(int)) == list(range(9))
    np.testing.assert_allclose(grid.half_wavenumbers, np.arange(9), atol=1e-12)


@pytest.mark.parametrize(
    "bad",
    [(40.0, 17), (40.0, 14), (40.0, 0), (-1.0, 64), (0.0, 64), (math.inf, 1024), (math.nan, 1024)],
)
def test_make_grid_rejects(bad):
    with pytest.raises(ValueError):
        cw.make_grid(*bad)


def test_grid_function_rejects_nonfinite(grid1):
    values = np.zeros(grid1.num_points)
    values[3] = np.inf
    with pytest.raises(ValueError):
        cw.GridFunction(grid1, values)


def test_grid_function_values_locked(grid1):
    f = cw.GridFunction(grid1, np.ones(grid1.num_points))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_l2_norm_zero(grid1):
    assert cw.l2_norm(cw.GridFunction(grid1, np.zeros(grid1.num_points))) == 0.0


def test_l2_norm_constant():
    grid = cw.make_grid(1.0, 16)
    f = cw.GridFunction(grid, np.ones(16))
    assert cw.l2_norm(f) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_l2_norm_sech_squared_analytic():
    # independent oracle: int sech^4(x/2) dx = 8/3 (antiderivative of sech^4
    # is tanh - tanh^3/3, doubled by the substitution u = x/2)
    grid = cw.make_grid(40.0, 4096)
    f = cw.GridFunction(grid, 1.0 / np.cosh(grid.nodes / 2.0) ** 2)
    assert cw.l2_norm(f) == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-8)


def test_sup_norm_cases(grid1, model1):
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(zero) == 0.0
    w0 = cw.kdv_profile(model1, grid1)
    assert cw.sup_norm(w0) == pytest.approx(1.5 * model1.d1 / model1.d2, abs=1e-10)
    spike = np.zeros(grid1.num_points)
    spike[7] = -5.0
    assert cw.sup_norm(cw.GridFunction(grid1, spike)) == 5.0


def test_project_even_idempotent_and_parity_split(grid1, rng):
    k1, k2 = grid1.half_wavenumbers[3], grid1.half_wavenumbers[8]
    even_part = np.cos(k1 * grid1.nodes)
    odd_part = np.sin(k2 * grid1.nodes)
    f = cw.GridFunction(grid1, even_part + odd_part)
    projected = project_even(f)
    np.testing.assert_allclose(projected.values, even_part, atol=1e-13)
    assert evenness_defect(projected) == 0.0
    twice = project_even(projected)
    np.testing.assert_allclose(twice.values, projected.values, atol=1e-15)
    # annihilates odd input
    odd = cw.GridFunction(grid1, odd_part)
    assert cw.sup_norm(project_even(odd)) < 1e-13
    # nonexpansive on random data
    g = cw.GridFunction(grid1, rng.standard_normal(grid1.num_points))
    assert cw.l2_norm(project_even(g)) <= cw.l2_norm(g) * (1 + 1e-14)


def test_evenness_defect(grid1):
    odd = cw.GridFunction(grid1, np.sin(grid1.half_wavenumbers[4] * grid1.nodes))
    assert evenness_defect(odd) == pytest.approx(1.0, abs=1e-10)


def test_derivative_constant_and_modes(grid1):
    const = cw.GridFunction(grid1, np.full(grid1.num_points, 3.7))
    for order in (1, 2, 3, 4):
        assert cw.sup_norm(cw.derivative(const, order)) < 1e-12
    k = grid1.half_wavenumbers[6]
    f = cw.GridFunction(grid1, np.cos(k * grid1.nodes))
    second = cw.derivative(f, 2)
    np.testing.assert_allclose(second.values, -k**2 * f.values, atol=1e-10 * k**2)


def test_derivative_profile_ode(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    rhs = model1.d1 * w0 - model1.d2 * (w0 * w0)
    assert cw.sup_norm(cw.derivative(w0, 2) - rhs) < 1e-8


@pytest.mark.parametrize("order", [0, 5, -1])
def test_derivative_rejects_order(grid1, order):
    f = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    with pytest.raises(ValueError):
        cw.derivative(f, order)


def test_derivative_composes(grid1, rng):
    f = random_band_limited(grid1, 30.0, rng)
    twice = cw.derivative(cw.derivative(f, 2), 2)
    fourth = cw.derivative(f, 4)
    assert cw.l2_norm(twice - fourth) <= 1e-10 * cw.l2_norm(fourth)


def test_transform_roundtrip_and_parseval(grid1, rng):
    values = rng.standard_normal(grid1.num_points)
    f = cw.GridFunction(grid1, values)
    # integral-convention coefficients c_n = h (-1)^n rfft(f)_n on the half lattice
    coeff = grid1.spacing * grid1.half_sign * np.fft.rfft(f.values)
    back = np.fft.irfft(coeff / (grid1.spacing * grid1.half_sign), n=grid1.num_points)
    assert np.max(np.abs(back - values)) <= 1e-13 * np.max(np.abs(values))
    # the sign is exp(-i k_n x_0) at x_0 = -L
    np.testing.assert_allclose(
        grid1.half_sign, np.exp(-1j * grid1.half_wavenumbers * grid1.nodes[0]).real, atol=1e-9
    )
    # Parseval under the half-spectrum weights (1, 2, ..., 2, 1)
    assert list(grid1.half_weights[[0, 1, -2, -1]]) == [1.0, 2.0, 2.0, 1.0]
    lhs = cw.l2_norm(f) ** 2
    rhs = float(np.sum(grid1.half_weights * np.abs(coeff) ** 2)) / (2 * grid1.half_length)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_sample_matches_nodes(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    subset = grid1.nodes[::37]
    np.testing.assert_allclose(cw.sample(grid1, w0.values, subset), w0.values[::37], atol=1e-12)


def test_sample_batched_columns(grid1, rng):
    # a (B, N) stack of rows against one (N,) call per row, off-grid points
    rows = np.array([random_band_limited(grid1, 30.0, rng).values for _ in range(3)])
    points = rng.uniform(-grid1.half_length, grid1.half_length, 500)
    batched = cw.sample(grid1, rows, points)
    assert batched.shape == (3, 500)
    for b in range(3):
        single = cw.sample(grid1, rows[b], points)
        assert np.max(np.abs(batched[b] - single)) <= 1e-14 * np.max(np.abs(single))


def _dense_sample(grid, values, points):
    # the textbook interpolant: every half-lattice mode's phase at every point
    k = grid.half_wavenumbers
    coeff = grid.half_weights * grid.half_sign * np.fft.rfft(values) / grid.num_points
    return (np.exp(1j * np.outer(points, k)) @ coeff).real


@pytest.mark.parametrize("num_points", [64, 1024, 4096])
def test_sample_matches_dense_phase_matrix(model1, num_points):
    # smooth decaying profiles, as sample receives them; points off the grid
    # and outside [-L, L), where the interpolant continues periodically
    grid = cw.make_grid(cw.default_half_length(model1), num_points)
    length = grid.half_length
    x = grid.nodes
    rows = np.array(
        [
            cw.kdv_profile(model1, grid).values,
            np.tanh(x) / np.cosh(x / 2.0) ** 2,
            np.exp(-((x - 3.0) ** 2) / 4.0) * np.cos(2.0 * x),
        ]
    )
    rng = np.random.default_rng(num_points)
    points = np.concatenate(
        [rng.uniform(-1.5 * length, 1.5 * length, 1400), [-length, length, 2.0 * length]]
    )
    batched = cw.sample(grid, rows, points)
    for row, sampled in zip(rows, batched):
        expected = _dense_sample(grid, row, points)
        assert np.max(np.abs(sampled - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_sample_memory_below_dense_phase_matrix(model1):
    # the dense route holds a P x (N/2 + 1) complex phase matrix: 656 MB here
    grid = cw.make_grid(cw.default_half_length(model1), 4096)
    points = np.linspace(-grid.half_length, grid.half_length, 20000)
    values = cw.kdv_profile(model1, grid).values
    dense_bytes = 16 * len(points) * (grid.num_points // 2 + 1)
    tracemalloc.start()
    try:
        cw.sample(grid, values, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dense_bytes / 10


def test_sample_memory_is_flat_in_the_points(model1):
    # the exponential tables are built one block of points at a time; built
    # for all 50,000 points at once they alone would take about 37 MB
    grid = cw.make_grid(cw.default_half_length(model1), 1024)
    points = np.linspace(-grid.half_length, grid.half_length, 50000)
    values = cw.kdv_profile(model1, grid).values
    tracemalloc.start()
    try:
        out = cw.sample(grid, values, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * 2**20


def test_sample_split_off_block_edges_is_bitwise(grid1, rng):
    # three blocks and a lone last point, cut where no block edge falls:
    # each run of points reads bitwise what the whole call gives it
    from chainwaves.grid import _SAMPLE_BLOCK

    rows = random_band_limited_rows(grid1, 30.0, rng, 2)
    points = rng.uniform(-grid1.half_length, grid1.half_length, 3 * _SAMPLE_BLOCK + 1)
    for values in (rows, rows[1]):
        whole = cw.sample(grid1, values, points)
        for cut in (2, _SAMPLE_BLOCK + 44, 2 * _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK - 1):
            parts = [cw.sample(grid1, values, run) for run in (points[:cut], points[cut:])]
            assert np.array_equal(np.concatenate(parts, axis=-1), whole)


def test_row_stacks_are_bitwise_single_rows(grid1, rng):
    # the one batch layout: each row of a stack reads bitwise what a call on
    # that row alone gives, in apply_symbol, sample and averaging_direct
    rows = random_band_limited_rows(grid1, 30.0, rng, 4)
    symbol = cw.averaging_symbol(grid1, 0.3)
    points = rng.uniform(-grid1.half_length, grid1.half_length, 300)
    calls = (
        lambda values: cw.apply_symbol(values, symbol),
        lambda values: cw.sample(grid1, values, points),
        lambda values: cw.averaging_direct(grid1, 0.3, values),
    )
    for call in calls:
        assert np.array_equal(call(rows), [call(row) for row in rows])
    stacked = cw.apply_symbol(rows.reshape(2, 2, -1), symbol)
    assert stacked.shape == (2, 2, grid1.num_points)
    assert np.array_equal(stacked.reshape(4, -1), [cw.apply_symbol(row, symbol) for row in rows])


def test_apply_symbol_matches_complex_fft(grid1, rng):
    # real-FFT route against ifft(symbol * fft(x)).real on the full lattice;
    # the first N/2 + 1 FFT bins carry the half symbol, since each symbol
    # below is even at the Nyquist bin or vanishes there
    rows = rng.standard_normal((3, grid1.num_points))
    half = grid1.num_points // 2 + 1
    k = 2.0 * np.pi * np.fft.fftfreq(grid1.num_points, d=grid1.spacing)  # FFT order
    first_order = 1j * k
    first_order[half - 1] = 0.0
    for symbol in (cw.sinc(0.35 * k), first_order, k**4):
        expected = np.fft.ifft(symbol * np.fft.fft(rows)).real
        bound = 1e-14 * np.max(np.abs(expected))
        batched = cw.apply_symbol(rows, symbol[:half])
        assert np.max(np.abs(batched - expected)) <= bound
        single = cw.apply_symbol(rows[0], symbol[:half])
        assert np.max(np.abs(single - expected[0])) <= bound
    f = cw.GridFunction(grid1, rows[1])
    expected = np.fft.ifft(first_order * np.fft.fft(f.values)).real
    gap = np.max(np.abs(cw.derivative(f, 1).values - expected))
    assert gap <= 1e-14 * np.max(np.abs(expected))
