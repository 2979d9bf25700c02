"""Linearized operator: evenness, symmetry, dense cross-check, certified solves."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chainwaves as cw
from chainwaves import linearized
from chainwaves.grid import evenness_defect
from chainwaves.linearized import (
    LinearizedOperator,
    _nearest_zero_eigenpair,
    even_coefficients,
    even_synthesis,
    linearized_operator,
)
from conftest import random_band_limited


@pytest.fixture(scope="module")
def op1(model1, grid1):
    return linearized_operator(model1, grid1, 0.2)


@pytest.fixture(scope="module")
def op1_limit(model1, grid1):
    return linearized_operator(model1, grid1, 0.0)


def solve_on_grid(operator, g):
    """``solve`` for a right-hand side on the grid, its solution synthesized
    back on the grid."""
    return even_synthesis(operator.grid, operator.solve(even_coefficients(g)))


def coupling(operator, v):
    """The coupling term M V = B_eps V - J V."""
    b = cw.b_diagonal(operator.model, operator.grid, operator.eps)
    return cw.GridFunction(operator.grid, cw.apply_symbol(v.values, b)) - operator.apply_l(v)


def test_even_basis_roundtrip(grid1, rng):
    coeffs = rng.standard_normal(grid1.num_points // 2 + 1)
    f = even_synthesis(grid1, coeffs)
    assert evenness_defect(f) <= 1e-13 * max(1.0, cw.sup_norm(f))
    np.testing.assert_allclose(even_coefficients(f), coeffs, atol=1e-12)
    # coefficients of an even function synthesize back to it
    g = random_band_limited(grid1, 40.0, rng, parity="even")
    back = even_synthesis(grid1, even_coefficients(g))
    assert cw.l2_norm(back - g) <= 1e-13


def test_apply_m_zero_and_limit_formula(op1, op1_limit, grid1, model1, rng):
    # the coupling M V = B_eps V - J V vanishes at V = 0 and is the pointwise
    # 2 (sum_m beta_m m^3) w0 V at eps = 0
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(coupling(op1, zero)) == 0.0
    v = random_band_limited(grid1, 25.0, rng, parity="even")
    coeff = 2.0 * sum(b * m**3 for m, b in enumerate(model1.beta, start=1))
    pointwise = coeff * (op1_limit.w0 * v)
    assert cw.l2_norm(coupling(op1_limit, v) - pointwise) < 1e-13


def test_apply_m_converges_to_limit(model1, grid1, rng):
    v = random_band_limited(grid1, 10.0, rng, parity="even", decay=1.0)
    limit = coupling(linearized_operator(model1, grid1, 0.0), v)
    eps_values = (0.4, 0.2, 0.1, 0.05)
    gaps = [
        cw.l2_norm(coupling(linearized_operator(model1, grid1, eps), v) - limit)
        for eps in eps_values
    ]
    slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) <= 0.3


def test_apply_l_zero_and_symmetry(op1, grid1, rng):
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(op1.apply_l(zero)) == 0.0
    for _ in range(3):
        f = random_band_limited(grid1, 25.0, rng)
        g = random_band_limited(grid1, 25.0, rng)
        pairing = grid1.spacing * np.sum(op1.apply_l(f).values * g.values)
        gap = abs(pairing - grid1.spacing * np.sum(f.values * op1.apply_l(g).values))
        assert gap <= 1e-10


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


@pytest.mark.parametrize("case", ["M1", "M2", "M3-toda-solved", "limit"])
def test_apply_l_is_one_fft_pair(
    case, model1, grid1, model2, grid2, model3_toda, transform_lengths
):
    """apply_l is B_eps V - M V in one spectral pass: one rfft of V, the
    coupling's batched inverse and forward transforms of M rows, and one
    irfft, 2 + 2M length-N transforms. It matches B_eps V minus the explicit
    sum M V = sum_m A_{m eps}(c_m A_{m eps} V), with
    c_m = 2 beta_m m^3 A_{m eps} w + (m^2/eps^2) psi''_m(m eps^2 A_{m eps} w),
    each average a multiplier of its own, on any profile and at eps = 0."""
    if case == "M3-toda-solved":
        grid = cw.make_grid(cw.default_half_length(model3_toda), 1024)
        w = cw.solve_wave(model3_toda, grid, cw.SolveConfig(epsilon=0.2)).w
        operator = LinearizedOperator(model3_toda, grid, 0.2, w)
    else:
        arguments = {
            "M1": (model1, grid1, 0.2),
            "M2": (model2, grid2, 0.1),
            "limit": (model1, grid1, 0.0),
        }
        operator = linearized_operator(*arguments[case])
    grid = operator.grid
    v = random_band_limited(grid, 25.0, np.random.default_rng(29))  # neither even nor odd
    model, eps = operator.model, operator.eps
    composed = cw.apply_symbol(v.values, cw.b_diagonal(model, grid, eps))
    for m, beta in enumerate(model.beta, start=1):
        symbol = cw.averaging_symbol(grid, m * eps)
        average = cw.apply_symbol(operator.w0.values, symbol)
        column = 2.0 * beta * m**3 * average
        if eps > 0:
            column += (m**2 / eps**2) * model.psi.second(m, m * eps**2 * average)
        composed -= cw.apply_symbol(column * cw.apply_symbol(v.values, symbol), symbol)
    composed = cw.GridFunction(grid, composed)
    operator.apply_l(v)  # builds the coupling columns before the count
    lengths = transform_lengths()
    applied = operator.apply_l(v)
    assert lengths == [grid.num_points] * (2 + 2 * operator.model.neighbor_range)
    assert cw.sup_norm(applied - composed) <= 1e-14 * cw.sup_norm(composed)


def test_parity_preservation(op1, grid1, rng):
    v = random_band_limited(grid1, 25.0, rng, parity="even")
    assert evenness_defect(coupling(op1, v)) <= 1e-12
    assert evenness_defect(op1.apply_l(v)) <= 1e-11


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
def references(op1, op1_limit, model1, grid1, model2, grid2, model3_toda):
    """Dense references on M1 (eps 0.2, the limit, and eps 1.0, where the
    eigenvalue nearest 0 is not the limit's 3/4), on the psi-free M2 at
    eps 0.1, on the M3-toda Jacobian at w0, psi'' term included, and on M2
    at four times its default half length, N = 2048 and eps 0.2, where the
    certified rung is the 513-mode block and a solve takes several
    corrections."""
    toda_grid = cw.make_grid(cw.default_half_length(model3_toda), 1024)
    wide_grid = cw.make_grid(4 * cw.default_half_length(model2), 2048)
    operators = (
        op1,
        op1_limit,
        linearized_operator(model1, grid1, 1.0),
        linearized_operator(model2, grid2, 0.1),
        LinearizedOperator(model3_toda, toda_grid, 0.2, cw.kdv_profile(model3_toda, toda_grid)),
        linearized_operator(model2, wide_grid, 0.2),
    )
    return [(operator, dense_reference(operator)) for operator in operators]


def test_dense_reference_symmetric(references):
    for _, matrix in references:
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-9


def test_solve_matches_dense_reference(references, rng):
    for operator, matrix in references:
        g = random_band_limited(operator.grid, 30.0, rng, parity="even", decay=0.5)
        direct = np.linalg.solve(matrix, even_coefficients(g))
        gap = np.linalg.norm(operator.solve(even_coefficients(g)) - direct)
        assert gap <= 1e-12 * np.linalg.norm(direct)


def test_sigma_min_matches_dense_reference(references, op1_limit):
    for operator, matrix in references:
        direct = float(np.min(np.abs(np.linalg.eigvalsh(matrix))))
        assert operator.smallest_singular_value() == pytest.approx(direct, rel=1e-10)
    # the limit operator's even-subspace gap is the Poeschl-Teller value 3/4
    assert op1_limit.smallest_singular_value() == pytest.approx(0.75, abs=1e-10)


def test_sigma_min_global_at_eps_one(references):
    # M1 at eps = 1.0: the eigenvalue nearest 0 is -0.5623, while 0.9459 is
    # the one a local method seeded near the limit's eigenvector converges to
    operator, matrix = references[2]
    assert (operator.model.neighbor_range, operator.eps) == (1, 1.0)
    eigenvalues = np.linalg.eigvalsh(matrix)
    assert eigenvalues[0] == pytest.approx(-0.5622564689875, abs=1e-12)
    assert operator.smallest_singular_value() == pytest.approx(-eigenvalues[0], rel=1e-10)


@pytest.mark.parametrize("name", ["M1", "M2"])
def test_limit_poeschl_teller_eigenvectors(name, references, model2, grid2):
    # with y = sqrt(d1) x / 2, L_0 has the even eigenpairs -5/4, sech^3 y and
    # 3/4, sech y (5 tanh^2 y - 1), below a continuum starting at 1
    if name == "M1":
        operator, matrix = references[1]
        assert (operator.model.neighbor_range, operator.eps) == (1, 0.0)
    else:
        operator = linearized_operator(model2, grid2, 0.0)
        matrix = dense_reference(operator)
    eigenvalues, vectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
    np.testing.assert_allclose(eigenvalues[:2], [-1.25, 0.75], rtol=0.0, atol=1e-10)
    assert eigenvalues[2] > 1.0
    y = 0.5 * np.sqrt(operator.model.d1) * operator.grid.nodes
    modes = (np.cosh(y) ** -3, (5.0 * np.tanh(y) ** 2 - 1.0) / np.cosh(y))
    for vector, mode in zip(vectors[:, :2].T, modes):
        coefficients = even_coefficients(cw.GridFunction(operator.grid, mode))
        overlap = vector @ coefficients / np.linalg.norm(coefficients)
        assert 1.0 - abs(overlap) <= 1e-10


def test_dense_reference_morse_index_one(references):
    for _, matrix in references:
        assert np.count_nonzero(np.linalg.eigvalsh(matrix) < 0) == 1


def test_import_loads_no_scipy():
    # the linear solve and the eigensolver are the package's own numpy code:
    # a fresh interpreter that imports it has loaded no scipy module
    source = str(Path(cw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    script = "import sys, chainwaves; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


_EPS_PINNED = (0.0, 0.05, 0.1, 0.2, 0.4, 1.0)

# sigma_min at N = 1024 from a shift-invert Lanczos run with inner MINRES at
# rtol 1e-14 and ARPACK's tol = 0 stop alone, which matched the dense
# references and ARPACK's eigsh to <= 1e-14 relative
_SIGMA_MIN_PINNED = {
    "M1": (
        0.7499999999988773,
        0.7516634737180579,
        0.7565396890536267,
        0.7744781461867141,
        0.8278527143975654,
        0.5622564689874712,
    ),
    "M2": (
        0.749999999998877,
        0.7503511640396829,
        0.751399299886099,
        0.755513125156318,
        0.7708033135646728,
        0.8430673590834218,
    ),
    "M3": (
        0.7499999999988763,
        0.7503063697462597,
        0.7512211826468904,
        0.7548172042036334,
        0.7682604842266303,
        0.8335983121255485,
    ),
}


@pytest.mark.parametrize("name", sorted(_SIGMA_MIN_PINNED))
def test_sigma_min_pinned_values(name, model1, model2):
    model = {
        "M1": model1,
        "M2": model2,
        "M3": cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 1 / 3)),
    }[name]
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    for eps, expected in zip(_EPS_PINNED, _SIGMA_MIN_PINNED[name]):
        sigma = linearized_operator(model, grid, eps).smallest_singular_value()
        assert sigma == pytest.approx(expected, rel=1e-14, abs=0.0), eps


def _count_calls(monkeypatch, name):
    """Records the size of every call of the ``LinearizedOperator`` method
    ``name``: the block size of a dense ``even_matrix``, the grid size of
    any other method."""
    sizes = []
    method = getattr(LinearizedOperator, name)

    def counted(self, *args):
        result = method(self, *args)
        sizes.append(len(result) if name == "even_matrix" else self.grid.num_points)
        return result

    monkeypatch.setattr(LinearizedOperator, name, counted)
    return sizes


def test_sigma_min_application_count(model2, grid2, monkeypatch):
    """Counts the work of one sigma_min on M2 at eps 0.1, N = 1024: one dense
    97 x 97 leading block of ``even_matrix``, built in closed form with no
    L_eps application, and one application in cosine coordinates
    (``_apply_even``) for the Rayleigh quotient and its certificate. The
    column-by-column assembly it replaces made 129 coarse applications here."""
    applications = _count_calls(monkeypatch, "_apply_even")
    matrices = _count_calls(monkeypatch, "even_matrix")
    operator = LinearizedOperator(model2, grid2, 0.1, cw.kdv_profile(model2, grid2))
    assert operator.smallest_singular_value() == pytest.approx(0.751399299886099, rel=1e-14)
    assert matrices == [97]
    assert applications == [1024]


def _per_solve(monkeypatch, record):
    """Records how many entries ``record`` gains during each ``solve`` call."""
    counts = []
    solve = LinearizedOperator.solve

    def counted(self, *args, **kwargs):
        before = len(record)
        solution = solve(self, *args, **kwargs)
        counts.append(len(record) - before)
        return solution

    monkeypatch.setattr(LinearizedOperator, "solve", counted)
    return counts


def test_cold_solve_application_count(model2, grid2, monkeypatch):
    """Counts the L_eps applications in cosine coordinates (``_apply_even``)
    of one cold solve on M2 at eps 0.1, N = 1024, per corrector solve: the first
    one also makes sigma_min's certificate application, and all are on the
    solve grid. Each corrector solve is one correction x = P g, whose residual,
    one application, is within the budget and certifies it."""
    applications = _count_calls(monkeypatch, "_apply_even")
    per_solve = _per_solve(monkeypatch, applications)
    linearized_operator.cache_clear()
    solution = cw.solve_wave(model2, grid2, cw.SolveConfig(epsilon=0.1))
    assert solution.diagnostics.iterations == 5
    assert per_solve == [2, 1, 1, 1, 1]
    assert applications == [1024] * 6


def test_cold_solve_transform_count(model2, grid2, transform_lengths):
    """Counts the real FFT rows of one cold solve on M2 at eps 0.1,
    N = 1024, all of length N. The rfft of w0 and its averages A_{m eps} w0
    (3 rows); R + S from one defect at the real spectrum of w0, 2M rows (4);
    sigma_min's 129-mode block, the rfft of the M coupling columns (2); 6
    applications of L_eps in coordinates, 2M rows each (24); 5 corrector
    steps, each the averages of v and the rfft of its M rows, 2M rows (20);
    one synthesis of v after the loop, and the final residual's 2 + 2M rows
    (7). Each step transforms nothing beyond its rows and its applications."""
    linearized_operator.cache_clear()
    lengths = transform_lengths()
    solution = cw.solve_wave(model2, grid2, cw.SolveConfig(epsilon=0.1))
    assert solution.diagnostics.iterations == 5
    assert lengths == [1024] * 60


@pytest.mark.parametrize("n", [1024, 16384])
@pytest.mark.parametrize("name", ["M1", "M2-cubic", "M3-toda"])
def test_chord_solves_certify_on_first_run(
    name, n, model1, model2_cubic, model3_toda, monkeypatch
):
    """Every corrector solve is one correction x = P g: its residual, the
    certificate, is already within the budget. That residual in cosine
    coordinates equals the residual of the synthesized solution on the grid.
    At N = 1024 the waves and iteration counts are those of the same
    iteration with each solve a dense ``np.linalg.solve`` of ``even_matrix``."""
    model = {"M1": model1, "M2-cubic": model2_cubic, "M3-toda": model3_toda}[name]
    grid = cw.make_grid(cw.default_half_length(model), n)
    configs = (
        cw.SolveConfig(epsilon=1.0),
        cw.SolveConfig(epsilon=0.4),
        cw.SolveConfig(epsilon=0.05),
    )
    corrections = []
    preconditioner = LinearizedOperator.__dict__["_preconditioner"]

    def counted_preconditioner(self):
        precondition = preconditioner.__get__(self, LinearizedOperator)

        def counted(r):
            corrections.append(r.size)
            return precondition(r)

        return counted

    monkeypatch.setattr(LinearizedOperator, "_preconditioner", property(counted_preconditioner))
    per_solve = _per_solve(monkeypatch, corrections)
    solves = []
    solve = LinearizedOperator.solve

    def recorded(self, g):
        x = solve(self, g)
        solves.append((self, g, x))
        return x

    monkeypatch.setattr(LinearizedOperator, "solve", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cw.CurvatureWarning)
        solutions = [cw.solve_wave(model, grid, config) for config in configs]
        assert per_solve == [1] * sum(s.diagnostics.iterations for s in solutions)
        # the certificate in coordinates is the plain grid residual, up to
        # the round-off of the synthesized solution, which B_eps amplifies:
        # eps_mach max(b) ||x|| reaches 1e-13 on M1 at N = 16384
        for operator, g, x in solves:
            coordinate = np.linalg.norm(operator._apply_even(x) - g)
            g_grid = even_synthesis(grid, g)
            residual = cw.l2_norm(operator.apply_l(even_synthesis(grid, x)) - g_grid)
            b = cw.b_diagonal(operator.model, grid, operator.eps)
            floor = 4 * np.finfo(float).eps * b.max() * np.linalg.norm(x)
            assert abs(coordinate - residual) <= 1e-14 * max(1.0, cw.l2_norm(g_grid)) + floor
        if n > 1024:
            return  # the dense matrix at N = 16384 would take 0.5 GB

        def dense(self, g):
            return np.linalg.solve(self.even_matrix(self.grid.num_points // 2 + 1), g)

        monkeypatch.setattr(LinearizedOperator, "solve", dense)
        for config, solution in zip(configs, solutions):
            reference = cw.solve_wave(model, grid, config)
            assert reference.diagnostics.iterations == solution.diagnostics.iterations
            assert cw.sup_norm(reference.w - solution.w) <= 1e-14


@pytest.mark.parametrize("name", ["M1", "M2", "M2-cubic"])
@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05])
def test_coarse_eigenbasis_morse_index_one(name, eps, model1, model2, model2_cubic):
    # the certified rung is the 97-mode block; at w0 the Jacobian has
    # exactly one negative eigenvalue (the M2-cubic case includes its psi''
    # term)
    model = {"M1": model1, "M2": model2, "M2-cubic": model2_cubic}[name]
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    operator = LinearizedOperator(model, grid, eps, cw.kdv_profile(model, grid))
    sigma, m = operator._coarse_eigenpairs
    assert sigma == operator.smallest_singular_value() > 0.5
    assert m == 97
    assert np.count_nonzero(np.linalg.eigvalsh(operator.even_matrix(m)) < 0) == 1


@pytest.mark.parametrize(
    "scale, n, expected, rungs",
    [
        # four times the default half length: the 97-, 129- and 257-mode
        # rungs fail the certificate and 513 passes, with one application each
        (4, 4096, 0.7513992998873238, [97, 129, 257, 513]),
        # N = 16384 on the default domain: the 97-mode vector is certified
        # and the value is the N = 1024 pin
        (1, 16384, 0.751399299886099, [97]),
    ],
    ids=["wide-domain", "large-grid"],
)
def test_sigma_min_ladder(model2, monkeypatch, scale, n, expected, rungs):
    # expected: the shift-invert Lanczos value on the same grid
    applications = _count_calls(monkeypatch, "_apply_even")
    matrices = _count_calls(monkeypatch, "even_matrix")
    grid = cw.make_grid(scale * cw.default_half_length(model2), n)
    operator = LinearizedOperator(model2, grid, 0.1, cw.kdv_profile(model2, grid))
    assert operator.smallest_singular_value() == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert matrices == rungs
    assert applications == [n] * len(rungs)


@pytest.mark.parametrize("name", ["M1", "M2", "M2-cubic", "M3-toda", "Toda"])
def test_coarse_route_matches_eigh(name, model1, model2, model2_cubic, model3_toda):
    """The eigenvalue-only ladder and the dense-inverse preconditioner
    against the full eigendecomposition by ``np.linalg.eigh`` of the same
    blocks: sigma_min is the eigenvalue nearest 0 of the certified block,
    which has exactly one negative eigenvalue, and the preconditioner's low
    block is V Lambda^{-1} V^T of its own block. The operators keep psi, so
    M2-cubic, M3-toda and Toda include their psi'' terms."""
    toda = cw.ChainModel((1.0,), (0.5,), cw.PsiFamily.toda_remainder((1.0,)))
    model = {"M1": model1, "M2": model2, "M2-cubic": model2_cubic, "M3-toda": model3_toda,
             "Toda": toda}[name]
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    n_modes = grid.num_points // 2 + 1
    schedule = (1.0, 0.4, 0.1, 1e-3) + ((0.0,) if model.psi.kind == "none" else ())
    for eps in schedule:
        operator = LinearizedOperator(model, grid, eps, cw.kdv_profile(model, grid))
        sigma, rung = operator._coarse_eigenpairs
        block = operator.even_matrix(rung)
        values = np.linalg.eigh(0.5 * (block + block.T))[0]
        assert sigma == pytest.approx(np.min(np.abs(values)), rel=1e-14, abs=0.0), eps
        assert np.count_nonzero(values < 0) == 1, eps
        m = min(max(129, rung), n_modes)
        block = operator.even_matrix(m)
        values, vectors = np.linalg.eigh(0.5 * (block + block.T))
        reference = (vectors / values) @ vectors.T
        low = np.column_stack([operator._preconditioner(e)[:m] for e in np.eye(n_modes)[:m]])
        assert np.linalg.norm(low - reference) <= 1e-12 * np.linalg.norm(reference), eps


def test_nearest_zero_eigenpair_at_an_exact_eigenvalue():
    # eigvalsh returns a diagonal block's entries exactly, so S - theta_b I
    # is singular and an unshifted solve raises; the helper's solve does not
    diagonal = np.array([3.0, -1.25, 0.75, 2.0, -4.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.diag(diagonal - 0.75), np.ones(5))
    theta, vector = _nearest_zero_eigenpair(np.diag(diagonal))
    assert theta == 0.75
    np.testing.assert_allclose(np.abs(vector), np.eye(5)[2], rtol=0.0, atol=1e-15)


def test_wrong_vector_moves_the_ladder_up(model2, grid2, monkeypatch):
    """A rung whose vector belongs to another eigenvalue, here the negative
    one, passes the residual test but its Rayleigh quotient disagrees with
    theta_b: the rung is refused and the next one certifies sigma_min."""
    helper = linearized._nearest_zero_eigenpair
    sizes = []

    def swapped(block):
        theta_b, vector = helper(block)
        sizes.append(len(block))
        return theta_b, np.linalg.eigh(block)[1][:, 0] if len(sizes) == 1 else vector

    monkeypatch.setattr(linearized, "_nearest_zero_eigenpair", swapped)
    operator = LinearizedOperator(model2, grid2, 0.1, cw.kdv_profile(model2, grid2))
    assert operator.smallest_singular_value() == pytest.approx(0.751399299886099, rel=1e-14)
    assert sizes == [97, 129]


def _refuse(*args, **kwargs):
    raise AssertionError("dense eigh or inverse called")


def test_verification_needs_no_eigenvectors_or_inverse(model2, grid2, monkeypatch):
    # verify only reads sigma_min: no eigenvector and no preconditioner
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    monkeypatch.setattr(np.linalg, "inv", _refuse)
    linearized_operator.cache_clear()
    results = cw.run_verification(model2, grid2)
    assert len(results) == 20 and all(result.passed for result in results)


def test_cold_solve_builds_one_dense_inverse(model2, grid2, monkeypatch):
    # the preconditioner's 129-mode block, on the first corrector solve
    inverses = []
    inverse = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(a.shape) or inverse(a))
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    linearized_operator.cache_clear()
    solution = cw.solve_wave(model2, grid2, cw.SolveConfig(epsilon=0.1))
    assert solution.diagnostics.iterations == 5
    assert inverses == [(129, 129)]


def column_assembly(operator):
    """L_eps in cosine coordinates, one ``_apply_even`` per basis vector: the
    assembly that ``even_matrix`` replaces, kept as its oracle."""
    identity = np.eye(operator.grid.num_points // 2 + 1)
    return np.column_stack([operator._apply_even(e) for e in identity])


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
def test_even_matrix_matches_column_assembly(n, eps, model1, model2, model2_cubic, model3_toda):
    models = (model1, model2, cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 1 / 3)), model2_cubic)
    for model in models:
        grid = cw.make_grid(cw.default_half_length(model), n)
        operator = linearized_operator(model, grid, eps)
        oracle = column_assembly(operator)
        gap = np.max(np.abs(operator.even_matrix(n // 2 + 1) - oracle))
        assert gap <= 1e-14 * np.max(np.abs(oracle)), model
    # the psi'' term of the Jacobian enters through the columns c_m alike
    grid = cw.make_grid(cw.default_half_length(model3_toda), n)
    operator = LinearizedOperator(model3_toda, grid, eps, cw.kdv_profile(model3_toda, grid))
    oracle = column_assembly(operator)
    assert np.max(np.abs(operator.even_matrix(n // 2 + 1) - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("eps", [0.0, 0.2])
def test_sigma_min_rungs_are_leading_blocks(eps, model1, model2_cubic, model3_toda, monkeypatch):
    """sigma_min's coarse space is the span of the first cosine modes of the
    solve grid: a cold sigma_min builds no grid, grid function or operator
    of its own, and each rung ``even_matrix(m)`` is the leading m x m block
    of the full matrix, bit for bit."""
    built = []
    for cls in (cw.SpectralGrid, cw.GridFunction, LinearizedOperator):

        def recorded(self, init=cls.__post_init__):
            built.append(type(self).__name__)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", recorded)
    for model in (model1, model2_cubic, model3_toda):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        operator = LinearizedOperator(model, grid, eps, cw.kdv_profile(model, grid))
        del built[:]
        assert operator.smallest_singular_value() > 0.5
        assert built == [], model
        full = operator.even_matrix(grid.num_points // 2 + 1)
        for m in (129, 257, 513):
            assert np.array_equal(operator.even_matrix(m), full[:m, :m]), (model, m)


@pytest.mark.parametrize("name", ["M1", "M2"])
def test_sigma_min_gap_grows_as_eps_squared(name, model1, grid1, model2, grid2):
    # sigma_min(eps) = 3/4 + c eps^2 + O(eps^4), so halving eps divides the
    # gap to the Poeschl-Teller value 3/4 by about 4
    model, grid = {"M1": (model1, grid1), "M2": (model2, grid2)}[name]
    gap = {
        eps: linearized_operator(model, grid, eps).smallest_singular_value() - 0.75
        for eps in (0.1, 0.05)
    }
    assert 3.8 <= gap[0.1] / gap[0.05] <= 4.1


def test_solve_zero_and_manufactured(op1_limit, grid1, rng):
    zero = np.zeros(grid1.num_points // 2 + 1)
    assert np.max(np.abs(op1_limit.solve(zero))) == 0.0
    target = random_band_limited(grid1, 20.0, rng, parity="even", decay=0.5)
    rhs = op1_limit.apply_l(target)
    recovered = solve_on_grid(op1_limit, rhs)
    assert cw.l2_norm(recovered - target) <= 1e-8 * cw.l2_norm(target)


def test_solve_contract_residual(op1, grid1, rng):
    g = random_band_limited(grid1, 30.0, rng, parity="even", decay=0.5)
    v = solve_on_grid(op1, g)
    assert cw.l2_norm(op1.apply_l(v) - g) <= linearized.TOL * max(1.0, cw.l2_norm(g)) + 1e-13
    assert evenness_defect(v) <= 1e-13 * max(1.0, cw.sup_norm(v))


def test_solve_unreachable_tolerance_raises(op1, grid1, rng, monkeypatch):
    g = random_band_limited(grid1, 30.0, rng, parity="even", decay=0.5)
    monkeypatch.setattr(linearized, "TOL", 1e-20)
    with pytest.raises(cw.NoConvergenceError):
        op1.solve(even_coefficients(g))


@pytest.mark.parametrize("low_block", ["none", "absolute"])
def test_solve_without_signed_inverse_raises(low_block, model1, grid1, rng):
    """With B_eps^{-1} alone, or with the SPD |Lambda|^{-1} in place of the
    signed Lambda^{-1} on the coarse eigenbasis, a correction does not halve
    the residual: the solve raises instead of looping."""
    operator = LinearizedOperator(model1, grid1, 0.2, cw.kdv_profile(model1, grid1))
    values, vectors = np.linalg.eigh(operator.even_matrix(129))
    inverse_b = 1.0 / cw.b_diagonal(model1, grid1, 0.2)

    def precondition(r):
        y = inverse_b * r
        if low_block == "absolute":
            y[: values.size] = vectors @ ((r[: values.size] @ vectors) / np.abs(values))
        return y

    operator.__dict__["_preconditioner"] = precondition
    g = random_band_limited(grid1, 30.0, rng, parity="even", decay=0.5)
    with pytest.raises(cw.NoConvergenceError):
        operator.solve(even_coefficients(g))


def test_solve_near_singular_guard(op1, grid1, monkeypatch, rng):
    monkeypatch.setattr(LinearizedOperator, "smallest_singular_value", lambda self: 1e-9)
    g = random_band_limited(grid1, 20.0, rng, parity="even")
    with pytest.raises(cw.NearSingularError):
        op1.solve(even_coefficients(g))


def test_unconverged_sigma_min_is_near_singular(model1, rng):
    """On 16 times the default half length the mode of M1 is too narrow for
    every leading block up to 1025 modes, so no rung is certified: sigma_min
    reports 0, which the solve gate turns into NearSingularError. The
    shift-invert Lanczos solved this case; no default or workload uses a
    domain this wide."""
    grid = cw.make_grid(16 * cw.default_half_length(model1), 4096)
    operator = LinearizedOperator(model1, grid, 0.2, cw.kdv_profile(model1, grid))
    assert operator.smallest_singular_value() == 0.0
    with pytest.raises(cw.NearSingularError):
        operator.solve(even_coefficients(random_band_limited(grid, 20.0, rng, parity="even")))


def test_grid_mismatch_rejected(op1):
    other = cw.make_grid(op1.grid.half_length, op1.grid.num_points * 2)
    f = cw.GridFunction(other, np.zeros(other.num_points))
    with pytest.raises(cw.GridMismatchError):
        op1.apply_l(f)
    with pytest.raises(cw.GridMismatchError):
        op1.solve(even_coefficients(f))
