"""Multiplier symbols: averaging, the b symbol B_eps, cutoff, and the von Neumann series."""

import ast
import hashlib
import importlib
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import chainwaves as cw
from chainwaves import operators
from chainwaves.grid import evenness_defect
from chainwaves.model import apply_Q0, tw_defect_spectrum
from chainwaves.operators import (
    _legendre_rule,
    _quadrature_window,
    _window_rule,
    cutoff_symbol,
    von_neumann_partial_sums,
)
from chainwaves.verify import (
    CHECKS,
    _band_draws,
    _split_inverse_constants,
    _Uniforms,
    random_band_limited_rows,
    unimodality_defect,
)
from conftest import random_band_limited


def _apply(symbol, f):
    """The multiplier ``symbol`` applied to the grid function f."""
    return cw.GridFunction(f.grid, cw.apply_symbol(f.values, symbol))


def _samples(grid, spectrum):
    """The grid function whose rfft half spectrum is ``spectrum``."""
    return cw.GridFunction(grid, np.fft.irfft(spectrum, n=grid.num_points))


def _pairing(f, g):
    """The discrete L2 pairing h sum_i f_i g_i."""
    return f.grid.spacing * np.sum(f.values * g.values)


def _b_closed_form(model, eps, k):
    """1 + sum_m alpha_m m^2 (1 - sinc^2(m k eps / 2)) / eps^2 at k > 0,
    term by term: its 1 - sinc^2 cancels to eps_mach near k = 0."""
    ranges = np.arange(1, model.neighbor_range + 1)
    z = 0.5 * eps * np.outer(ranges, k)
    return 1.0 + np.array(model.alpha) * ranges**2 @ (1.0 - (np.sin(z) / z) ** 2) / eps**2


def _sobolev22_norm(f):
    """Norm with spectral weight 1 + k^2 + k^4, scaled so that weight 1 gives
    ``l2_norm``: h^2/(2L) = h/N converts |rfft|^2 sums to that scale."""
    power = np.abs(np.fft.rfft(f.values)) ** 2
    return math.sqrt(np.sum(f.grid.sobolev22_weights * power) * f.grid.spacing / f.grid.num_points)


def test_sinc_values():
    assert cw.sinc(0.0) == 1.0
    assert cw.sinc(math.pi) == pytest.approx(0.0, abs=1e-16)
    assert cw.sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-15)
    # series branch continuous across its switch point
    assert cw.sinc(1.000001e-4) == pytest.approx(cw.sinc(0.999999e-4), rel=1e-12)
    z = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(cw.sinc(z)[z != 0], np.sin(z[z != 0]) / z[z != 0], rtol=1e-15)


def test_averaging_constant(grid1):
    ones = cw.GridFunction(grid1, np.ones(grid1.num_points))
    averaged = _apply(cw.averaging_symbol(grid1, 0.7), ones)
    np.testing.assert_allclose(averaged.values, 1.0, atol=1e-13)


def test_averaging_single_mode_exact(grid1):
    eta = 0.45
    k = grid1.half_wavenumbers[9]
    f = cw.GridFunction(grid1, np.cos(k * grid1.nodes))
    averaged = _apply(cw.averaging_symbol(grid1, eta), f)
    np.testing.assert_allclose(averaged.values, cw.sinc(eta * k / 2) * f.values, atol=1e-13)


def test_averaging_rejects_bad_eta(grid1):
    # the symbol at eta = 0 is the identity, the one the eps = 0 stack uses;
    # the quadrature route needs a window
    assert np.array_equal(cw.averaging_symbol(grid1, 0.0), np.ones(grid1.num_points // 2 + 1))
    for eta in (0.0, -1.0):
        with pytest.raises(ValueError):
            cw.averaging_direct(grid1, eta, np.ones(grid1.num_points))


def test_window_quadrature_of_parabola():
    # mean of x^2 over [-1/2, 1/2] is 1/12
    offsets, weights = _window_rule(1.0, 20)
    assert weights @ offsets**2 == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_window_rule_scales_one_cached_rule():
    # two widths with one node count read the same Legendre rule
    narrow, wide = _window_rule(0.4, 25), _window_rule(0.8, 25)
    np.testing.assert_allclose(wide[0] / 0.8, narrow[0] / 0.4, rtol=1e-15)
    assert np.shares_memory(wide[1], narrow[1])
    assert not _legendre_rule(25).flags.writeable


def test_legendre_rule_matches_leggauss():
    # numpy's rule is the reference. Its end weights stray from the rule
    # computed to 50 digits by up to 1.003e-14 (count 293), so the half
    # weights are held to 1.1e-14
    for count in range(20, 321):
        rule = _legendre_rule(count)
        reference = np.stack(np.polynomial.legendre.leggauss(count)) * [[1.0], [0.5]]
        assert np.max(np.abs(rule[0] - reference[0])) <= 2e-16
        assert np.max(np.abs(rule[1] - reference[1])) <= 1.1e-14
        assert np.array_equal(rule, rule[:, ::-1] * [[-1.0], [1.0]])
        assert count % 2 == 0 or rule[0, count // 2] == 0.0
        assert abs(np.sum(rule[1]) - 1.0) <= 1e-15


@pytest.mark.parametrize(
    ("count", "digest", "end"),
    [
        (20, "059a15622999d39f", ("0x1.fc7b5a0c71ce0p-1", "0x1.209680274e6f6p-7")),
        (57, "24b7618004d50f34", ("0x1.ff8d62d9ea7fcp-1", "0x1.2617e300d0587p-10")),
        (165, "49da9d301d7b8a49", ("0x1.fff229b9f9896p-1", "0x1.1c13a9ac7ebd9p-13")),
    ],
    ids=["20", "57", "165"],
)
def test_legendre_rule_is_pinned(count, digest, end):
    # the rule bitwise: the largest node and its half weight in hex, and a
    # digest of every node and weight
    rule = _legendre_rule(count)
    assert (rule[0, -1].hex(), rule[1, -1].hex()) == end
    assert hashlib.sha256(rule.tobytes()).hexdigest()[:16] == digest


def test_verification_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is the package's own; numpy < 2 imports
    # numpy.polynomial with numpy, so only the modules the run adds count
    source = str(Path(cw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import chainwaves as cw\n"
        "from chainwaves.verify import run_verification\n"
        "model = cw.ChainModel((1.0,), (1.0,))\n"
        "run_verification(model, cw.make_grid(cw.default_half_length(model), 1024))\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.polynomial')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("eta", [0.1, 0.2, 0.8])
def test_quadrature_window_folds_the_symmetric_rule(model2, eta):
    # 25, 30 and 57 nodes: each +-o pair summed once, and an odd rule's
    # middle node, against the full cos table of every node
    _check_window_against_full_table(model2, 2048, eta, 1e-15)


@pytest.mark.parametrize("eta", [0.1, 0.8])
def test_quadrature_window_holds_at_large_n(model2, eta):
    # 57 and 309 nodes at N 16384, where the giant-step table has the most rows
    _check_window_against_full_table(model2, 16384, eta, 1e-14)


def _check_window_against_full_table(model2, n, eta, bound):
    grid = cw.make_grid(cw.default_half_length(model2), n)
    k = grid.half_wavenumbers
    offsets, weights = _window_rule(eta, math.ceil(0.5 * eta * k[-1]) + 20)
    full_table = np.cos(np.outer(k, offsets)) @ weights
    assert np.max(np.abs(_quadrature_window(grid, eta) - full_table)) <= bound


def test_averaging_direct_memory_is_flat_in_n(model2):
    # the window is one product of nodes x sqrt(N) tables; its full cos table
    # at N = 16384 and eta 0.8 would take about 40 MB
    grid = cw.make_grid(cw.default_half_length(model2), 16384)
    values = cw.kdv_profile(model2, grid).values
    tracemalloc.start()
    try:
        cw.averaging_direct(grid, 0.8, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_apply_identity_zero_and_composition(grid1, rng):
    f = random_band_limited(grid1, 30.0, rng)
    half = grid1.num_points // 2 + 1
    assert cw.l2_norm(_apply(np.ones(half), f) - f) < 1e-14
    assert cw.sup_norm(_apply(np.zeros(half), f)) == 0.0
    averaging = cw.averaging_symbol(grid1, 0.6)
    twice = _apply(averaging, _apply(averaging, f))
    assert cw.l2_norm(twice - _apply(averaging**2, f)) < 1e-12
    with pytest.raises(cw.GridMismatchError, match="entries"):
        cw.apply_symbol(f.values, np.ones(grid1.num_points))


def test_apply_grid_mismatch(grid1):
    other = cw.make_grid(grid1.half_length, grid1.num_points * 2)
    symbol = cw.averaging_symbol(grid1, 0.5)
    # samples from another grid, one profile or a batch of columns
    for shape in ((other.num_points,), (other.num_points, 3)):
        with pytest.raises(cw.GridMismatchError):
            cw.apply_symbol(np.zeros(shape), symbol)


def test_averaging_direct_constant_and_mode(grid1):
    ones = np.ones(grid1.num_points)
    np.testing.assert_allclose(cw.averaging_direct(grid1, 0.5, ones), 1.0, atol=1e-12)
    eta = 0.8
    k = grid1.half_wavenumbers[7]
    mode = np.cos(k * grid1.nodes)
    direct = cw.averaging_direct(grid1, eta, mode)
    np.testing.assert_allclose(direct, cw.sinc(eta * k / 2) * mode, atol=1e-12)
    with pytest.raises(cw.GridMismatchError):
        cw.averaging_direct(grid1, eta, np.ones(2 * grid1.num_points))


def test_averaging_direct_matches_symbol_on_profile(model1, grid1):
    # a block of rows averaged with one window, each row as if alone
    w0 = cw.kdv_profile(model1, grid1).values
    block = np.array([w0, w0 * w0])
    for eta in (0.4, 0.1):
        direct = cw.averaging_direct(grid1, eta, block)
        assert np.max(np.abs(direct[1] - cw.averaging_direct(grid1, eta, block[1]))) < 1e-15
        symbol_route = cw.apply_symbol(block, cw.averaging_symbol(grid1, eta))
        assert np.max(np.abs(symbol_route - direct)) < 1e-12


def test_gradient_of_primitive_is_shifted_average(model1, grid1):
    # difference quotients of the position profile recover the averaged
    # velocity profile at half-shifted arguments
    w0 = cw.kdv_profile(model1, grid1)
    shift = 2 * 0.17
    averaged = _apply(cw.averaging_symbol(grid1, shift), w0)
    # x -> f(x + s) is the phase exp(i k s); off the grid the Nyquist mode
    # has no symmetric real representation, so it is zeroed
    half_shift, full_shift = (np.exp(1j * grid1.half_wavenumbers * s) for s in (shift / 2, shift))
    half_shift[-1] = full_shift[-1] = 0.0
    target = _apply(half_shift, averaged)
    # build the primitive as ramp + periodic part so translations are legal
    mean = float(np.mean(w0.values))
    periodic = cw.GridFunction(grid1, w0.values - mean)
    primitive_periodic = _spectral_antiderivative(periodic)
    grad = (_apply(full_shift, primitive_periodic).values - primitive_periodic.values) / shift
    total = cw.GridFunction(grid1, grad + mean)  # ramp contributes its slope
    assert cw.l2_norm(total - target) < 1e-8


def _spectral_antiderivative(f):
    k = f.grid.half_wavenumbers
    symbol = np.zeros(len(k), dtype=complex)
    symbol[1:-1] = 1.0 / (1j * k[1:-1])
    return _apply(symbol, f)


def test_b_symbol_floor_and_value(model1):
    # on L = 20 pi the half lattice is k_n = n/20, from 0 to 51.2 in steps of 0.05
    values = cw.b_diagonal(model1, cw.make_grid(20.0 * math.pi, 2048), 0.3)
    assert values[0] == 1.0
    assert np.min(values) >= 1.0 - 1e-14
    # direct evaluation of the closed form at eps=1, k=8: mode 8 on L = pi
    expected = 1.0 + (1.0 - (math.sin(4.0) / 4.0) ** 2)
    assert cw.b_diagonal(model1, cw.make_grid(math.pi, 16), 1.0)[8] == pytest.approx(expected, rel=1e-14)


def test_b0_symbol_instance(model1):
    # B_0 is b_diagonal at eps = 0; on L = pi the half lattice is k_n = n
    grid = cw.make_grid(math.pi, 16)
    assert cw.b_diagonal(model1, grid, 0.0)[2] == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_b_symbol_converges_to_limit(model2):
    # on L = 2 pi the half lattice is k_n = n/2: k = 0.5, 2 and 7 at n = 1, 4, 14
    grid = cw.make_grid(2.0 * math.pi, 32)
    limit = cw.b_diagonal(model2, grid, 0.0)
    for n in (1, 4, 14):
        gaps = [abs(cw.b_diagonal(model2, grid, eps)[n] - limit[n]) for eps in (0.2, 0.1, 0.05)]
        assert gaps[0] > gaps[1] > gaps[2]
        ratio = gaps[1] / gaps[2]
        assert ratio == pytest.approx(4.0, rel=0.2)  # quadratic in eps


def test_b_operator_limit_on_profile(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    limit = _apply(cw.b_diagonal(model1, grid1, 0.0), w0)
    gaps = [
        cw.l2_norm(_apply(cw.b_diagonal(model1, grid1, eps), w0) - limit)
        for eps in (0.4, 0.2, 0.1)
    ]
    slopes = [math.log(gaps[i] / gaps[i + 1]) / math.log(2.0) for i in range(2)]
    for slope in slopes:
        assert slope == pytest.approx(2.0, abs=0.3)
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(_apply(cw.b_diagonal(model1, grid1, 0.2), zero)) == 0.0


def test_b0_applied_to_profile_is_quadratic_limit(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    lhs = _apply(cw.b_diagonal(model1, grid1, 0.0), w0)
    rhs = apply_Q0(model1, w0)
    assert cw.l2_norm(lhs - rhs) < 1e-8


def test_invert_b_roundtrip_and_mode(model1, grid1, rng):
    b, b0 = cw.b_diagonal(model1, grid1, 0.2), cw.b_diagonal(model1, grid1, 0.0)
    zero = cw.GridFunction(grid1, np.zeros(grid1.num_points))
    assert cw.sup_norm(_apply(1.0 / b, zero)) == 0.0
    k = grid1.half_wavenumbers[11]
    f = cw.GridFunction(grid1, np.cos(k * grid1.nodes))
    inverted = _apply(1.0 / b, f)
    np.testing.assert_allclose(
        inverted.values, f.values / _b_closed_form(model1, 0.2, [k]), atol=1e-13
    )
    g = random_band_limited(grid1, 40.0, rng, parity="even")
    back = _apply(b, _apply(1.0 / b, g))
    assert cw.l2_norm(back - g) <= 1e-12 * cw.l2_norm(g)
    back0 = _apply(b0, _apply(1.0 / b0, g))
    assert cw.l2_norm(back0 - g) <= 1e-12 * cw.l2_norm(g)


def test_cutoff_band_edges(grid1, rng):
    f = random_band_limited(grid1, 3.5, rng)
    passed = _apply(cutoff_symbol(grid1, 1.0), f)  # band edge 4 > 3.5
    assert cw.l2_norm(passed - f) < 1e-13
    k_high = grid1.half_wavenumbers[250]
    assert abs(k_high) > 4.0 / 0.05
    mode = cw.GridFunction(grid1, np.cos(k_high * grid1.nodes))
    assert cw.sup_norm(_apply(cutoff_symbol(grid1, 0.05), mode)) < 1e-12
    # closed boundary: a mode exactly at |k| = 4/eps survives
    k_edge = grid1.half_wavenumbers[10]
    eps_edge = 4.0 / k_edge
    edge_mode = cw.GridFunction(grid1, np.cos(k_edge * grid1.nodes))
    kept = _apply(cutoff_symbol(grid1, eps_edge), edge_mode)
    assert cw.l2_norm(kept - edge_mode) < 1e-12
    # idempotent and nonexpansive
    once = _apply(cutoff_symbol(grid1, 0.1), f)
    twice = _apply(cutoff_symbol(grid1, 0.1), once)
    assert cw.l2_norm(twice - once) < 1e-14
    assert cw.l2_norm(once) <= cw.l2_norm(f) * (1 + 1e-14)


def test_sharp_inverse_constant_stable(model1, grid1):
    # per-mode version of the split estimate; its sharp constant saturates
    constants = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        k = grid1.half_wavenumbers
        symbol = cw.b_diagonal(model1, grid1, eps)
        inside = np.abs(k) <= 4.0 / eps
        r_in = np.sqrt(1 + k[inside] ** 2 + k[inside] ** 4) / symbol[inside]
        r_out = (1.0 / eps**2) / symbol[~inside]
        constants.append(max(r_in.max(), r_out.max() if len(r_out) else 0.0))
    assert max(constants) / min(constants) < 2.0


def test_von_neumann_first_term(model1, grid1):
    eps = 0.3
    f = cw.GridFunction(grid1, np.ones(grid1.num_points))
    partials = von_neumann_partial_sums(model1, grid1, eps, f)
    first, second = next(partials), next(partials)
    expected = eps**2 / (eps**2 + model1.sound_speed_sq)
    # items are rfft half spectra, each a new read-only array
    assert first.shape == (grid1.num_points // 2 + 1,)
    assert first is not second and not first.flags.writeable
    np.testing.assert_allclose(_samples(grid1, first).values, expected, atol=1e-14)


def test_von_neumann_preserves_shape(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    partials = list(islice(von_neumann_partial_sums(model1, grid1, 0.2, w0), 20))
    for terms in (1, 2, 5, 20):
        partial = _samples(grid1, partials[terms - 1])
        scale = cw.sup_norm(partial)
        assert float(np.min(partial.values)) >= -1e-12 * scale
        assert evenness_defect(partial) <= 1e-12 * scale
        assert unimodality_defect(partial.values) <= 1e-10 * scale
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError):
            next(von_neumann_partial_sums(model1, grid1, eps, w0))


def test_unimodality_defect_values():
    # the largest rise after the peak or drop before it, and +0.0, never
    # -0.0, when there is none, so that verify's reports print 0.0e+00
    assert unimodality_defect([0.0, 1.0, 3.0, 2.0, 2.5, 0.0]) == 0.5
    assert unimodality_defect([1.0, 0.5, 3.0, 0.0]) == 0.5
    for shaped in ([5.0], [1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 0.0], [0.0, 2.0, 2.0, 1.0]):
        assert math.copysign(1.0, unimodality_defect(shaped)) == 1.0
        assert unimodality_defect(shaped) == 0.0


def test_von_neumann_partial_sums_match_term_by_term(model1, model2):
    # the spectra carried from item to item against applying T to a grid
    # function once per term, each application an rfft/irfft pair
    for model in (model1, model2):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        w0 = cw.kdv_profile(model, grid)
        for eps in (0.4, 0.1):
            t_symbol = sum(
                alpha * m**2 * cw.averaging_symbol(grid, m * eps) ** 2
                for m, alpha in enumerate(model.alpha, start=1)
            )
            denominator = eps**2 + model.sound_speed_sq
            power, total = w0, (eps**2 / denominator) * w0
            partials = von_neumann_partial_sums(model, grid, eps, w0)
            for i, partial in enumerate(islice(partials, 40), start=1):
                gap = cw.l2_norm(_samples(grid, partial) - total)
                assert gap <= 1e-13 * cw.l2_norm(total), (model.alpha, eps, i)
                power = _apply(t_symbol, power)
                total = total + (eps**2 / denominator ** (i + 1)) * power


def test_von_neumann_check_makes_one_pass(model1, grid1, transform_lengths):
    # the geometric check on M1, N = 1024: one rfft of w0 for B_eps^{-1} w0 at
    # both eps (0.4 and 0.1), and per eps the series' one rfft of w0, its 40
    # error norms read from the spectra by Parseval: 1 + 2 x 1 transforms; an
    # irfft per partial sum took 86, and applying T to a grid function per
    # term 160
    lengths = transform_lengths()
    result = CHECKS["von_neumann_geometric"](model1, grid1)
    assert result.passed, result.detail
    assert lengths == [1024] * 3


def _recorded_transforms(monkeypatch) -> list:
    """Start recording (name, input shape) of every rfft/irfft call."""
    calls = []
    for name in ("rfft", "irfft"):

        def call(a, *args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, call)
    return calls


def test_verify_transform_budget(model2, grid2, monkeypatch):
    # every rfft/irfft call of the twenty checks on M2, N = 1024, whatever
    # its batch: the probe blocks, the series' spectra, the Parseval
    # readings of the cutoff and oracle checks and the round trip's stacked
    # 1/b and b keep it at 149, where per-probe transforms and an irfft per
    # partial sum made 338
    calls = _recorded_transforms(monkeypatch)
    results = cw.run_verification(model2, grid2)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert len(calls) <= 149


def test_cutoff_check_draws_its_ensemble_once(model1, grid1, monkeypatch):
    # one 20-profile ensemble shared by the four eps, read from its drawn
    # coefficients by Parseval: one draw of 20 even profiles' real parts and
    # no transform, where drawing rows and transforming them back made 4
    # irfft and 4 rfft calls
    draws = []

    def counted(grid, band, rng, count, parity):
        draws.append((count, parity))
        return _band_draws(grid, band, rng, count, parity)

    monkeypatch.setattr("chainwaves.verify._band_draws", counted)
    calls = _recorded_transforms(monkeypatch)
    result = CHECKS["cutoff_inverse_stability"](model1, grid1)
    assert result.passed, result.detail
    assert draws == [(20, "even")]
    assert calls == []


@pytest.mark.parametrize(
    ("name", "draws"),
    [
        ("averaging_self_adjoint", [6, 6]),
        ("averaging_norm_bounds", [6]),
        ("b_inverse_roundtrip", [2]),
        ("b_inverse_self_adjoint", [6]),
        ("linearized_symmetry", [6]),
    ],
)
def test_probe_checks_draw_one_block(name, draws, model2, grid2, monkeypatch):
    # each check's probes, in the order the per-probe route drew them, come
    # from one block per operator: three pairs per adjoint test, three
    # probes per window of the norm bounds, one probe per eps of the round trip
    counts = []

    def counted(grid, band, rng, count, *args, **kwargs):
        counts.append(count)
        return random_band_limited_rows(grid, band, rng, count, *args, **kwargs)

    monkeypatch.setattr("chainwaves.verify.random_band_limited_rows", counted)
    result = CHECKS[name](model2, grid2)
    assert result.passed, result.detail
    assert counts == draws


def test_oracle_check_probes_every_window_of_the_model(model2, grid2, monkeypatch):
    # a symbol off by 1e-9 at eta = 0.8 alone, the m = 2 window of M2 at eps
    # 0.4: w0 probed at eta 0.4 and 0.1 only would pass it
    def skewed(grid, eta):
        return cw.averaging_symbol(grid, eta) * (1.0 + 1e-9 if eta == 0.8 else 1.0)

    check = CHECKS["averaging_symbol_vs_quadrature"]
    assert check(model2, grid2).passed
    monkeypatch.setattr("chainwaves.verify.averaging_symbol", skewed)
    result = check(model2, grid2)
    assert not result.passed, result.detail


@pytest.mark.parametrize(
    "name", ["averaging_self_adjoint", "b_inverse_self_adjoint", "linearized_symmetry"]
)
def test_adjoint_checks_catch_a_relative_skew_of_1e9(name, model2, grid2, monkeypatch):
    # the operator A the check probes becomes (1 + 1e-9 H) A, with H the
    # skew-adjoint quarter turn of every mode below Nyquist (|H| = 1); the
    # check passes on A and fails on the skewed one
    turn = np.where(grid2.half_wavenumbers > 0, 1j, 0.0)
    turn[-1] = 0.0

    def skewed(values):
        return values + 1e-9 * cw.apply_symbol(values, turn)

    check = CHECKS[name]
    assert check(model2, grid2).passed
    if name == "linearized_symmetry":
        operator = cw.linearized_operator(model2, grid2, 0.2)

        def apply_l(f):
            return cw.GridFunction(f.grid, skewed(operator.apply_l(f).values))

        monkeypatch.setattr(
            "chainwaves.verify.linearized_operator", lambda *args: SimpleNamespace(apply_l=apply_l)
        )
    else:
        monkeypatch.setattr(
            "chainwaves.verify.apply_symbol", lambda values, s: skewed(cw.apply_symbol(values, s))
        )
    result = check(model2, grid2)
    assert not result.passed, result.detail


@pytest.mark.parametrize(
    ("name", "etas", "details"),
    [
        (
            "averaging_shape_preservation",
            (0.3, 0.8),
            {
                "M1": "eta=0.3: even 2.2e-16, neg 0.0e+00, bump 0.0e+00; "
                "eta=0.8: even 2.2e-16, neg 0.0e+00, bump 0.0e+00",
                "M2": "eta=0.3: even 1.4e-17, neg 0.0e+00, bump 0.0e+00; "
                "eta=0.8: even 2.1e-17, neg 0.0e+00, bump 0.0e+00",
            },
        ),
        (
            "averaging_asymptotic_orders",
            (0.4, 0.2, 0.1, 0.05),
            {"M1": "slopes 1.985 (want 2), 3.983 (want 4)", "M2": "slopes 1.999 (want 2), 3.999 (want 4)"},
        ),
    ],
)
def test_averaging_checks_transform_w0_once(name, etas, details, model1, model2, monkeypatch):
    # one apply_symbol call on the stacked symbols, one rfft of w0 and one
    # irfft of its averages, is bitwise one call per eta, so the readings are
    # those of the per-eta route, pinned here at N = 1024
    for key, model in (("M1", model1), ("M2", model2)):
        grid = cw.make_grid(cw.default_half_length(model), 1024)
        w0 = cw.kdv_profile(model, grid).values
        symbols = [cw.averaging_symbol(grid, eta) for eta in etas]
        per_eta = np.array([cw.apply_symbol(w0, symbol) for symbol in symbols])
        assert cw.apply_symbol(w0, np.stack(symbols)).tobytes() == per_eta.tobytes()
        with monkeypatch.context() as patch:
            calls = _recorded_transforms(patch)
            result = CHECKS[name](model, grid)
        assert result.passed and result.detail == details[key], result.detail
        assert calls == [("rfft", (1024,)), ("irfft", (len(etas), 513))]


def test_oracle_check_transforms_its_probes_once(model2, grid2, monkeypatch):
    # the two random probes are drawn as rows (one irfft), and the (3, N)
    # block with w0 is transformed once for all four windows of M2; the
    # symbol and quadrature routes made two transforms per window each
    calls = _recorded_transforms(monkeypatch)
    result = CHECKS["averaging_symbol_vs_quadrature"](model2, grid2)
    assert result.passed, result.detail
    assert calls == [("irfft", (2, 513)), ("rfft", (3, 1024))]


def test_oracle_check_passes_at_n_16384(model2):
    grid = cw.make_grid(cw.default_half_length(model2), 16384)
    result = CHECKS["averaging_symbol_vs_quadrature"](model2, grid)
    assert result.passed, result.detail


def _splitmix64(seed, i):
    """Output i of SplitMix64 seeded with ``seed``, in Python ints."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def test_normal_stream_is_pinned():
    # the Python-int SplitMix64 gives the reference outputs for seed 1234567
    assert [_splitmix64(1234567, i) for i in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423
    ]
    # the checks' stream for seed 7, bitwise: uint64 hashing that drifted to
    # another dtype under a numpy's promotion rules would move these
    draws = _Uniforms(7).random(64)
    assert [x.hex() for x in draws[:4].tolist()] == [
        "0x1.8f2f879164c82p-2", "0x1.130f35fd0f180p-6",
        "0x1.cd30810175625p-1", "0x1.2a75d6e0ce7c5p-1",
    ]
    # draw i is the top 53 bits of output i, exactly
    assert draws.tolist() == [(_splitmix64(7, i) >> 11) * 2.0**-53 for i in range(64)]
    # a block of draws is that many single draws
    stream = _Uniforms(7)
    split = [stream.random(3), stream.random((2, 5)), stream.random(1)]
    assert np.array_equal(np.concatenate([block.ravel() for block in split]), draws[:14])


@pytest.mark.parametrize("parity", ["none", "even", "odd"])
def test_random_profiles_draw_in_band_modes_only(grid1, parity):
    # a profile takes the modes k <= band below Nyquist, 83 at band 30 on
    # N = 1024, and draws only the parts its parity keeps: the real parts
    # (even), the imaginary parts past mode 0 (odd), or both, the real first
    # (none); a block of rows is that many single profiles
    k = grid1.half_wavenumbers
    modes = int(np.count_nonzero(k <= 30.0))
    assert modes == 83
    width = {"none": 2 * modes - 1, "even": modes, "odd": modes - 1}[parity]
    rng = _Uniforms(7)
    rows = random_band_limited_rows(grid1, 30.0, rng, 3, parity)
    reference = _Uniforms(7)
    reference.random(3 * width)
    assert np.array_equal(rng.random(4), reference.random(4))
    # bitwise the rows that sqrt(3) (2u - 1) of one (3, width) draw gives
    draws = _Uniforms(7).random((3, width)) * (2.0 * math.sqrt(3.0)) - math.sqrt(3.0)
    coeff = np.zeros((3, len(k)), dtype=complex)
    if parity != "odd":
        coeff.real[:, :modes] = draws[:, :modes]
    if parity != "even":
        coeff.imag[:, 1:modes] = draws[:, width - (modes - 1) :]
    expected = np.fft.irfft(coeff, n=grid1.num_points)
    expected *= (1.0 / np.sqrt(grid1.spacing * np.sum(expected**2, axis=1)))[:, None]
    assert np.array_equal(rows, expected)
    single = _Uniforms(7)
    singles = [random_band_limited(grid1, 30.0, single, parity).values for _ in range(3)]
    assert np.array_equal(rows, singles)
    spectra = np.fft.rfft(rows)
    scale = np.max(np.abs(spectra))
    assert np.max(np.abs(spectra[:, k > 30.0])) <= 1e-13 * scale
    if parity == "even":
        assert np.max(np.abs(spectra.imag)) <= 1e-13 * scale
    if parity == "odd":
        assert np.max(np.abs(spectra.real)) <= 1e-13 * scale
    if parity == "none":
        assert np.min(np.max(np.abs(spectra.imag[:, 1:modes]), axis=1)) >= 1e-3 * scale


@pytest.mark.parametrize("parity", ["none", "even", "odd"])
def test_random_profiles_on_an_empty_band_draw_nothing(grid1, parity):
    # no mode lies at k <= -1: the rows are zero, the stream does not move,
    # and a numpy Generator is asked for an empty block, not a negative one
    stream = _Uniforms(7)
    rows = random_band_limited_rows(grid1, -1.0, stream, 2, parity)
    assert rows.shape == (2, grid1.num_points) and not np.any(rows)
    assert np.array_equal(stream.random(3), _Uniforms(7).random(3))
    assert not np.any(random_band_limited_rows(grid1, -1.0, np.random.default_rng(7), 2, parity))


@pytest.mark.parametrize("name", ["M1", "M2", "M2-cubic"])
def test_split_inverse_constants_match_per_profile_route(name, model1, model2, model2_cubic):
    # the check's block route against random_band_limited -> B_eps^{-1} ->
    # cutoff -> W^{2,2} norm / l2_norm, one profile at a time
    model = {"M1": model1, "M2": model2, "M2-cubic": model2_cubic}[name]
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    band = min(120.0, 0.8 * float(grid.half_wavenumbers[-1]))
    rng = _Uniforms(109)
    ensemble = [random_band_limited(grid, band, rng, parity="even", decay=1.0) for _ in range(20)]
    rows = random_band_limited_rows(grid, band, _Uniforms(109), 20, "even", 1.0)
    assert np.max(np.abs(rows - np.array([g.values for g in ensemble]))) <= 1e-15
    expected = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        worst = 0.0
        for g in ensemble:
            inverted = _apply(1.0 / cw.b_diagonal(model, grid, eps), g)
            smooth = _apply(cutoff_symbol(grid, eps), inverted)
            rough = inverted - smooth
            value = (_sobolev22_norm(smooth) + cw.l2_norm(rough) / eps**2) / cw.l2_norm(g)
            worst = max(worst, value)
        expected.append(worst)
    # where the band lies inside |k| <= 4/eps the rough part is 0, and the
    # per-profile route's inverted - smooth is its round-off, about eps_mach
    # |inverted| <= eps_mach |g|, amplified by 1/eps^2: 8.4e-14 relative on M2
    # at eps 0.05, against <= 1.0e-15 where the rough part is not 0
    constants = _split_inverse_constants(model, grid)
    for eps, got, want in zip((0.4, 0.2, 0.1, 0.05), constants, expected):
        assert abs(got - want) <= 1e-13 * want + np.finfo(float).eps / eps**2, (eps, got, want)


def test_averaging_self_adjoint_and_bounds(grid1, rng):
    symbol = cw.averaging_symbol(grid1, 0.55)
    for _ in range(3):
        f = random_band_limited(grid1, 25.0, rng)
        g = random_band_limited(grid1, 25.0, rng)
        lhs = _pairing(_apply(symbol, f), g)
        rhs = _pairing(f, _apply(symbol, g))
        assert abs(lhs - rhs) <= 1e-12
        averaged = _apply(symbol, f)
        assert cw.l2_norm(averaged) <= cw.l2_norm(f) * (1 + 1e-12)
        assert cw.sup_norm(averaged) <= 0.55**-0.5 * cw.l2_norm(f) * (1 + 1e-12)


def test_averaging_asymptotic_orders(model1, grid1):
    w0 = cw.kdv_profile(model1, grid1)
    w2 = cw.derivative(w0, 2)
    etas = (0.4, 0.2, 0.1, 0.05)
    plain, corrected = [], []
    for eta in etas:
        averaged = _apply(cw.averaging_symbol(grid1, eta), w0)
        plain.append(cw.l2_norm(averaged - w0))
        corrected.append(cw.l2_norm(averaged - w0 - (eta**2 / 24.0) * w2))
    slope1 = np.polyfit(np.log(etas), np.log(plain), 1)[0]
    slope2 = np.polyfit(np.log(etas), np.log(corrected), 1)[0]
    assert abs(slope1 - 2.0) <= 0.2
    assert abs(slope2 - 4.0) <= 0.2


def test_b_symbol_banded_lower_bound(model1, grid1):
    # piecewise bound: quadratic growth inside the cutoff band, 1/eps^2 outside
    eps = 0.1
    k = grid1.half_wavenumbers
    symbol = cw.b_diagonal(model1, grid1, eps)
    inside = np.abs(k) <= 4.0 / eps
    c_inside = np.min(symbol[inside] / (1.0 + k[inside] ** 2))
    c_outside = np.min(symbol[~inside]) * eps**2
    assert c_inside > 0.01
    assert c_outside > 0.1


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.4])
def test_b_diagonal_is_the_b_symbol_cached_read_only(model2, grid2, eps):
    symbol = cw.b_diagonal(model2, grid2, eps)
    k = grid2.half_wavenumbers
    if eps:  # the closed form, up to its cancellation eps_mach c0^2/eps^2
        assert symbol.dtype == np.float64 and symbol[0] == 1.0
        floor = 4 * np.finfo(float).eps * model2.sound_speed_sq / eps**2
        np.testing.assert_allclose(symbol[1:], _b_closed_form(model2, eps, k[1:]), rtol=0.0, atol=floor)
    else:  # B_0 = 1 + k^2 / d1, the curvature of the KdV limit
        assert symbol.dtype == np.float64
        np.testing.assert_allclose(symbol, 1.0 + k**2 / model2.d1, rtol=1e-15, atol=0.0)
    assert cw.b_diagonal(model2, grid2, eps) is symbol
    assert not symbol.flags.writeable
    with pytest.raises(ValueError):
        symbol[0] = 2.0


@pytest.mark.parametrize("eps", [-0.1, math.nan])
def test_b_diagonal_rejects_negative_and_nan_eps(model2, grid2, eps):
    # no B_|eps| and no NaN symbol: eps must be >= 0
    with pytest.raises(ValueError, match="eps must be non-negative"):
        cw.b_diagonal(model2, grid2, eps)


def test_b_diagonal_is_cached_per_alpha(model2_cubic):
    # B_eps reads only alpha: a solve with psi not none keeps one array,
    # shared by the defect of the model and its psi-free L_eps
    grid = cw.make_grid(cw.default_half_length(model2_cubic), 1024)
    operators._b_diagonal.cache_clear()
    cw.solve_wave(model2_cubic, grid, cw.SolveConfig(epsilon=0.1))
    assert operators._b_diagonal.cache_info().currsize == 1


def test_defect_and_linearized_operator_read_one_b_symbol(model2, grid2, monkeypatch):
    # B_eps of the psi-free model is built once: the defect and L_eps read the
    # same array object
    seen = []

    def recorded(*args):
        seen.append(operators.b_diagonal(*args))
        return seen[-1]

    monkeypatch.setattr("chainwaves.model.b_diagonal", recorded)
    monkeypatch.setattr("chainwaves.linearized.b_diagonal", recorded)
    w0 = cw.kdv_profile(model2, grid2)
    tw_defect_spectrum(model2, 0.2, grid2, np.fft.rfft(w0.values))
    cw.linearized_operator(model2, grid2, 0.2).apply_l(w0)
    assert len(seen) == 2
    assert seen[0] is seen[1] is cw.b_diagonal(model2, grid2, 0.2)


def test_package_imports_match_submodule_exports():
    # every name the package imports from a submodule is in that submodule's
    # __all__ (its public names where it has none), and every __all__ entry
    # resolves
    tree = ast.parse(inspect.getsource(cw))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"chainwaves.{node.module}")
            public = [name for name in vars(module) if not name.startswith("_")]
            exported = getattr(module, "__all__", public)
            for alias in node.names:
                assert alias.name in exported, (node.module, alias.name)
    for path in Path(cw.__file__).parent.glob("[!_]*.py"):
        module = importlib.import_module(f"chainwaves.{path.stem}")
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (path.stem, name)
