"""Acceptance gate: each numbered criterion at its stated tolerance.

Runs at the desk-scale default (N = 4096, half length 30/sqrt(d1)) on the
three default models. Each test prints one pass/fail line; run with

    pytest -s tests/test_acceptance.py
"""

import json
import math

import numpy as np
import pytest

import chainwaves as cw
from chainwaves import cli
from chainwaves.linearized import linearized_operator
from chainwaves.operators import cutoff_symbol
from chainwaves.verify import CHECKS, random_band_limited, unimodality_defect

EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)

MODELS = {
    "M1": cw.ChainModel((1.0,), (1.0,)),
    "M2": cw.ChainModel((1.0, 1.0), (1.0, 1.0)),
    "M2-cubic": cw.ChainModel((1.0, 1.0), (1.0, 1.0), cw.PsiFamily.cubic((0.1, 0.1))),
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grids():
    return {
        name: cw.make_grid(cw.default_half_length(model), 4096)
        for name, model in MODELS.items()
    }


@pytest.fixture(scope="module")
def bundle(grids):
    """Solutions and spectral gaps for every (model, epsilon) used below."""
    out = {}
    for name, model in MODELS.items():
        grid = grids[name]
        solutions = {
            eps: cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps))
            for eps in EPS_SWEEP
        }
        sigma0 = linearized_operator(model, grid, 0.0).smallest_singular_value()
        out[name] = {"grid": grid, "solutions": solutions, "sigma0": sigma0}
    return out


def test_c01_closed_form_leading_order(grids):
    # the verify check of w0'' = d1 w0 - d2 w0^2 on each model
    results = [CHECKS["profile_ode_residual"](model, grids[name]) for name, model in MODELS.items()]
    detail = ", ".join(f"{name} {r.detail}" for name, r in zip(MODELS, results))
    report("C1 closed-form leading order", all(r.passed for r in results), detail)


def test_c02_operator_oracle_equivalence(grids):
    model = MODELS["M2"]
    grid = grids["M2"]
    rng = np.random.default_rng(202)
    probes = [cw.kdv_profile(model, grid)] + [
        random_band_limited(grid, 8.0, rng, decay=1.0) for _ in range(2)
    ]
    worst = 0.0
    for eps in (0.4, 0.1):
        for m in range(1, model.neighbor_range + 1):
            eta = m * eps
            symbol = cw.averaging_symbol(grid, eta)
            for probe in probes:
                symbol_route = cw.GridFunction(grid, cw.apply_symbol(probe.values, symbol))
                gap = cw.l2_norm(symbol_route - cw.averaging_direct(eta, probe))
                worst = max(worst, gap)
    report("C2 operator oracle equivalence", worst <= 1e-12, f"max l2 gap {worst:.2e}")


def test_c03_averaging_orders(grids):
    result = CHECKS["averaging_asymptotic_orders"](MODELS["M1"], grids["M1"])
    report("C3 averaging asymptotic orders", result.passed, result.detail)


def test_c04_inverse_stability(grids):
    model = MODELS["M1"]
    grid = grids["M1"]
    band = 120.0
    constants = []
    for eps in EPS_SWEEP:
        inverse, cutoff = 1.0 / cw.b_diagonal(model, grid, eps), cutoff_symbol(grid, eps)
        rng = np.random.default_rng(204)  # identical ensemble per eps
        worst = 0.0
        for _ in range(20):
            g = random_band_limited(grid, band, rng, parity="even", decay=1.0)
            inverted = cw.GridFunction(grid, cw.apply_symbol(g.values, inverse))
            smooth = cw.GridFunction(grid, cw.apply_symbol(inverted.values, cutoff))
            rough = inverted - smooth
            value = (
                cw.sobolev22_norm(smooth) + cw.l2_norm(rough) / eps**2
            ) / cw.l2_norm(g)
            worst = max(worst, value)
        constants.append(worst)
    spread = max(constants) / min(constants)
    report(
        "C4 split-inverse stability",
        spread < 2.0,
        f"constants {['%.3f' % c for c in constants]}, spread {spread:.3f}",
    )


def test_c05_von_neumann_ratio(grids):
    result = CHECKS["von_neumann_geometric"](MODELS["M1"], grids["M1"])
    report("C5 geometric series ratio", result.passed, result.detail)


def test_c06_sigma_min_uniformity(bundle):
    ok = True
    details = []
    for name, model in MODELS.items():
        sigma0 = bundle[name]["sigma0"]
        sigmas = [
            bundle[name]["solutions"][eps].diagnostics.sigma_min
            for eps in (0.2, 0.1, 0.05)
        ]
        ok &= all(s >= 0.5 * sigma0 for s in sigmas)
        details.append(f"{name}: sigma0={sigma0:.3f}, min(eps)={min(sigmas):.3f}")
    report("C6 uniform invertibility surrogate", ok, "; ".join(details))


def test_c07_fixed_point_convergence_orders(bundle):
    ok = True
    details = []
    for name in MODELS:
        solutions = bundle[name]["solutions"]
        for eps in (0.2, 0.1, 0.05):
            ok &= solutions[eps].diagnostics.iterations <= 50
        ok &= all(s.diagnostics.tw_residual <= 1e-9 for s in solutions.values())
        l2_err = [cw.l2_norm(solutions[e].w - solutions[e].w0) for e in EPS_SWEEP]
        sup_err = [cw.sup_norm(solutions[e].w - solutions[e].w0) for e in EPS_SWEEP]
        orders = []
        for errs in (l2_err, sup_err):
            for a, b in zip(errs, errs[1:]):
                order = math.log(a / b) / math.log(2.0)
                orders.append(order)
                ok &= abs(order - 2.0) <= 0.3
        v_norms = [solutions[e].diagnostics.corrector_norm for e in EPS_SWEEP]
        ok &= max(v_norms) / min(v_norms) < 2.0
        details.append(f"{name}: orders {min(orders):.2f}..{max(orders):.2f}")
    report("C7 corrector convergence and orders", ok, "; ".join(details))


def test_c08_qualitative_wave_properties(bundle):
    ok = True
    worst_min, worst_even, worst_bump = 0.0, 0.0, 0.0
    for name in MODELS:
        for eps, solution in bundle[name]["solutions"].items():
            worst_min = min(worst_min, float(np.min(solution.w.values)))
            worst_even = max(worst_even, cw.evenness_defect(solution.w))
            worst_bump = max(worst_bump, unimodality_defect(solution.w.values))
    ok &= worst_min >= -1e-10 and worst_even <= 1e-10
    ok &= worst_bump <= 1e-10  # reported regression: unimodal on defaults
    report(
        "C8 qualitative wave properties",
        ok,
        f"min {worst_min:.1e}, evenness {worst_even:.1e}, unimodality {worst_bump:.1e}",
    )


def test_c09_eigenvalue_identity(bundle):
    value = cw.eigen_identity_check(bundle["M1"]["solutions"][0.1])
    report("C9 linearized eigenvalue identity", value <= 1e-6, f"relative residual {value:.2e}")


def test_c10_lattice_transport(bundle):
    solution = bundle["M1"]["solutions"][0.2]
    c0 = math.sqrt(MODELS["M1"].sound_speed_sq)
    horizon = 5.0 / solution.wave_speed  # five sites of travel
    transport = cw.run_transport(solution, 80, horizon, 0.02 / c0)
    ok = (
        transport.transport_error <= 0.02
        and transport.energy_drift <= 1e-6
        and transport.momentum_drift_per_step <= 1e-12
    )
    report(
        "C10 lattice transport",
        ok,
        f"velocity error {transport.transport_error:.2e}, energy drift "
        f"{transport.energy_drift:.2e}, momentum/step {transport.momentum_drift_per_step:.2e}",
    )


def test_c11_residual_boundedness(grids):
    check = CHECKS["residual_boundedness"]
    results = {name: check(model, grids[name]) for name, model in MODELS.items()}
    ok = all(result.passed for result in results.values())
    detail = "; ".join(f"{name}: {result.detail}" for name, result in results.items())
    report("C11 residual boundedness", ok, detail)


def test_c12_sweep_determinism(tmp_path):
    config = {
        "model": {"alpha": [1.0], "beta": [1.0], "psi": {"family": "none"}},
        "grid": {"num_points": 1024},
        "solver": {"epsilon_list": [0.2, 0.1]},
        "output": {"path": str(tmp_path / "a.csv"), "format": "csv"},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1 = cli.main(["sweep", "--config", str(config_path), "--quiet"])
    code2 = cli.main(
        ["sweep", "--config", str(config_path), "--output", str(second), "--quiet"]
    )
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    report("C12 sweep determinism", ok, f"{len(first.read_bytes())} identical bytes")
