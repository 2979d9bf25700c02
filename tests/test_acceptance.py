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
from chainwaves.grid import evenness_defect
from chainwaves.verify import CHECKS, unimodality_defect

EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)

MODELS = {
    "M1": cw.ChainModel((1.0,), (1.0,)),
    "M2": cw.ChainModel((1.0, 1.0), (1.0, 1.0)),
    "M2-cubic": cw.ChainModel((1.0, 1.0), (1.0, 1.0), cw.PsiFamily.cubic((0.1, 0.1))),
}


def report(criterion: str, ok: bool, detail: str) -> None:
    # the leading newline starts the line after pytest's progress dot (-q -s)
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def report_per_model(criterion: str, check: str, grids) -> None:
    """One criterion from the verify check ``check`` on every model."""
    results = {name: CHECKS[check](model, grids[name]) for name, model in MODELS.items()}
    detail = "; ".join(f"{name}: {result.detail}" for name, result in results.items())
    report(criterion, all(result.passed for result in results.values()), detail)


@pytest.fixture(scope="module")
def grids():
    return {
        name: cw.make_grid(cw.default_half_length(model), 4096)
        for name, model in MODELS.items()
    }


@pytest.fixture(scope="module")
def bundle(grids):
    """Solutions for every (model, epsilon) used below, by model name and epsilon."""
    return {
        name: {
            eps: cw.solve_wave(model, grids[name], cw.SolveConfig(epsilon=eps))
            for eps in EPS_SWEEP
        }
        for name, model in MODELS.items()
    }


def test_c01_closed_form_leading_order(grids):
    # w0'' = d1 w0 - d2 w0^2 on each model
    report_per_model("C1 closed-form leading order", "profile_ode_residual", grids)


def test_c02_operator_oracle_equivalence(grids):
    result = CHECKS["averaging_symbol_vs_quadrature"](MODELS["M2"], grids["M2"])
    report("C2 operator oracle equivalence", result.passed, result.detail)


def test_c03_averaging_orders(grids):
    result = CHECKS["averaging_asymptotic_orders"](MODELS["M1"], grids["M1"])
    report("C3 averaging asymptotic orders", result.passed, result.detail)


def test_c04_inverse_stability(grids):
    result = CHECKS["cutoff_inverse_stability"](MODELS["M1"], grids["M1"])
    report("C4 split-inverse stability", result.passed, result.detail)


def test_c05_von_neumann_ratio(grids):
    result = CHECKS["von_neumann_geometric"](MODELS["M1"], grids["M1"])
    report("C5 geometric series ratio", result.passed, result.detail)


def test_c06_sigma_min_uniformity(grids):
    report_per_model("C6 uniform invertibility surrogate", "sigma_min_uniformity", grids)


def test_c07_fixed_point_convergence_orders(bundle):
    ok = True
    details = []
    for name in MODELS:
        solutions = bundle[name]
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
        for eps, solution in bundle[name].items():
            worst_min = min(worst_min, float(np.min(solution.w.values)))
            worst_even = max(worst_even, evenness_defect(solution.w))
            worst_bump = max(worst_bump, unimodality_defect(solution.w.values))
    ok &= worst_min >= -1e-10 and worst_even <= 1e-10
    ok &= worst_bump <= 1e-10  # reported regression: unimodal on defaults
    report(
        "C8 qualitative wave properties",
        ok,
        f"min {worst_min:.1e}, evenness {worst_even:.1e}, unimodality {worst_bump:.1e}",
    )


def test_c09_eigenvalue_identity(bundle):
    value = cw.eigen_identity_check(bundle["M1"][0.1])
    report("C9 linearized eigenvalue identity", value <= 1e-6, f"relative residual {value:.2e}")


def test_c10_lattice_transport(bundle):
    solution = bundle["M1"][0.2]
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
    report_per_model("C11 residual boundedness", "residual_boundedness", grids)


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
