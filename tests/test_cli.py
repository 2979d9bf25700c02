"""Command line interface: config validation, reports, exit codes."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from chainwaves import cli
from chainwaves.cli import parse_config
from chainwaves.lattice import TransportReport
from chainwaves.linearized import LinearizedOperator
from chainwaves.solver import SweepRow


def base_config(tmp_path, **overrides):
    data = {
        "model": {"alpha": [1.0], "beta": [1.0], "psi": {"family": "none"}},
        "grid": {"num_points": 512},
        "solver": {"epsilon": 0.2},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path, data


def test_solve_minimal_config(tmp_path):
    path, data = base_config(tmp_path, solver={"epsilon": 0.1})
    assert cli.main(["solve", "--config", str(path), "--quiet"]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_at] == "x,W0,W_eps,V_eps"
    assert len(lines) - header_at - 1 == 512  # one row per node
    for line in lines[header_at + 1 :]:
        cells = [float(cell) for cell in line.split(",")]
        assert len(cells) == 4 and all(math.isfinite(c) for c in cells)
    assert any("tw_residual" in line for line in lines[:header_at])
    # byte-stable across repeated runs
    first = (tmp_path / "out.csv").read_bytes()
    assert cli.main(["solve", "--config", str(path), "--quiet"]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


TODA = {"alpha": [1.0], "beta": [0.5], "psi": {"family": "toda-remainder", "params": [1.0]}}


def test_solver_failure_exits_3(tmp_path, capsys):
    # the Toda chain has no solve at eps 1.0
    path, _ = base_config(tmp_path, model=TODA, solver={"epsilon": 1.0})
    assert cli.main(["solve", "--config", str(path)]) == 3
    assert "NoConvergence" in capsys.readouterr().err


def test_warnings_print_as_one_line(tmp_path, capsys):
    # a warning reaches stderr as one "warning: <message>" line, with no
    # source path or source line: here the one curvature warning of the
    # failed Toda solve, then its error line
    path, _ = base_config(tmp_path, model=TODA, solver={"epsilon": 1.0}, grid={"num_points": 1024})
    assert cli.main(["solve", "--config", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2, lines
    assert lines[0].startswith("warning: higher-order force argument reaches |r| = "), lines
    assert lines[1].startswith("solver error: NoConvergenceError: "), lines
    assert ".py" not in "".join(lines)


def test_solve_json_format(tmp_path):
    path, _ = base_config(tmp_path)
    out = tmp_path / "out.json"
    code = cli.main(
        ["solve", "--config", str(path), "--output", str(out), "--format", "json", "--quiet"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"diagnostics", "profile"}
    assert len(payload["profile"]["W_eps"]) == 512


def test_negative_alpha_exits_2(tmp_path, capsys):
    path, _ = base_config(tmp_path, model={"alpha": [-1.0], "beta": [1.0]})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "positive" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path):
    path, data = base_config(tmp_path)
    data["extra"] = 1
    path.write_text(json.dumps(data))
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_unwritable_output_exits_4(tmp_path):
    path, _ = base_config(tmp_path, output={"path": str(tmp_path / "no" / "dir" / "x.csv")})
    assert cli.main(["solve", "--config", str(path)]) == 4


def test_missing_output_exits_2(tmp_path):
    path, data = base_config(tmp_path)
    del data["output"]
    path.write_text(json.dumps(data))
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_sweep_orders_and_determinism(tmp_path):
    path, _ = base_config(tmp_path, solver={"epsilon_list": [0.4, 0.2, 0.1]})
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(path), "--output", str(out1), "--quiet"]) == 0
    assert cli.main(["sweep", "--config", str(path), "--output", str(out2), "--quiet"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == (
        "epsilon,l2_error,sup_error,order_l2,order_sup,iterations,"
        "tw_residual,sigma_min,residual_norm_RS,tail_rate"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[3] == "" and first[4] == ""  # no orders on the first row
    for line in lines[2:]:
        cells = line.split(",")
        assert 1.7 <= float(cells[3]) <= 2.3
        assert 1.7 <= float(cells[4]) <= 2.3


# each report column and the result field it holds
SWEEP_FIELDS = {
    "epsilon": "epsilon",
    "l2_error": "l2_error",
    "sup_error": "sup_error",
    "order_l2": "order_l2",
    "order_sup": "order_sup",
    "iterations": "iterations",
    "tw_residual": "tw_residual",
    "sigma_min": "sigma_min",
    "residual_norm_RS": "residual_norm_rs",
    "tail_rate": "tail_rate",
}
SIMULATE_FIELDS = {
    "J": "num_particles",
    "dt": "dt",
    "T": "horizon",
    "steps": "steps",
    "transport_error": "transport_error",
    "energy_drift": "energy_drift",
    "peak_energy_deviation": "peak_energy_deviation",
    "momentum_drift": "momentum_drift_per_step",
}


def test_report_columns_sit_where_their_fields_do():
    # the sweep and simulate reports pair astuple(row) with their columns by
    # position; a SweepRow's last field, error, marks a failed row instead
    sweep = [field.name for field in fields(SweepRow)]
    assert sweep[-1] == "error"
    assert [SWEEP_FIELDS[column] for column in cli.SWEEP_COLUMNS] == sweep[:-1]
    simulate = [field.name for field in fields(TransportReport)]
    assert [SIMULATE_FIELDS[column] for column in cli.SIMULATE_COLUMNS] == simulate


def test_sweep_single_entry_exits_2(tmp_path):
    path, _ = base_config(tmp_path, solver={"epsilon_list": [0.2]})
    assert cli.main(["sweep", "--config", str(path)]) == 2


def test_sweep_increasing_exits_2(tmp_path):
    path, _ = base_config(tmp_path, solver={"epsilon_list": [0.1, 0.2]})
    assert cli.main(["sweep", "--config", str(path)]) == 2


def test_epsilon_above_one_exits_2(tmp_path, capsys):
    path, _ = base_config(tmp_path, solver={"epsilon": 1.5})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "solver.epsilon" in capsys.readouterr().err
    path, _ = base_config(tmp_path, solver={"epsilon_list": [1.5, 0.2]})
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "solver.epsilon_list" in capsys.readouterr().err


def test_tiny_epsilon_exits_2(tmp_path, capsys):
    # eps**4 below the smallest normal float is one config error, from
    # solver.epsilon, an epsilon_list entry and --epsilon alike
    path, _ = base_config(tmp_path, solver={"epsilon": 1e-170})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "config error: solver.epsilon" in capsys.readouterr().err
    path, _ = base_config(tmp_path, solver={"epsilon_list": [0.2, 1e-170]})
    assert cli.main(["sweep", "--config", str(path)]) == 2
    assert "config error: solver.epsilon_list" in capsys.readouterr().err
    path, _ = base_config(tmp_path, solver={"epsilon": 0.2})
    assert cli.main(["solve", "--config", str(path), "--epsilon", "1e-170"]) == 2
    assert "config error: --epsilon" in capsys.readouterr().err


def test_wide_domain_solve_is_typed(tmp_path, capsys):
    # M1 on 24 times its default half length: the profile no longer
    # overflows, and no sigma_min rung up to 1025 modes is certified
    path, _ = base_config(tmp_path, grid={"num_points": 4096, "half_length": 210.0})
    assert cli.main(["solve", "--config", str(path)]) == 3
    assert "NearSingularError" in capsys.readouterr().err


def test_infinite_number_exits_2(tmp_path, capsys):
    # json reads the literal Infinity; it is no admissible length or epsilon
    path, _ = base_config(tmp_path, grid={"num_points": 512, "half_length": math.inf})
    assert "Infinity" in path.read_text()
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "grid.half_length" in capsys.readouterr().err
    path, _ = base_config(tmp_path, solver={"epsilon": math.inf})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "solver.epsilon must be a finite number" in capsys.readouterr().err
    path, _ = base_config(tmp_path, grid={"num_points": 512, "half_length": 10**400})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "grid.half_length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "alpha, beta", [([1e308, 1e308], [1.0, 1.0]), ([1e300], [1e-300])], ids=["d1-zero", "d2-zero"]
)
def test_model_without_kdv_limit_exits_2(tmp_path, capsys, alpha, beta):
    # the derived constants c0^2, d1 and d2 are checked with the coefficients
    path, _ = base_config(tmp_path, model={"alpha": alpha, "beta": beta})
    assert cli.main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid model: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "section, value, where",
    [
        ("model", 3, "model"),
        ("model", {"alpha": [1.0], "beta": [1.0], "psi": "cubic"}, "model.psi"),
        ("model", {"alpha": [1.0], "beta": [1.0], "psi": ["cubic"]}, "model.psi"),
        ("grid", [512], "grid"),
        ("solver", 0.2, "solver"),
        ("sim", 5, "sim"),
        ("output", "out.csv", "output"),
    ],
)
def test_non_object_section_exits_2(tmp_path, capsys, section, value, where):
    path, _ = base_config(tmp_path, **{section: value})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert f"{where} must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "param", ["nan", "0.1", True, None, [0.1], math.nan, math.inf, -math.inf, 10**400]
)
def test_psi_param_must_be_finite_number_exits_2(tmp_path, capsys, param):
    model = {"alpha": [1.0], "beta": [1.0], "psi": {"family": "cubic", "params": [param]}}
    path, _ = base_config(tmp_path, model=model)
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "model.psi.params entry must be a finite number" in capsys.readouterr().err


def test_psi_param_sign_left_to_family(tmp_path, capsys):
    # any finite number parses; the family rejects a negative one
    model = {"alpha": [1.0], "beta": [1.0], "psi": {"family": "cubic", "params": [-0.1]}}
    path, _ = base_config(tmp_path, model=model)
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "nonnegative" in capsys.readouterr().err
    model["psi"]["params"] = [1]
    assert parse_config(base_config(tmp_path, model=model)[1]).model.psi.params == (1.0,)


def test_small_beta_default_grid_solves(tmp_path):
    # peak 1.5 d1/d2 = 3 needs more than 30/sqrt(d1) for a 1e-12 boundary value
    path, _ = base_config(tmp_path, model={"alpha": [1.0], "beta": [0.5]})
    assert cli.main(["solve", "--config", str(path), "--quiet"]) == 0


SIM = {"particles": 80, "dt": 0.02, "horizon": 1.0}


@pytest.mark.parametrize(
    "command, overrides, where",
    [
        # the relaxation, the tolerance and the budget are solver constants,
        # no config keys
        ("solve", {"solver": {"epsilon": 0.2, "damping": 0.7}}, "unknown keys ['damping'] in solver"),
        ("solve", {"solver": {"epsilon": 0.2, "max_iter": 200}}, "unknown keys ['max_iter']"),
        ("solve", {"solver": {"epsilon": 0.2, "tol": 1e-12}}, "unknown keys ['tol']"),
        ("sweep", {"solver": {"epsilon_list": []}}, "epsilon_list"),
        ("sweep", {"solver": {"epsilon_list": [0.2]}}, "epsilon_list"),
        ("sweep", {"solver": {"epsilon_list": [0.1, 0.2]}}, "epsilon_list"),
        ("solve", {"grid": {"num_points": 15}}, "num_points"),
        ("solve", {"grid": {"num_points": 512.0}}, "grid.num_points must be an integer"),
        (
            "solve",
            {"model": {"alpha": [1.0], "beta": [1.0], "psi": {"family": "none", "params": [0.3]}}},
            "'none' needs 0 parameters",
        ),
        ("solve", {"output": {"path": "out.xml", "format": "xml"}}, "format"),
        ("simulate", {"sim": {**SIM, "dt": 0.5}}, "sim.dt"),
        ("simulate", {"sim": {**SIM, "particles": 8}}, "sim.particles"),
    ],
    ids=[
        "damping", "max_iter", "tol", "empty-list", "one-entry", "increasing",
        "num_points", "num_points-float", "none-with-params", "format", "dt-guard", "J-8M",
    ],
)
def test_config_error_table(tmp_path, capsys, command, overrides, where):
    # each rule, whichever type keeps it, ends as one config error line
    path, _ = base_config(tmp_path, **overrides)
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err, err
    assert "Traceback" not in err


def test_sweep_domain_too_small_exits_3(tmp_path, capsys):
    # the sweep's limiting profile fails as a solver error, as in solve
    path, _ = base_config(
        tmp_path, grid={"num_points": 512, "half_length": 2}, solver={"epsilon_list": [0.2, 0.1]}
    )
    assert cli.main(["sweep", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("solver error: DomainTooSmallError: ")


def test_sweep_partial_failure_marks_row(tmp_path, monkeypatch, capsys):
    # a near-singular linearization marks its row but the sweep continues
    monkeypatch.setattr(
        LinearizedOperator, "smallest_singular_value", lambda self: 1e-9
    )
    path, _ = base_config(tmp_path, solver={"epsilon_list": [0.2, 0.1]})
    assert cli.main(["sweep", "--config", str(path)]) == 0
    err = capsys.readouterr().err
    assert "NearSingular" in err
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "error:NearSingular"


def test_simulate_defaults(tmp_path):
    path, _ = base_config(
        tmp_path,
        grid={"num_points": 1024},
        sim={"particles": 80, "dt": 0.02, "horizon": 4.9},
        output={"path": str(tmp_path / "sim.json"), "format": "json"},
    )
    assert cli.main(["simulate", "--config", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["transport_error"] <= 0.02
    assert payload["energy_drift"] <= 1e-6
    assert payload["momentum_drift"] <= 1e-12


def test_simulate_window_overflow_exits_5(tmp_path):
    path, _ = base_config(
        tmp_path,
        grid={"num_points": 1024},
        sim={"particles": 80, "dt": 0.02, "horizon": 500.0},
    )
    assert cli.main(["simulate", "--config", str(path)]) == 5


@pytest.mark.parametrize(
    "code, command, overrides, report, first_line",
    [
        (1, "simulate", {"sim": {**SIM, "max_transport_error": 1e-9}}, "r.csv", ""),
        (2, "simulate", {}, "r.csv", "config error: simulate needs a sim section"),
        (3, "solve", {"grid": {"num_points": 1024, "half_length": 2.0}}, "r.csv",
         "solver error: DomainTooSmallError: "),
        (4, "solve", {}, "no/dir/r.csv", "cannot write {report}: "),
        (5, "simulate", {"sim": {**SIM, "horizon": 500.0}}, "r.csv", "window error: "),
    ],
    ids=["property", "config", "solver", "io", "window"],
)
def test_exit_code_table(tmp_path, capsys, code, command, overrides, report, first_line):
    # each exit code with the first line it puts on stderr; exit 1 prints
    # none, and its summary says the transport error is ABOVE the threshold
    report = tmp_path / report
    path, _ = base_config(tmp_path, **{"grid": {"num_points": 1024}, **overrides})
    assert cli.main([command, "--config", str(path), "--output", str(report)]) == code
    captured = capsys.readouterr()
    assert captured.err.partition("\n")[0].startswith(first_line.format(report=report)), captured
    assert ("ABOVE" in captured.out) == (captured.err == "") == (code == 1), captured
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("alpha", [[1.0], [1.0, 1.0]], ids=["M1", "M2"])
def test_simulate_chain_without_interior_exits_2(tmp_path, capsys, alpha):
    # the transport window starts 4M sites in from each end: J = 8M has no
    # interior and is a config error; J = 8M + 1 passes the config check and
    # its one-site window cannot hold the eps 0.2 wave
    model = {"alpha": alpha, "beta": alpha}
    for particles, code in ((8 * len(alpha), 2), (8 * len(alpha) + 1, 5)):
        path, _ = base_config(
            tmp_path, model=model, sim={"particles": particles, "dt": 0.02, "horizon": 1.0}
        )
        assert cli.main(["simulate", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("config error: sim.particles") == (code == 2), err


def test_simulate_dt_guard_exits_2(tmp_path):
    path, _ = base_config(
        tmp_path, sim={"particles": 80, "dt": 0.5, "horizon": 1.0}
    )
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_simulate_dt_at_guard_exits_0(tmp_path):
    # horizon/dt = 10.4: ten steps would each take dt = 0.104, above the
    # guard 0.1 that the config check admitted dt at
    path, _ = base_config(
        tmp_path,
        grid={"num_points": 1024},
        solver={"epsilon": 0.1},
        sim={"particles": 170, "dt": 0.1, "horizon": 1.04},
        output={"path": str(tmp_path / "sim.json"), "format": "json"},
    )
    assert cli.main(["simulate", "--config", str(path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["steps"] == 11 and payload["dt"] <= 0.1
    assert payload["transport_error"] <= 0.02
    assert payload["energy_drift"] <= 1e-6
    assert payload["momentum_drift"] <= 1e-12


def test_simulate_requires_sim_block(tmp_path):
    path, _ = base_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 2


def test_epsilon_override(tmp_path):
    path, _ = base_config(tmp_path, solver={"epsilon": 0.2})
    out = tmp_path / "o.json"
    code = cli.main(
        [
            "solve",
            "--config",
            str(path),
            "--epsilon",
            "0.1",
            "--output",
            str(out),
            "--format",
            "json",
            "--quiet",
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["diagnostics"]["epsilon"] == 0.1


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path)]) == 2


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--config", "cfg.json"],
        ["verify"],
        ["--config", "cfg.json"],
        ["verify", "--config"],
        ["verify", "--config", "--quiet"],
        ["verify", "--config", "cfg.json", "--bogus"],
        ["verify", "--config", "cfg.json", "--format", "xml"],
        ["verify", "--config", "cfg.json", "--epsilon", "abc"],
        ["verify", "--config", "cfg.json", "--quiet=yes"],
        ["verify", "solve", "--config", "cfg.json"],
    ],
)
def test_bad_command_line_exits_2(argv, capsys):
    # an unknown, missing or second command, no --config, an option without
    # its value, an unknown option, and a bad --format or --epsilon value
    # are usage errors: the usage line on stderr and exit 2, before any
    # config is read
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "usage: chainwaves" in capsys.readouterr().err


def test_options_take_equals_form_and_unique_prefixes():
    # options come in any order, as --name=value or --name value, by a
    # unique prefix, and a repeated option keeps its last value
    argv = ["--conf=a.json", "verify", "--out", "r.csv", "--format=json", "--eps=0.1",
            "--q", "--config", "b.json"]
    assert cli.parse_args(argv) == cli.CommandLine("verify", "b.json", "r.csv", "json", 0.1, True)
    assert cli.parse_args(["solve", "--config", "c.json"]) == cli.CommandLine("solve", "c.json")


def test_help_lists_the_four_commands(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    assert "{solve,sweep,simulate,verify}" in capsys.readouterr().out


def test_verify_command_passes(tmp_path, capsys):
    path, _ = base_config(tmp_path, grid={"num_points": 1024})
    assert cli.main(["verify", "--config", str(path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 20
    assert "[FAIL]" not in out


def test_verify_never_imports_numpy_random(tmp_path):
    # the checks draw their probes from the package's own seeded stream
    path, _ = base_config(
        tmp_path, model={"alpha": [1.0, 1.0], "beta": [1.0, 1.0]}, grid={"num_points": 1024}
    )
    script = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from chainwaves import cli\n"
        f"code = cli.main(['verify', '--config', {str(path)!r}, '--quiet'])\n"
        "print(code, before, 'numpy.random' in sys.modules)\n"
    )
    source = str(Path(cli.__file__).parents[1])
    path_entries = filter(None, [source, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    code, before, after = done.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("numpy before 2.0 imports numpy.random with numpy itself")
    assert (code, after) == ("0", "False")


def test_verify_coarse_grid_fails_order_checks(tmp_path, capsys):
    path, _ = base_config(tmp_path, grid={"num_points": 32})
    assert cli.main(["verify", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "averaging_asymptotic_orders" in captured.err
    assert "[FAIL]" in captured.out
