"""Command line front end: config ingestion, dispatch, serialized reports.

Configs are strict JSON; unknown keys are errors, since silent typos in
coefficient lists are the dominant user hazard. Reports are byte-stable
across repeated runs with the same config.

Exit codes: 0 ok, 1 property/threshold failure, 2 config error,
3 solver error, 4 I/O error, 5 window error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

from .errors import ChainwavesError, ConfigError, WindowOverflowError
from .grid import SpectralGrid, make_grid
from .lattice import _BUFFER_FACTOR, _check_dt, _dt_guard, run_transport
from .model import ChainModel, PsiFamily, default_half_length
from .solver import SolveConfig, SweepRow, convergence_sweep, solve_wave
from .verify import run_verification

__all__ = ["RunConfig", "load_config", "cmd_solve", "cmd_sweep", "cmd_simulate", "cmd_verify", "main"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_IO_ERROR = 4
EXIT_WINDOW_ERROR = 5

SWEEP_COLUMNS = (
    "epsilon",
    "l2_error",
    "sup_error",
    "order_l2",
    "order_sup",
    "iterations",
    "tw_residual",
    "sigma_min",
    "residual_norm_RS",
    "tail_rate",
)


@dataclass(frozen=True)
class SimSettings:
    particles: int
    dt: float
    horizon: float
    max_transport_error: float = 0.02


@dataclass(frozen=True)
class OutputSettings:
    path: str | None = None
    format: str = "csv"


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with defaults materialized."""

    model: ChainModel
    grid: SpectralGrid
    epsilon: float | None
    epsilon_list: tuple | None
    tol: float
    max_iter: int
    damping: float
    sim: SimSettings | None
    output: OutputSettings

    def solve_config(self, epsilon: float) -> SolveConfig:
        return SolveConfig(
            epsilon=epsilon, tol=self.tol, max_iterations=self.max_iter, damping=self.damping
        )

    def to_dict(self) -> dict:
        """Normalized plain-dict form; loading it again is a fixed point."""
        psi = {"family": self.model.psi.kind}
        if self.model.psi.kind != "none":
            psi["params"] = list(self.model.psi.params)
        solver: dict = {"tol": self.tol, "max_iter": self.max_iter, "damping": self.damping}
        if self.epsilon_list is not None:
            solver["epsilon_list"] = list(self.epsilon_list)
        else:
            solver["epsilon"] = self.epsilon
        out: dict = {
            "model": {"alpha": list(self.model.alpha), "beta": list(self.model.beta), "psi": psi},
            "grid": {
                "half_length": self.grid.half_length,
                "num_points": self.grid.num_points,
            },
            "solver": solver,
            "output": {"path": self.output.path, "format": self.output.format},
        }
        if self.sim is not None:
            out["sim"] = {
                "particles": self.sim.particles,
                "dt": self.sim.dt,
                "horizon": self.sim.horizon,
                "max_transport_error": self.sim.max_transport_error,
            }
        return out


def _require_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _finite_number(value, where: str) -> float:
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _positive_number(value, where: str) -> float:
    # the bound rejects Infinity, NaN and integers no float can hold
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not 0 < value <= sys.float_info.max
    ):
        raise ConfigError(f"{where} must be a positive finite number, got {value!r}")
    return float(value)


def _epsilon(value, where: str) -> float:
    epsilon = _positive_number(value, where)
    try:
        SolveConfig(epsilon)  # the one range check of epsilon
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return epsilon


def _coefficient_list(value, where: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a nonempty list")
    return tuple(_positive_number(v, f"{where} entry") for v in value)


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config dict; every violation raises ``ConfigError``."""
    _require_keys(data, {"model", "grid", "solver", "sim", "output"}, "config root")
    for key in ("model", "grid", "solver"):
        if key not in data:
            raise ConfigError(f"missing required section {key!r}")

    model_section = data["model"]
    _require_keys(model_section, {"alpha", "beta", "psi"}, "model")
    alpha = _coefficient_list(model_section.get("alpha"), "model.alpha")
    beta = _coefficient_list(model_section.get("beta"), "model.beta")
    psi_section = model_section.get("psi", {"family": "none"})
    _require_keys(psi_section, {"family", "params"}, "model.psi")
    family = psi_section.get("family", "none")
    params = psi_section.get("params", [])
    if not isinstance(params, list):
        raise ConfigError("model.psi.params must be a list")
    params = tuple(_finite_number(p, "model.psi.params entry") for p in params)
    try:
        psi = PsiFamily(family, params)
        model = ChainModel(alpha, beta, psi)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    grid_section = data["grid"]
    _require_keys(grid_section, {"half_length", "num_points"}, "grid")
    if "num_points" not in grid_section:
        raise ConfigError("grid.num_points is required")
    num_points = grid_section["num_points"]
    if not isinstance(num_points, int) or isinstance(num_points, bool):
        raise ConfigError("grid.num_points must be an integer")
    half_length = grid_section.get("half_length")
    if half_length is None:
        half_length = default_half_length(model)
    else:
        half_length = _positive_number(half_length, "grid.half_length")
    try:
        grid = make_grid(half_length, num_points)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    solver_section = data["solver"]
    _require_keys(
        solver_section, {"epsilon", "epsilon_list", "tol", "max_iter", "damping"}, "solver"
    )
    epsilon = solver_section.get("epsilon")
    epsilon_list = solver_section.get("epsilon_list")
    if (epsilon is None) == (epsilon_list is None):
        raise ConfigError("solver needs exactly one of epsilon or epsilon_list")
    if epsilon is not None:
        epsilon = _epsilon(epsilon, "solver.epsilon")
    if epsilon_list is not None:
        if not isinstance(epsilon_list, list):
            raise ConfigError("solver.epsilon_list must be a list")
        epsilon_list = tuple(_epsilon(e, "solver.epsilon_list entry") for e in epsilon_list)
    tol = _positive_number(solver_section.get("tol", 1e-12), "solver.tol")
    max_iter = solver_section.get("max_iter", 200)
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise ConfigError("solver.max_iter must be a positive integer")
    damping = _positive_number(solver_section.get("damping", 1.0), "solver.damping")
    if damping > 1:
        raise ConfigError("solver.damping must be in (0, 1]")

    sim = None
    if "sim" in data:
        sim_section = data["sim"]
        _require_keys(
            sim_section, {"particles", "dt", "horizon", "max_transport_error"}, "sim"
        )
        for key in ("particles", "dt", "horizon"):
            if key not in sim_section:
                raise ConfigError(f"sim.{key} is required")
        particles = sim_section["particles"]
        # the transport window starts _BUFFER_FACTOR * M sites in from each end
        minimum = 2 * _BUFFER_FACTOR * model.neighbor_range + 1
        if not isinstance(particles, int) or isinstance(particles, bool) or particles < minimum:
            raise ConfigError(f"sim.particles must be an integer >= {minimum}, got {particles!r}")
        dt = _positive_number(sim_section["dt"], "sim.dt")
        try:
            _check_dt(model, dt)
        except ValueError:
            guard = _dt_guard(model)
            raise ConfigError(f"sim.dt = {dt:g} above the stability guard {guard:g}") from None
        horizon = _positive_number(sim_section["horizon"], "sim.horizon")
        threshold = _positive_number(
            sim_section.get("max_transport_error", 0.02), "sim.max_transport_error"
        )
        sim = SimSettings(particles, dt, horizon, threshold)

    output = OutputSettings()
    if "output" in data:
        output_section = data["output"]
        _require_keys(output_section, {"path", "format"}, "output")
        fmt = output_section.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.format must be csv or json, got {fmt!r}")
        path = output_section.get("path")
        if path is not None and not isinstance(path, str):
            raise ConfigError("output.path must be a string")
        output = OutputSettings(path, fmt)

    return RunConfig(
        model=model,
        grid=grid,
        epsilon=epsilon,
        epsilon_list=epsilon_list,
        tol=tol,
        max_iter=max_iter,
        damping=damping,
        sim=sim,
        output=output,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _CommandFailure(Exception):
    """Ends a command with exit ``code``; ``main`` prints the message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _write_report(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CommandFailure(EXIT_IO_ERROR, f"cannot write {path}: {exc}") from exc


def _solve(config: RunConfig):
    try:
        return solve_wave(config.model, config.grid, config.solve_config(config.epsilon))
    except ChainwavesError as exc:
        message = f"solver error: {type(exc).__name__}: {exc}"
        raise _CommandFailure(EXIT_SOLVER_ERROR, message) from exc


def _sweep_row_cells(row: SweepRow) -> list:
    if row.error is not None:
        marker = f"error:{row.error}"
        return [row.epsilon, marker, None, None, None, None, None, None, row.residual_norm_rs, None]
    return [
        row.epsilon,
        row.l2_error,
        row.sup_error,
        row.order_l2,
        row.order_sup,
        row.iterations,
        row.tw_residual,
        row.sigma_min,
        row.residual_norm_rs,
        row.tail_rate,
    ]


def _sweep_csv(rows: list) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in _sweep_row_cells(row)))
    return "\n".join(lines) + "\n"


def _sweep_json(rows: list) -> str:
    payload = [
        dict(zip(SWEEP_COLUMNS, (_format_cell(c) or None for c in _sweep_row_cells(row))))
        for row in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _diagnostics_dict(solution) -> dict:
    d = solution.diagnostics
    return {
        "epsilon": solution.epsilon,
        "wave_speed_sq": solution.wave_speed_sq,
        "iterations": d.iterations,
        "final_increment": d.final_increment,
        "tw_residual": d.tw_residual,
        "corrector_norm": d.corrector_norm,
        "sigma_min": d.sigma_min,
        "tail_decay_rate": d.tail_decay_rate,
    }


def _solve_report(solution, fmt: str) -> str:
    diagnostics = _diagnostics_dict(solution)
    if fmt == "json":
        payload = {
            "diagnostics": diagnostics,
            "profile": {
                "x": [repr(v) for v in solution.grid.nodes.tolist()],
                "W0": [repr(v) for v in solution.w0.values.tolist()],
                "W_eps": [repr(v) for v in solution.w.values.tolist()],
                "V_eps": [repr(v) for v in solution.v.values.tolist()],
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"# {key}: {_format_cell(value)}" for key, value in diagnostics.items()]
    lines.append("x,W0,W_eps,V_eps")
    for row in zip(
        solution.grid.nodes, solution.w0.values, solution.w.values, solution.v.values
    ):
        lines.append(",".join(_format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _resolve_output(config: RunConfig, args) -> OutputSettings:
    path = args.output if args.output else config.output.path
    fmt = args.format if args.format else config.output.format
    if path is None:
        raise ConfigError("no output path given (config output.path or --output)")
    return OutputSettings(path, fmt)


def cmd_solve(config: RunConfig, args) -> int:
    if config.epsilon is None:
        raise ConfigError("solve needs solver.epsilon (a single value)")
    output = _resolve_output(config, args)
    solution = _solve(config)
    _write_report(output.path, _solve_report(solution, output.format))
    if not args.quiet:
        print(
            f"solved eps={solution.epsilon:g} in {solution.diagnostics.iterations} "
            f"iterations, residual {solution.diagnostics.tw_residual:.3e} -> {output.path}"
        )
    return EXIT_OK


def cmd_sweep(config: RunConfig, args) -> int:
    if config.epsilon_list is None or len(config.epsilon_list) < 2:
        raise ConfigError("sweep needs solver.epsilon_list with at least two entries")
    if any(b >= a for a, b in zip(config.epsilon_list, config.epsilon_list[1:])):
        raise ConfigError("solver.epsilon_list must be strictly decreasing")
    output = _resolve_output(config, args)
    template = config.solve_config(config.epsilon_list[0])
    rows = convergence_sweep(config.model, config.grid, config.epsilon_list, template)
    _write_report(output.path, _sweep_json(rows) if output.format == "json" else _sweep_csv(rows))
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"warning: eps={row.epsilon:g} failed with {row.error}", file=sys.stderr)
    if not args.quiet:
        print(f"sweep over {len(rows)} epsilon values -> {output.path}")
    return EXIT_OK


def cmd_simulate(config: RunConfig, args) -> int:
    if config.sim is None:
        raise ConfigError("simulate needs a sim section")
    if config.epsilon is None:
        raise ConfigError("simulate needs solver.epsilon (a single value)")
    output = _resolve_output(config, args)
    solution = _solve(config)
    try:
        report = run_transport(
            solution, config.sim.particles, config.sim.horizon, config.sim.dt
        )
    except WindowOverflowError as exc:
        raise _CommandFailure(EXIT_WINDOW_ERROR, f"window error: {exc}") from exc
    payload = {
        "J": report.num_particles,
        "dt": report.dt,
        "T": report.horizon,
        "steps": report.steps,
        "transport_error": report.transport_error,
        "energy_drift": report.energy_drift,
        "peak_energy_deviation": report.peak_energy_deviation,
        "momentum_drift": report.momentum_drift_per_step,
    }
    if output.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        keys = list(payload)
        text = ",".join(keys) + "\n" + ",".join(_format_cell(payload[k]) for k in keys) + "\n"
    _write_report(output.path, text)
    ok = report.transport_error <= config.sim.max_transport_error
    if not args.quiet:
        verdict = "within" if ok else "ABOVE"
        print(
            f"transport error {report.transport_error:.3e} {verdict} threshold "
            f"{config.sim.max_transport_error:g} -> {output.path}"
        )
    return EXIT_OK if ok else EXIT_PROPERTY_FAILURE


def cmd_verify(config: RunConfig, args) -> int:
    results = run_verification(config.model, config.grid)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"{len(failing)} properties failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    if not args.quiet:
        print(f"all {len(results)} properties passed")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainwaves",
        description="Solitary traveling waves for chains with nonlocal interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--output", default=None, help="report destination path")
        cmd.add_argument("--format", default=None, choices=("csv", "json"))
        cmd.add_argument("--epsilon", type=float, default=None, help="override solver.epsilon")
        cmd.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.epsilon is not None:
            epsilon = _epsilon(args.epsilon, "--epsilon")
            config = replace(config, epsilon=epsilon, epsilon_list=None)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _CommandFailure as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
