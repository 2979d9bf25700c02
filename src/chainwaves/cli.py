"""Command line front end: config ingestion, dispatch, serialized reports.

Configs are strict JSON; unknown keys are errors, since silent typos in
coefficient lists are the dominant user hazard. The ``solver`` section takes
``epsilon`` or ``epsilon_list`` and nothing else: the tolerances and the
iteration budget are solver constants, and the corrector measures its own
relaxation. This module checks the JSON shapes
and types, a nonempty ``epsilon_list`` (two entries for a sweep), a
positive ``sim.horizon`` and ``sim.max_transport_error``, and the output
format. Every other rule is kept by the type that uses it, and its
``ValueError`` becomes a config error: ``SolveConfig`` the range of epsilon;
``ChainModel`` and ``PsiFamily`` the coefficients;
``make_grid`` the grid; ``lattice.check_chain`` J > 8M and the dt guard;
``convergence_sweep`` a strictly decreasing ``epsilon_list``.
Reports are written from the result dataclasses and are byte-stable across
repeated runs with the same config.

``main`` applies the ``--output``, ``--format`` and ``--epsilon`` overrides
to the loaded config, runs the command, writes its report, prints its
summary unless ``--quiet``, and is the one place that turns an error into an
exit code and a stderr line: 0 ok, 1 property/threshold failure, 2 config
error, 3 solver error, 4 I/O error (the report write), 5 window error.
Warnings raised while a command runs go to stderr as one
``warning: <message>`` line each.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import asdict, astuple, dataclass, replace
from typing import NoReturn

from .errors import ChainwavesError, ConfigError, WindowOverflowError
from .grid import SpectralGrid, make_grid
from .lattice import check_chain, run_transport
from .model import ChainModel, PsiFamily, default_half_length
from .solver import SolveConfig, convergence_sweep, solve_wave
from .verify import run_verification

__all__ = ["RunConfig", "load_config", "CommandLine", "parse_args", "main"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_IO_ERROR = 4
EXIT_WINDOW_ERROR = 5

# report schemas: the columns of a SweepRow and of a TransportReport
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
SIMULATE_COLUMNS = (
    "J",
    "dt",
    "T",
    "steps",
    "transport_error",
    "energy_drift",
    "peak_energy_deviation",
    "momentum_drift",
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
    """Validated run configuration with defaults materialized: ``epsilon``
    is the one epsilon of a solve, simulate or verify config, None for a
    sweep, which has ``epsilon_list``."""

    model: ChainModel
    grid: SpectralGrid
    epsilon: float | None
    epsilon_list: tuple | None
    sim: SimSettings | None
    output: OutputSettings

    def solve_config(self, epsilon: float) -> SolveConfig:
        return SolveConfig(epsilon)


def _object(value, where: str, keys: str, required: str = "") -> dict:
    """``value`` if it is a JSON object with only the ``keys`` and all the
    ``required`` ones (both space-separated)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - set(keys.split())
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    for key in required.split():
        if key not in value:
            raise ConfigError(f"{where} needs {key!r}")
    return value


def _number(value, where: str, kind: type = float, positive: bool = False):
    """``value`` as ``kind`` if JSON gave an integer for ``int``, else a finite
    number, positive where asked; booleans are no numbers."""
    # the bound rejects Infinity, NaN and integers no float can hold
    if (
        not isinstance(value, int if kind is int else (int, float))
        or isinstance(value, bool)
        or (kind is float and not abs(value) <= sys.float_info.max)
        or (positive and value <= 0)
    ):
        what = "an integer" if kind is int else f"a {'positive ' if positive else ''}finite number"
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    return kind(value)


def _numbers(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return tuple(_number(v, f"{where} entry") for v in value)


def _epsilon(value, where: str) -> float:
    epsilon = _number(value, where)
    try:
        SolveConfig(epsilon)  # the one range check of epsilon
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return epsilon


def parse_config(data: dict) -> RunConfig:
    """Validate a raw config dict; every violation raises ``ConfigError``."""
    _object(data, "config root", "model grid solver sim output", required="model grid solver")

    section = _object(data["model"], "model", "alpha beta psi")
    psi = _object(section.get("psi", {}), "model.psi", "family params")
    alpha = _numbers(section.get("alpha"), "model.alpha")
    beta = _numbers(section.get("beta"), "model.beta")
    params = _numbers(psi.get("params", []), "model.psi.params")
    try:
        model = ChainModel(alpha, beta, PsiFamily(psi.get("family", "none"), params))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    section = _object(data["grid"], "grid", "half_length num_points", required="num_points")
    num_points = _number(section["num_points"], "grid.num_points", int)
    half_length = section.get("half_length")
    if half_length is None:
        half_length = default_half_length(model)
    try:
        grid = make_grid(_number(half_length, "grid.half_length"), num_points)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    section = _object(data["solver"], "solver", "epsilon epsilon_list")
    epsilon, epsilon_list = section.get("epsilon"), section.get("epsilon_list")
    if (epsilon is None) == (epsilon_list is None):
        raise ConfigError("solver needs exactly one of epsilon or epsilon_list")
    if epsilon_list is None:
        epsilon = _epsilon(epsilon, "solver.epsilon")
    else:
        where = "solver.epsilon_list"
        if not isinstance(epsilon_list, list) or not epsilon_list:
            raise ConfigError(f"{where} must be a nonempty list, got {epsilon_list!r}")
        epsilon_list = tuple(_epsilon(e, f"{where} entry") for e in epsilon_list)

    sim = None
    if "sim" in data:
        section = _object(
            data["sim"], "sim", "particles dt horizon max_transport_error", "particles dt horizon"
        )
        sim = SimSettings(**{
            key: _number(
                value, f"sim.{key}", int if key == "particles" else float,
                positive=key in ("horizon", "max_transport_error"),
            )
            for key, value in section.items()
        })
        try:
            check_chain(model, sim.particles, sim.dt)
        except ValueError as exc:
            raise ConfigError(f"sim.{exc}") from None

    output = OutputSettings(**_object(data.get("output", {}), "output", "path format"))
    if output.format not in ("csv", "json"):
        raise ConfigError(f"output.format must be csv or json, got {output.format!r}")
    if output.path is not None and not isinstance(output.path, str):
        raise ConfigError("output.path must be a string")

    return RunConfig(model, grid, epsilon, epsilon_list, sim, output)


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


def _csv(columns, rows) -> str:
    lines = [",".join(columns)] + [",".join(_format_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _solve_report(solution, fmt: str) -> str:
    diagnostics = {
        "epsilon": solution.epsilon,
        "wave_speed_sq": solution.wave_speed_sq,
        **asdict(solution.diagnostics),
    }
    profile = {
        "x": solution.grid.nodes,
        "W0": solution.w0.values,
        "W_eps": solution.w.values,
        "V_eps": solution.v.values,
    }
    if fmt == "json":
        profile = {key: [repr(v) for v in values.tolist()] for key, values in profile.items()}
        return _json({"diagnostics": diagnostics, "profile": profile})
    header = "".join(f"# {key}: {_format_cell(value)}\n" for key, value in diagnostics.items())
    return header + _csv(profile, zip(*profile.values()))


def _report_path(config: RunConfig) -> str:
    if config.output.path is None:
        raise ConfigError("no output path given (config output.path or --output)")
    return config.output.path


def cmd_solve(config: RunConfig) -> tuple:
    if config.epsilon is None:
        raise ConfigError("solve needs solver.epsilon (a single value)")
    path = _report_path(config)
    solution = solve_wave(config.model, config.grid, SolveConfig(config.epsilon))
    summary = (
        f"solved eps={solution.epsilon:g} in {solution.diagnostics.iterations} "
        f"iterations, residual {solution.diagnostics.tw_residual:.3e} -> {path}"
    )
    return EXIT_OK, _solve_report(solution, config.output.format), summary


def cmd_sweep(config: RunConfig) -> tuple:
    if config.epsilon_list is None or len(config.epsilon_list) < 2:
        raise ConfigError("sweep needs solver.epsilon_list with at least two entries")
    path = _report_path(config)
    try:
        rows = convergence_sweep(config.model, config.grid, config.epsilon_list)
    except ValueError as exc:  # the list is not strictly decreasing
        raise ConfigError(f"solver.{exc}") from None
    table = []
    for row in rows:  # the SWEEP_COLUMNS cells; a failed row has error:<Name> as l2_error
        *cells, error = astuple(row)
        if error is not None:
            print(f"warning: eps={row.epsilon:g} failed with {error}", file=sys.stderr)
            cells[1] = f"error:{error}"
        table.append(cells)
    if config.output.format == "json":
        records = [[_format_cell(c) or None for c in cells] for cells in table]
        text = _json([dict(zip(SWEEP_COLUMNS, record)) for record in records])
    else:
        text = _csv(SWEEP_COLUMNS, table)
    return EXIT_OK, text, f"sweep over {len(rows)} epsilon values -> {path}"


def cmd_simulate(config: RunConfig) -> tuple:
    if config.sim is None:
        raise ConfigError("simulate needs a sim section")
    if config.epsilon is None:
        raise ConfigError("simulate needs solver.epsilon (a single value)")
    path = _report_path(config)
    solution = solve_wave(config.model, config.grid, SolveConfig(config.epsilon))
    report = run_transport(solution, config.sim.particles, config.sim.horizon, config.sim.dt)
    if config.output.format == "json":
        text = _json(dict(zip(SIMULATE_COLUMNS, astuple(report))))
    else:
        text = _csv(SIMULATE_COLUMNS, [astuple(report)])
    ok = report.transport_error <= config.sim.max_transport_error
    summary = (
        f"transport error {report.transport_error:.3e} {'within' if ok else 'ABOVE'} "
        f"threshold {config.sim.max_transport_error:g} -> {path}"
    )
    return (EXIT_OK if ok else EXIT_PROPERTY_FAILURE), text, summary


def cmd_verify(config: RunConfig) -> tuple:
    results = run_verification(config.model, config.grid)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    failing = [r.name for r in results if not r.passed]
    if failing:
        print(f"{len(failing)} properties failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE, None, None
    return EXIT_OK, None, f"all {len(results)} properties passed"


# each command checks what it needs of the config and returns its exit code,
# report text and summary line (verify: no report; a failed verify: no summary)
_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


@dataclass(frozen=True)
class CommandLine:
    """A parsed command line: the command and its five options."""

    command: str
    config: str
    output: str | None = None
    format: str | None = None
    epsilon: float | None = None
    quiet: bool = False


# The command line is one command and five options, parsed by hand:
# importing argparse and building its first parser (gettext and locale
# lookups) cost each fresh process more than the parse itself.
_CHOICES = "{" + ",".join(_COMMANDS) + "}"
USAGE = f"""usage: chainwaves [-h] --config CONFIG [--output OUTPUT] [--format {{csv,json}}]
                  [--epsilon EPSILON] [--quiet]
                  {_CHOICES}
"""
HELP = f"""{USAGE}
Solitary traveling waves for chains with nonlocal interactions

positional arguments:
  {_CHOICES}

options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON run configuration
  --output OUTPUT      report destination path
  --format {{csv,json}}  report format
  --epsilon EPSILON    override solver.epsilon
  --quiet              print no summary line
"""
_OPTIONS = ("--help", "--config", "--output", "--format", "--epsilon", "--quiet")


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{USAGE}chainwaves: error: {message}\n")
    raise SystemExit(EXIT_CONFIG_ERROR)


def parse_args(argv) -> CommandLine:
    """The command line ``argv`` without the program name, parsed by hand.

    Words may come in any order. An option is named in full or by a unique
    prefix, and takes its value as ``--name value`` or ``--name=value``; a
    next word that starts with ``--`` is no value. A repeated option keeps
    its last value. ``-h`` or ``--help`` prints ``HELP`` and exits 0; any
    other fault prints ``USAGE`` and the error to stderr and exits 2, as
    argparse does.
    """
    found: dict = {}
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            if "command" in found:
                _usage_error(f"unrecognized arguments: {word}")
            if word not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _usage_error(f"argument command: invalid choice: {word!r} (choose from {choices})")
            found["command"] = word
            continue
        name, equals, value = word.partition("=")
        matches = ["--help"] if name == "-h" else [o for o in _OPTIONS if o.startswith(name)]
        if len(matches) != 1:
            _usage_error(f"unrecognized arguments: {word}")
        option = matches[0]
        if option in ("--help", "--quiet"):
            if equals:
                _usage_error(f"argument {option}: ignored explicit argument {value!r}")
            if option == "--help":
                sys.stdout.write(HELP)
                raise SystemExit(EXIT_OK)
            found["quiet"] = True
            continue
        if not equals:
            value = next(words, None)
            if value is None or value.startswith("--"):
                _usage_error(f"argument {option}: expected one argument")
        if option == "--format" and value not in ("csv", "json"):
            choices = "(choose from 'csv', 'json')"
            _usage_error(f"argument --format: invalid choice: {value!r} {choices}")
        if option == "--epsilon":
            try:
                value = float(value)
            except ValueError:
                _usage_error(f"argument --epsilon: invalid float value: {value!r}")
        found[option[2:]] = value
    required = (("command", "command"), ("--config", "config"))
    missing = [name for name, key in required if key not in found]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return CommandLine(**found)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one ``warning: <message>`` line, with no source path."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command line and return its exit code (see the module docstring)."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            config = load_config(args.config)
            path, fmt = args.output or config.output.path, args.format or config.output.format
            config = replace(config, output=OutputSettings(path, fmt))
            if args.epsilon is not None:
                epsilon = _epsilon(args.epsilon, "--epsilon")
                config = replace(config, epsilon=epsilon, epsilon_list=None)
            code, report, summary = _COMMANDS[args.command](config)
        except ConfigError as exc:
            return _fail(EXIT_CONFIG_ERROR, f"config error: {exc}")
        except WindowOverflowError as exc:
            return _fail(EXIT_WINDOW_ERROR, f"window error: {exc}")
        except ChainwavesError as exc:
            return _fail(EXIT_SOLVER_ERROR, f"solver error: {type(exc).__name__}: {exc}")
    if report is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(report)
        except OSError as exc:
            return _fail(EXIT_IO_ERROR, f"cannot write {path}: {exc}")
    if summary is not None and not args.quiet:
        print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
