"""Names the benchmark worker (perfbench/worker.py) binds at run time.

Without them the benchmark fails instead of measuring, so a rename here must
go together with a change to the benchmark.
"""

import ast
import importlib
import inspect
import json
import re
from functools import cached_property
from pathlib import Path

import numpy as np

import chainwaves

ROOT = Path(__file__).resolve().parents[1]

LAYERS = ("grid", "operators", "model", "linearized", "solver", "lattice", "verify", "cli")
# spans whose self time or call count perfbench/run.py reports per layer; the
# tracer wraps public functions and methods by these names, so a rename would
# read 0 instead of failing
SPAN_TARGETS = (
    "solver.fixed_point_map",
    "solver.residuals",
    "solver.eigen_identity_check",
    "model.apply_Q",
    "model.apply_P",
    "model.tw_residual",
    "operators.averaging_direct",
    "linearized.LinearizedOperator.even_matrix",
    "linearized.LinearizedOperator.solve",
    "linearized.LinearizedOperator.smallest_singular_value",
)


def test_worker_bound_names_exist(tmp_path):
    modules = {name: importlib.import_module(f"chainwaves.{name}") for name in LAYERS}
    assert callable(modules["linearized"].linearized_operator.cache_info)
    assert isinstance(
        vars(modules["linearized"].LinearizedOperator)["_assembled"], cached_property
    )
    # the worker reads out[0].nbytes as the operator's stored bytes: O(N M), not O(N^2)
    model = modules["model"].ChainModel((1.0, 1.0), (1.0, 1.0))
    grid = modules["grid"].make_grid(modules["model"].default_half_length(model), 256)
    assembled = modules["linearized"].linearized_operator(model, grid, 0.2)._assembled
    assert isinstance(assembled[0], np.ndarray)
    assert assembled[0].nbytes <= 8 * grid.num_points * model.neighbor_range
    assert callable(modules["solver"].solve_wave)
    assert callable(modules["solver"].eigen_identity_check)
    assert callable(modules["lattice"].run_transport)
    # the worker passes a verify run on exactly VERIFY_CHECKS = 20 [PASS] lines
    assert len(modules["verify"].CHECKS) == 20
    assert "__post_init__" in vars(modules["grid"].GridFunction)
    assert callable(modules["cli"].main) and callable(modules["cli"].load_config)
    # what the worker reads from a loaded simulate config
    path = tmp_path / "simulate.json"
    path.write_text(json.dumps({
        "model": {"alpha": [1.0, 1.0], "beta": [1.0, 1.0]},
        "grid": {"num_points": 256},
        "solver": {"epsilon": 0.2},
        "sim": {"particles": 80, "dt": 0.02, "horizon": 1.0},
    }))
    config = modules["cli"].load_config(str(path))
    assert config.model == model and config.grid == grid and config.epsilon == 0.2
    assert config.sim.particles == 80
    solve_config = config.solve_config(0.1)
    assert isinstance(solve_config, modules["solver"].SolveConfig) and solve_config.epsilon == 0.1


def _imported_names(path: Path) -> dict:
    """{module: names} of the ``from module import names`` statements of a
    file, function bodies included, in the order they appear."""
    imports = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imports.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return imports


def test_top_level_names_are_the_readme_surface():
    # the package imports exactly the names the README's Library surface
    # lists, from the module it names, and verify first
    section = (ROOT / "README.md").read_text().split("## Library surface")[1].split("\n## ")[0]
    listed = {
        module: re.findall(r"`(\w+)`", names)
        for module, names in re.findall(r"^- `(\w+)`: (.*?)$(?=\n-|\n\n)", section, re.M | re.S)
    }
    imported = _imported_names(Path(chainwaves.__file__))
    assert next(iter(imported)) == "verify"
    assert imported == listed
    assert sum(map(len, imported.values())) == 41
    # and the names besides modules that the worker imports from the top
    # level resolve there
    worker = set(_imported_names(ROOT / "perfbench" / "worker.py")["chainwaves"]) - set(LAYERS)
    assert {"linearized_operator", "solve_wave", "eigen_identity_check"} <= worker
    for name in worker:
        assert hasattr(chainwaves, name), name


def test_traced_span_targets_exist():
    for target in SPAN_TARGETS:
        short, *owners, name = target.split(".")
        module = importlib.import_module(f"chainwaves.{short}")
        owner = module
        for attr in owners:
            owner = vars(owner)[attr]
            assert inspect.isclass(owner) and owner.__module__ == module.__name__
        member = vars(owner).get(name)
        assert inspect.isfunction(member), target
        assert member.__module__ == module.__name__, target
