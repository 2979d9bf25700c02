"""Names the benchmark worker (perfbench/worker.py) binds at run time.

Without them the benchmark fails instead of measuring, so a rename here must
go together with a change to the benchmark.
"""

import importlib
from functools import cached_property

LAYERS = ("grid", "operators", "model", "linearized", "solver", "lattice", "verify", "cli")


def test_worker_bound_names_exist():
    modules = {name: importlib.import_module(f"chainwaves.{name}") for name in LAYERS}
    assert callable(modules["linearized"].linearized_operator.cache_info)
    assert isinstance(
        vars(modules["linearized"].LinearizedOperator)["_assembled"], cached_property
    )
    assert callable(modules["solver"].solve_wave)
    assert callable(modules["solver"].eigen_identity_check)
    assert callable(modules["lattice"].run_transport)
    assert "__post_init__" in vars(modules["grid"].GridFunction)
    assert callable(modules["cli"].main) and callable(modules["cli"].load_config)
