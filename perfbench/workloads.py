"""Workload definitions: configs generated from a seed, and the child plan.

This module imports nothing from the package under test. The closed-form
constants it needs to size inputs (d1, c0, the default half length) are the
paper's formulas, so the program receives only finished configs.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep-cold", "resolve-warm", "transport", "verify")

MODELS = {
    "M1": {"alpha": [1.0], "beta": [1.0], "psi": {"family": "none"}},
    "M2": {"alpha": [1.0, 1.0], "beta": [1.0, 1.0], "psi": {"family": "none"}},
    "M2-cubic": {
        "alpha": [1.0, 1.0],
        "beta": [1.0, 1.0],
        "psi": {"family": "cubic", "params": [0.1, 0.1]},
    },
}

# Relative band within which the seed moves each jittered epsilon. Transport
# work scales like 1/eps^2, so +-1% keeps seed-to-seed work within +-2%.
EPS_JITTER = 0.01
SWEEP_SCHEDULE = (0.4, 0.2, 0.1, 0.05)
MIN_CHILDREN = 3  # fresh processes per run at least; setup_s is their median
MAX_CHILDREN = 40
SUPPORT_THRESHOLD = 1e-6  # lattice.run_transport's support cut, relative to the peak
TRAVEL_SHARE = 0.9  # horizon as a share of the travel the chain window allows


def sound_speed_sq(model: dict) -> float:
    return sum(a * m**2 for m, a in enumerate(model["alpha"], start=1))


def kdv_d1(model: dict) -> float:
    return 12.0 / sum(a * m**4 for m, a in enumerate(model["alpha"], start=1))


def default_half_length(model: dict) -> float:
    return 30.0 / math.sqrt(kdv_d1(model))


def _jitter(rng: random.Random, eps: float) -> float:
    return eps * (1.0 + rng.uniform(-EPS_JITTER, EPS_JITTER))


def _config(model: str, num_points: int, solver: dict, sim: dict | None = None) -> dict:
    config = {"model": MODELS[model], "grid": {"num_points": num_points}, "solver": solver}
    if sim is not None:
        config["sim"] = sim
    return config


def transport_case(model: str, eps: float, num_points: int = 1024) -> dict:
    """simulate config using the longest chain the profile window admits.

    J = floor(2L/eps); the horizon is TRAVEL_SHARE of the travel left between
    the closed-form support half width and the interior window, and dt is half
    the stability guard 0.1/c0.
    """
    spec = MODELS[model]
    half_length = default_half_length(spec)
    particles = math.floor(2.0 * half_length / eps * (1.0 - 1e-12))
    buffer = 4 * len(spec["alpha"])
    # w0 = a sech^2(sqrt(d1) x / 2) drops below the threshold at this |x|
    half_width = 2.0 / math.sqrt(kdv_d1(spec)) * math.acosh(SUPPORT_THRESHOLD**-0.5)
    window = eps * (particles / 2.0 - buffer)
    speed = math.sqrt(sound_speed_sq(spec) + eps**2)
    horizon = TRAVEL_SHARE * (window - half_width) / (eps * speed)
    dt = 0.5 * 0.1 / math.sqrt(sound_speed_sq(spec))
    sim = {"particles": particles, "dt": dt, "horizon": horizon, "max_transport_error": 0.02}
    return _config(model, num_points, {"epsilon": eps}, sim)


# Known defects at the seed commit, kept as probes: fixed reproductions that
# the seed does not jitter. ``expect`` is the exception type they raise today.
DT_GUARD_PROBE = {
    "id": "probe-dt-at-guard",
    "kind": "simulate",
    "expect": "ValueError",
    "why": "dt at the guard passes the config check, but run_transport rounds "
    "the step count and steps with dt_used = horizon/round(horizon/dt) = 0.104 "
    "> guard 0.1, so lattice.step raises an untyped ValueError",
    "config": _config(
        "M1",
        1024,
        {"epsilon": 0.1},
        {"particles": 170, "dt": 0.1, "horizon": 1.04, "max_transport_error": 0.02},
    ),
}
EPS_ONE_PROBE = {
    "id": "probe-M1-eps1-default-damping",
    "kind": "resolve",
    "expect": "NoConvergenceError",
    "why": "M1 at eps = 1.0 with damping 1.0 stalls at an increment of ~4e-11 "
    "and raises NoConvergenceError after 200 iterations",
    "config": _config("M1", 4096, {"epsilon": 1.0}),
}


def build_plan(workload: str, seed: int, seconds: float) -> dict:
    """Everything one run executes, derived from (workload, seed, seconds) only.

    A plan has ``configs`` (id -> config) and ``children``: one entry per
    fresh process, naming the config ids of one round, the seed that orders
    each round (None: keep the given order), the share of ``seconds`` the
    process repeats rounds for (0: one round) and the known-defect probes it
    runs once afterwards. The run starts children in order until
    ``min_children`` have run and their timed phases add up to ``seconds``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    probes: list = []
    if workload == "sweep-cold":
        configs = {}
        for model in MODELS:
            eps_list = [_jitter(rng, e) for e in SWEEP_SCHEDULE]
            configs[model] = {"kind": "sweep", "config": _config(model, 4096, {"epsilon_list": eps_list})}
        order = list(configs)
        rng.shuffle(order)
        # one cold sweep per process: a second sweep would hit the operator cache
        children = [{"ids": [cid], "order_seed": None, "share": 0.0} for cid in order]
    elif workload == "resolve-warm":
        configs = {
            "M2-cubic": {
                "kind": "resolve",
                "config": _config("M2-cubic", 4096, {"epsilon": _jitter(rng, 0.1)}),
            },
            # eps = 1 is the top of the admissible range (0, 1]; not jittered
            "M1-damped": {
                "kind": "resolve",
                "config": _config("M1", 4096, {"epsilon": 1.0, "damping": 0.7}),
            },
        }
        # warm repeats are the point here: each process builds once, then
        # re-solves for its share of the run
        children = [
            {"ids": list(configs), "order_seed": rng.randrange(2**31), "share": seconds / MIN_CHILDREN}
            for _ in range(MIN_CHILDREN)
        ]
        probes = [EPS_ONE_PROBE]
    elif workload == "transport":
        configs = {
            "M1": {"kind": "simulate", "config": transport_case("M1", _jitter(rng, 0.05))},
            "M2": {"kind": "simulate", "config": transport_case("M2", _jitter(rng, 0.1))},
            "M2-cubic": {
                "kind": "simulate",
                "config": transport_case("M2-cubic", _jitter(rng, 0.05)),
            },
        }
        # One round per process, like separate command invocations: a second
        # round would find its operators cached. The round keeps one order,
        # longest chain first, because a process's peak RSS depends on the
        # order of its allocations (152-174 MB over the six orders).
        children = [
            {"ids": ["M2-cubic", "M2", "M1"], "order_seed": None, "share": 0.0}
            for _ in range(MAX_CHILDREN)
        ]
        probes = [DT_GUARD_PROBE]
    else:
        # run_verification uses its own fixed eps sweeps; solver.epsilon is
        # required by the config format and otherwise unused
        configs = {"M2": {"kind": "verify", "config": _config("M2", 2048, {"epsilon": 0.1})}}
        children = [{"ids": ["M2"], "order_seed": None, "share": 0.0} for _ in range(MAX_CHILDREN)]
    probe_child = rng.randrange(MIN_CHILDREN)
    for index, child in enumerate(children):
        child["probes"] = probes if index == probe_child else []
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "configs": configs,
        "children": children,
        "min_children": min(MIN_CHILDREN, len(children)),
    }

