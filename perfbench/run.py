"""chainwaves benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Each run starts fresh worker processes one at a time (perfbench/worker.py)
with ``PYTHONPATH=src`` and ``OPENBLAS_NUM_THREADS`` pinned to nproc. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs the
same processes untraced and then traced, and prints the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object; the full record goes to ``.perfbench_out/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import geometric_mean, per_config_medians, tally
from workloads import WORKLOADS, build_plan

RUN_BUDGET_S = 170.0  # a run kills its worker and fails rather than run longer
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, what it reads). "self" reads the summed self
# time of one span name, "calls" its call count, "layer" the self time of
# every span of a module, "count" a counter.
PER_LAYER = {
    "linearized.even_matrix_s": ("s", "self", "linearized.LinearizedOperator.even_matrix"),
    "linearized.sigma_min_s": ("s", "self", "linearized.LinearizedOperator.smallest_singular_value"),
    "linearized.solve_s": ("s", "self", "linearized.LinearizedOperator.solve"),
    "linearized.solve_calls": ("count", "calls", "linearized.LinearizedOperator.solve"),
    "linearized.cache_hits": ("count", "count", "linearized.cache_hits"),
    "linearized.cache_misses": ("count", "count", "linearized.cache_misses"),
    "linearized.matrix_bytes": ("bytes", "count", "linearized.matrix_bytes"),
    "linearized.self_s": ("s", "layer", "linearized"),
    "solver.iterations": ("count", "calls", "solver.fixed_point_map"),
    "solver.fixed_point_map_s": ("s", "self", "solver.fixed_point_map"),
    "solver.residuals_s": ("s", "self", "solver.residuals"),
    "solver.eigen_identity_s": ("s", "self", "solver.eigen_identity_check"),
    "solver.self_s": ("s", "layer", "solver"),
    "model.apply_Q_s": ("s", "self", "model.apply_Q"),
    "model.apply_Q_calls": ("count", "calls", "model.apply_Q"),
    "model.apply_P_s": ("s", "self", "model.apply_P"),
    "model.tw_residual_s": ("s", "self", "model.tw_residual"),
    "model.self_s": ("s", "layer", "model"),
    "operators.averaging_operator_calls": ("count", "calls", "operators.averaging_operator"),
    "operators.apply_s": ("s", "self", "operators.MultiplierOperator.apply"),
    "operators.averaging_direct_s": ("s", "self", "operators.averaging_direct"),
    "operators.von_neumann_s": ("s", "self", "operators.von_neumann_inverse"),
    "operators.self_s": ("s", "layer", "operators"),
    "grid.gridfunction_new": ("count", "count", "grid.gridfunction_new"),
    "grid.sample_s": ("s", "self", "grid.sample"),
    "grid.sample_calls": ("count", "calls", "grid.sample"),
    "grid.self_s": ("s", "layer", "grid"),
    "lattice.steps": ("count", "calls", "lattice.step"),
    "lattice.step_s": ("s", "self", "lattice.step"),
    "lattice.acceleration_calls": ("count", "calls", "lattice.acceleration"),
    "lattice.acceleration_s": ("s", "self", "lattice.acceleration"),
    "lattice.total_energy_s": ("s", "self", "lattice.total_energy"),
    "lattice.initial_data_s": ("s", "self", "lattice.wave_initial_data"),
    "lattice.self_s": ("s", "layer", "lattice"),
    "verify.run_s": ("s", "layer", "verify"),
    "verify.failed_checks": ("count", "count", "verify.failed_checks"),
    "cli.main_s": ("s", "layer", "cli"),
    "cli.nonzero_exits": ("count", "count", "cli.nonzero_exits"),
    "trace.ops_s": ("s", "count", "trace.ops_s"),
    "trace.wall_s": ("s", "count", "trace.wall_s"),
    "trace.untraced_wall_s": ("s", "count", "trace.untraced_wall_s"),
    "trace.overhead_s": ("s", "count", "trace.overhead_s"),
    "trace.spans": ("count", "count", "trace.spans"),
}

# the model whose sweep the single-BLAS-thread baseline pass repeats
SINGLE_THREAD_MODEL = "M2-cubic"


class RunFailed(Exception):
    """The run cannot produce a result (missing program, crashed worker)."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        return run(root, args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


def run(root: Path, args) -> int:
    if not (root / "src" / "chainwaves" / "__init__.py").is_file():
        raise RunFailed(f"no package source at {root / 'src' / 'chainwaves'}; run from a checkout root")
    started = time.monotonic()
    plan = build_plan(args.workload, args.seed, args.seconds)
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    out.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    passes = {"measure": run_pass(root, out / "measure", plan, plan["children"], False, nproc, started)}
    if args.trace:
        same = plan["children"][: len(passes["measure"])]
        passes["traced"] = run_pass(root, out / "traced", plan, same, True, nproc, started, exact=True)
        if args.workload == "sweep-cold":
            child = {"ids": [SINGLE_THREAD_MODEL], "order_seed": None, "share": 0.0, "probes": []}
            passes["single_thread"] = run_pass(root, out / "single_thread", plan, [child], True, 1, started, exact=True)

    measured = end_to_end(passes["measure"])
    probes = [probe for p in passes.values() for probe in probes_of(p)]
    counts = tally([op for p in passes.values() for op in ops_of(p)], probes)
    mismatched = _digest_mismatches([p for name, p in passes.items() if name != "single_thread"])
    correct = counts["failed"] == 0 and not mismatched
    if args.trace:
        metrics = per_layer(passes["traced"], measured)
    else:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "plan": plan,
        "environment": environment(root, nproc, passes["measure"][0]["env"]),
        "end_to_end": measured,
        "tally": counts,
        "digest_mismatches": mismatched,
        "metrics": metrics,
        "passes": {name: [_slim(child) for child in p] for name, p in passes.items()},
        "elapsed_s": time.monotonic() - started,
    }
    if "single_thread" in passes:
        record["single_thread"] = single_thread_summary(passes)
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print_report(record, probes, out / "result.json")
    print(json.dumps({"correct": correct, "attempted": counts["attempted"], "failed": counts["failed"], "metrics": metrics}))
    return 0


def run_pass(
    root: Path, out: Path, plan: dict, children: list, trace: bool, threads: int, started: float, exact: bool = False
) -> list:
    """Run worker processes one at a time, each child of ``children`` in turn:
    all of them if ``exact``, else until the plan's minimum has run and the
    timed phases cover its seconds."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS=str(threads),
        PYTHONDONTWRITEBYTECODE="1",
    )
    results = []
    for index, child in enumerate(children):
        enough = index >= plan["min_children"] and sum(r["timed_s"] for r in results) >= plan["seconds"]
        if enough and not exact:
            break
        child_dir = out / f"child{index}"
        child_dir.mkdir()
        job = {"root": str(root), "configs": plan["configs"], "child": child, "trace": trace, "out_dir": str(child_dir)}
        job_path = child_dir / "job.json"
        job_path.write_text(json.dumps(job))
        result_path = child_dir / "result.json"
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        if remaining <= 0:
            raise RunFailed(f"run budget of {RUN_BUDGET_S:g} s spent before {out.name} child {index}")
        spawned = time.time()
        with open(child_dir / "log.txt", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RunFailed(f"worker exceeded the run budget; see {child_dir / 'log.txt'}") from None
        if code != 0 or not result_path.is_file():
            tail = (child_dir / "log.txt").read_text()[-2000:]
            raise RunFailed(f"worker exited with {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready_epoch"] - spawned
        result["threads"] = threads
        results.append(result)
    return results


def ops_of(results: list) -> list:
    return [op for child in results for op in child["ops"]]


def probes_of(results: list) -> list:
    return [probe for child in results for probe in child["probes"]]


def wall_s(results: list) -> float:
    """One pass over the workload's configs: the sum over configs of the
    median wall time of one operation on that config. Failed operations
    count too, so the figure exists whenever the run does; ``correct``
    already reports them."""
    return sum(per_config_medians([(op["config"], op["seconds"]) for op in ops_of(results)]).values())


def end_to_end(results: list) -> dict:
    """Every end-to-end figure of an untraced pass that applies to it."""
    ok = [op for op in ops_of(results) if op["status"] == "ok"]
    figures = {
        "setup_s": statistics.median(child["setup_s"] for child in results),
        "wall_s": wall_s(results),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in results),
    }
    solves = [(op["config"], s) for op in ok for s in op["solve_s"]]
    if solves:
        figures["solve_s"] = geometric_mean(per_config_medians(solves).values())
    site_steps = sum(op["detail"]["J"] * op["detail"]["steps"] for op in ok if op["transport_s"])
    transport_s = sum(sum(op["transport_s"]) for op in ok)
    if transport_s:
        figures["lattice_site_steps_per_s"] = site_steps / transport_s
    verifies = [op["seconds"] for op in ok if "passed_checks" in op["detail"]]
    if verifies:
        figures["verify_s"] = statistics.median(verifies)
    figures["fail_ratio"] = tally(ops_of(results), probes_of(results))["fail_ratio"]
    return figures


def per_layer(traced: list, untraced: dict) -> dict:
    """Per-layer metrics of the traced pass, with the tracing overhead."""
    spans: dict = {}
    layers: dict = {}
    counts: dict = {"trace.spans": 0}
    for child in traced:
        for name, row in child["layers"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        for key, value in child["counts"].items():
            counts[key] = counts.get(key, 0) + value
        counts["trace.spans"] += child["spans"]
    ops = ops_of(traced)
    counts["linearized.cache_hits"] = sum(op["cache_hits"] for op in ops)
    counts["linearized.cache_misses"] = sum(op["cache_misses"] for op in ops)
    counts["verify.failed_checks"] = sum(op["detail"].get("failed_checks", 0) for op in ops)
    counts["cli.nonzero_exits"] = sum(bool(op["detail"].get("exit_code")) for op in ops)
    counts["trace.ops_s"] = sum(op["seconds"] for op in ops)
    counts["trace.wall_s"] = wall_s(traced)
    counts["trace.untraced_wall_s"] = untraced["wall_s"]
    counts["trace.overhead_s"] = counts["trace.wall_s"] - untraced["wall_s"]
    metrics = {}
    for metric, (unit, source, key) in PER_LAYER.items():
        if source == "self":
            value = spans.get(key, {}).get("self_s", 0.0)
        elif source == "calls":
            value = spans.get(key, {}).get("calls", 0)
        elif source == "layer":
            value = layers.get(key, 0.0)
        else:
            value = counts.get(key, 0)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def single_thread_summary(passes: dict) -> dict:
    """The single-BLAS-thread sweep beside the same sweep at nproc threads."""
    def summary(results):
        ops = [op for op in ops_of(results) if op["config"] == SINGLE_THREAD_MODEL]
        layer = lambda key: sum(c["layers"].get(key, {}).get("self_s", 0.0) for c in results)
        return {
            "sweep_s": sum(op["seconds"] for op in ops),
            "even_matrix_s": layer("linearized.LinearizedOperator.even_matrix"),
            "sigma_min_s": layer("linearized.LinearizedOperator.smallest_singular_value"),
            "threads": results[0]["threads"],
        }

    return {
        "model": SINGLE_THREAD_MODEL,
        "single_thread": summary(passes["single_thread"]),
        "nproc_threads": summary([c for c in passes["traced"] if c["ops"][0]["config"] == SINGLE_THREAD_MODEL]),
    }


def _digest_mismatches(passes: list) -> list:
    """Config ids whose output digests differ between operations or processes."""
    seen: dict = {}
    for results in passes:
        for op in ops_of(results):
            digest = op["detail"].get("sha256") or op["detail"].get("w_sha256")
            if digest:
                seen.setdefault(op["config"], set()).add(digest)
    return sorted(cid for cid, digests in seen.items() if len(digests) > 1)


def _slim(child: dict) -> dict:
    return {key: value for key, value in child.items() if key != "env"}


def environment(root: Path, nproc: int, worker_env: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        **worker_env,
    }


def print_report(record: dict, probes: list, path: Path) -> None:
    env = record["environment"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={record['trace']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"blas={env['scipy_blas'].get('name')} {env['scipy_blas'].get('version')} "
        f"threads={env['blas_threads_env']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
    )
    units = {**END_TO_END, "solve_s": "s", "lattice_site_steps_per_s": "1/s", "verify_s": "s", "fail_ratio": "ratio"}
    for name, value in record["end_to_end"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    counts = record["tally"]
    print(f"  attempted {counts['attempted']}, failed {counts['failed']}, known defects {counts['known_defects']}")
    for probe in probes:
        print(f"  probe {probe['config']}: {probe['status']} ({probe['failure'] or 'no failure'})")
    for failure in counts["failures"]:
        print(f"  failure seen: {failure}")
    if record["digest_mismatches"]:
        print(f"  output digests differ for: {', '.join(record['digest_mismatches'])}")
    if record["trace"]:
        m = {k: v["value"] for k, v in record["metrics"].items()}
        ops_s = m["trace.ops_s"] or float("nan")
        build = m["linearized.even_matrix_s"] + m["linearized.sigma_min_s"]
        lattice = m["lattice.self_s"]
        print(f"  traced: build share {build / ops_s:.3f}, lattice share {lattice / ops_s:.3f}, "
              f"overhead {m['trace.overhead_s']:+.4f} s on wall_s {m['trace.untraced_wall_s']:.4f} s")
        for name, value in m.items():
            print(f"  {name:<36} {value:>14.6g} {record['metrics'][name]['unit']}")
    if "single_thread" in record:
        st = record["single_thread"]
        print(f"  single BLAS thread ({st['model']}): {st['single_thread']}; nproc threads: {st['nproc_threads']}")
    print(f"  results: {path}")


if __name__ == "__main__":
    sys.exit(main())
