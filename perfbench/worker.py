"""One fresh benchmark process: set up, run timed rounds, gate every output.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the checkout root, the configs, this process's schedule and
whether to trace. The worker imports the package from ``<root>/src``,
constructs configs and grids (and, for API workloads, the operators), stamps
the end of set-up, repeats rounds for its share of the run, runs its
known-defect probes, and writes its result file.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

from ops import run_op
from tracing import Recorder, instrument, summarize

LAYERS = ("grid", "operators", "model", "linearized", "solver", "lattice", "verify", "cli")
# Value classes whose methods run per element or per lattice step (force
# laws, sample arithmetic). Wrapping them would cost more than the work and
# move the lattice's force evaluations into the model layer, so their time
# counts in the calling span.
VALUE_CLASSES = ("ChainModel", "PsiFamily", "GridFunction", "SpectralGrid", "Spectrum", "LatticeState")
# spans kept in untraced runs: one per solve or transport call, so the
# end-to-end solve_s and lattice_site_steps_per_s cost nothing measurable
TIMERS = {"solver.solve_wave", "lattice.run_transport"}
VERIFY_CHECKS = 20


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"]).resolve()
    import chainwaves
    from chainwaves import cli, linearized

    source = Path(chainwaves.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"chainwaves imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 3
    recorder = Recorder()
    cache = linearized.linearized_operator  # keep the cache_info handle before wrapping
    if job["trace"]:
        instrument(recorder, "chainwaves", LAYERS, skip_classes=VALUE_CLASSES)
        _count_hooks(recorder, chainwaves)
    else:
        instrument(recorder, "chainwaves", LAYERS, only=TIMERS)
    bench = Bench(job, recorder, cache, cli)
    recorder.active = job["trace"]
    bench.setup()
    recorder.active = False
    setup_spans = recorder.named_spans()
    recorder.clear()
    ready = time.time()
    bench.run_rounds()
    probes = [bench.run(probe["id"], probe, probe["expect"]) for probe in job["child"]["probes"]]
    timed_spans = recorder.named_spans()
    result = {
        "ready_epoch": ready,
        "ops": bench.ops,
        "probes": probes,
        "rounds": bench.rounds,
        "timed_s": bench.timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if job["trace"]:
        result["setup_layers"] = summarize(setup_spans)
        result["layers"] = summarize(timed_spans)
        result["counts"] = dict(recorder.counts)
        result["spans"] = len(timed_spans)
        spans_path = Path(result_path).with_suffix(".spans.json")
        spans_path.write_text(json.dumps({"setup": setup_spans, "timed": timed_spans}))
    Path(result_path).write_text(json.dumps(result))
    return 0


def _count_hooks(recorder: Recorder, chainwaves) -> None:
    """Counters the span wrappers cannot give: GridFunction constructions
    (each runs the parity-hint check) and bytes of dense L_eps matrices built."""
    grid_function = chainwaves.grid.GridFunction
    grid_function.__post_init__ = recorder.count_calls(
        "grid.gridfunction_new", grid_function.__post_init__
    )
    assembled = vars(chainwaves.linearized.LinearizedOperator)["_assembled"]
    build = assembled.func

    def counted_build(operator):
        out = build(operator)
        if recorder.active:
            recorder.counts["linearized.matrix_builds"] += 1
            recorder.counts["linearized.matrix_bytes"] += out[0].nbytes
        return out

    assembled.func = counted_build


class Bench:
    """The operations of one workload, bound to this process's package."""

    def __init__(self, job: dict, recorder: Recorder, cache, cli) -> None:
        self.job = job
        self.recorder = recorder
        self.cache = cache
        self.cli = cli
        self.dir = Path(job["out_dir"])
        self.ops: list = []
        self.rounds = 0
        self.timed_s = 0.0
        self.parsed: dict = {}
        self.digests: dict = {}
        self.paths: dict = {}

    def setup(self) -> None:
        """Config files, parsed configs and grids; operators for API workloads."""
        from chainwaves import linearized_operator

        specs = dict(self.job["configs"])
        specs.update({p["id"]: p for p in self.job["child"]["probes"]})
        for cid, spec in specs.items():
            path = self.dir / f"{cid}.json"
            path.write_text(json.dumps(spec["config"]))
            self.paths[cid] = path
            self.parsed[cid] = self.cli.load_config(str(path))
            if spec["kind"] == "resolve":
                rc = self.parsed[cid]
                linearized_operator(rc.model, rc.grid, rc.epsilon).smallest_singular_value()

    def run_rounds(self) -> None:
        child = self.job["child"]
        order_rng = random.Random(child["order_seed"])
        start = time.perf_counter()
        while True:
            ids = list(child["ids"])
            if child["order_seed"] is not None:
                order_rng.shuffle(ids)
            for cid in ids:
                self.ops.append(self.run(cid, self.job["configs"][cid]))
            self.rounds += 1
            if time.perf_counter() - start >= child["share"]:
                break
        self.timed_s = time.perf_counter() - start

    def run(self, cid: str, spec: dict, expect: str | None = None) -> dict:
        """One operation: the program call is timed (and traced), gates are not."""
        first_span = len(self.recorder.spans)
        kind = spec["kind"]
        call = getattr(self, f"_call_{kind}")
        check = getattr(self, f"_check_{kind}")
        cache = [self.cache.cache_info()]

        def timed():
            self.recorder.active = expect is None
            try:
                return call(cid)
            finally:
                self.recorder.active = False
                cache.append(self.cache.cache_info())

        record = run_op(cid, timed, lambda out: check(cid, out), expect)
        record["cache_hits"] = cache[1].hits - cache[0].hits
        record["cache_misses"] = cache[1].misses - cache[0].misses
        spans = self.recorder.spans[first_span:]
        names = self.recorder.names
        record["solve_s"] = [
            s[2] - s[1] for s in spans if names[s[0]] == "solver.solve_wave" and s[4]
        ]
        record["transport_s"] = [
            s[2] - s[1] for s in spans if names[s[0]] == "lattice.run_transport" and s[4]
        ]
        return record

    def _cli(self, argv: list) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def _report(self, cid: str, suffix: str = "") -> Path:
        return self.dir / f"{cid}{suffix}.csv"

    # sweep-cold -----------------------------------------------------------

    def _call_sweep(self, cid: str):
        return self._cli(["sweep", "--config", str(self.paths[cid]), "--output", str(self._report(cid)), "--quiet"])

    def _check_sweep(self, cid: str, out) -> tuple[list, dict]:
        code, _ = out
        detail = {"exit_code": code}
        if code:
            return [], detail
        data = self._report(cid).read_bytes()
        rows = _csv_rows(data.decode())
        failed = []
        for index, row in enumerate(rows):
            if row["l2_error"].startswith("error:"):
                failed.append("C7-row-failed")
                continue
            ok = int(row["iterations"]) <= 50 and float(row["tw_residual"]) <= 1e-9
            if index > 0:
                ok &= abs(float(row["order_l2"]) - 2.0) <= 0.3
            if not ok:
                failed.append("C7")
        # C12: the same sweep again in this process writes identical bytes
        code2, _ = self._cli(["sweep", "--config", str(self.paths[cid]), "--output", str(self._report(cid, "-again")), "--quiet"])
        if code2 or self._report(cid, "-again").read_bytes() != data:
            failed.append("C12")
        detail.update(rows=len(rows), sha256=hashlib.sha256(data).hexdigest())
        return sorted(set(failed)), detail

    # resolve-warm ----------------------------------------------------------

    def _call_resolve(self, cid: str):
        from chainwaves import eigen_identity_check, solve_wave

        rc = self.parsed[cid]
        solution = solve_wave(rc.model, rc.grid, rc.solve_config(rc.epsilon))
        return solution, eigen_identity_check(solution)

    def _check_resolve(self, cid: str, out) -> tuple[list, dict]:
        solution, eigen_residual = out
        digest = hashlib.sha256(solution.w.values.tobytes()).hexdigest()
        failed = []
        if not eigen_residual <= 1e-6:
            failed.append("C9")
        if self.digests.setdefault(cid, digest) != digest:
            failed.append("w-bitwise")
        detail = {
            "iterations": solution.diagnostics.iterations,
            "eigen_residual": eigen_residual,
            "w_sha256": digest,
        }
        return failed, detail

    # transport -------------------------------------------------------------

    def _call_simulate(self, cid: str):
        return self._cli(["simulate", "--config", str(self.paths[cid]), "--output", str(self._report(cid)), "--quiet"])

    def _check_simulate(self, cid: str, out) -> tuple[list, dict]:
        code, _ = out
        detail: dict = {"exit_code": code}
        if code:
            return [], detail
        (row,) = _csv_rows(self._report(cid).read_text())
        failed = []
        if not (
            float(row["transport_error"]) <= 0.02
            and float(row["energy_drift"]) <= 1e-6
            and float(row["momentum_drift"]) <= 1e-12
        ):
            failed.append("C10")
        if int(row["J"]) != self.parsed[cid].sim.particles:
            failed.append("chain-length")
        detail.update(J=int(row["J"]), steps=int(row["steps"]), transport_error=float(row["transport_error"]))
        return failed, detail

    # verify ----------------------------------------------------------------

    def _call_verify(self, cid: str):
        return self._cli(["verify", "--config", str(self.paths[cid]), "--quiet"])

    def _check_verify(self, cid: str, out) -> tuple[list, dict]:
        code, text = out
        lines = text.splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        failed_checks = sum(line.startswith("[FAIL]") for line in lines)
        detail = {"exit_code": code, "passed_checks": passed, "failed_checks": failed_checks}
        return ([] if passed == VERIFY_CHECKS and not failed_checks else ["verify-20"]), detail


def _csv_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def environment() -> dict:
    """Interpreter, library and BLAS versions as loaded in this process."""
    import numpy
    import scipy

    def blas(module) -> dict:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # older show_config has no dict mode
            return {}
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads() -> list:
    """Thread counts reported by each OpenBLAS library mapped in this process."""
    counts = []
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return counts
    libraries = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line and line.endswith(".so")})
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append({"library": Path(path).name, "threads": fn()})
                break
    return counts


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
