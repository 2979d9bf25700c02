"""Failure accounting for benchmark operations and the statistics over them.

An operation is a timed call into the program followed by untimed gate
checks. Any exception, nonzero exit code or failed gate marks the operation
failed with a reason; it never aborts the run. A known-defect probe is an
operation expected to fail with one exception type: failing that way is
recorded as ``known_defect``, passing as ``fixed`` (the defect is gone), and
anything else as a plain failure.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter


def run_op(config_id: str, call, check, expect: str | None = None) -> dict:
    """Time ``call()``, then gate its output with ``check(output)``.

    ``check`` returns (failed gate names, detail dict). A nonzero integer
    exit code in ``detail["exit_code"]`` fails the operation too.
    """
    record = {"config": config_id, "seconds": None, "failure": None, "detail": {}}
    start = perf_counter()
    try:
        output = call()
    except Exception as exc:  # the run must go on; record what broke
        record["seconds"] = perf_counter() - start
        record["failure"] = f"exception:{type(exc).__name__}"
        record["detail"] = {"message": str(exc)[:300]}
    else:
        record["seconds"] = perf_counter() - start
        try:
            failed_gates, detail = check(output)
        except Exception as exc:  # a gate that crashes on the output fails it
            failed_gates, detail = ["check-crashed"], {"message": f"{type(exc).__name__}: {exc}"}
        record["detail"] = detail
        exit_code = detail.get("exit_code")
        if exit_code:
            record["failure"] = f"exit:{exit_code}"
        elif failed_gates:
            record["failure"] = "gate:" + ",".join(failed_gates)
    record["status"] = _status(record["failure"], expect)
    return record


def _status(failure: str | None, expect: str | None) -> str:
    if expect is None:
        return "ok" if failure is None else "failed"
    if failure is None:
        return "fixed"
    return "known_defect" if failure == f"exception:{expect}" else "failed"


def tally(ops: list, probes: list) -> dict:
    """Counts for the result line and for ``fail_ratio``.

    ``attempted``/``failed`` cover the workload's operations plus probes that
    did not fail as documented; ``fail_ratio`` counts every operation that did
    not succeed, known defects included, over every operation run.
    """
    failed = sum(op["status"] == "failed" for op in ops)
    failed += sum(p["status"] == "failed" for p in probes)
    attempted = len(ops) + sum(p["status"] != "known_defect" for p in probes)
    every = ops + probes
    not_ok = sum(op["failure"] is not None for op in every)
    return {
        "attempted": attempted,
        "failed": failed,
        "known_defects": sum(p["status"] == "known_defect" for p in probes),
        "fail_ratio": not_ok / len(every) if every else 0.0,
        "failures": sorted({op["failure"] for op in every if op["failure"]}),
    }


def per_config_medians(samples: list[tuple[str, float]]) -> dict:
    """Median value per config id from (config id, value) pairs."""
    grouped: dict = {}
    for config_id, value in samples:
        grouped.setdefault(config_id, []).append(value)
    return {cid: statistics.median(values) for cid, values in grouped.items()}


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
