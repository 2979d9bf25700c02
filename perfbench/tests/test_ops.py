"""Failure accounting: failing operations are counted, typed and never abort.

Run from the checkout root: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ops import geometric_mean, per_config_medians, run_op, tally  # noqa: E402


def passing_check(output):
    return [], {"exit_code": 0, "value": output}


def test_injected_failures_are_counted_by_kind_and_the_run_goes_on():
    def raises():
        raise ZeroDivisionError("injected")

    schedule = [
        ("good", lambda: 1, passing_check),
        ("raises", raises, passing_check),
        ("exit", lambda: 3, lambda code: ([], {"exit_code": code})),
        ("gate", lambda: 0.5, lambda x: (["C9"] if x > 1e-6 else [], {})),
        ("good", lambda: 2, passing_check),
    ]
    ops = [run_op(cid, call, check) for cid, call, check in schedule]
    assert [op["status"] for op in ops] == ["ok", "failed", "failed", "failed", "ok"]
    assert ops[1]["failure"] == "exception:ZeroDivisionError"
    assert ops[1]["detail"]["message"] == "injected"
    assert ops[2]["failure"] == "exit:3"
    assert ops[3]["failure"] == "gate:C9"
    assert all(op["seconds"] >= 0 for op in ops)
    counts = tally(ops, [])
    assert counts["attempted"] == 5 and counts["failed"] == 3
    assert counts["fail_ratio"] == 3 / 5


def test_a_crashing_gate_fails_the_operation():
    op = run_op("x", lambda: None, lambda out: out["missing"])
    assert op["failure"] == "gate:check-crashed" and op["status"] == "failed"


def test_known_defect_probes():
    def stalls():
        raise RuntimeError("stalled")

    known = run_op("p", stalls, passing_check, expect="RuntimeError")
    other = run_op("p", lambda: 1 / 0, passing_check, expect="RuntimeError")
    fixed = run_op("p", lambda: 1, passing_check, expect="RuntimeError")
    assert [known["status"], other["status"], fixed["status"]] == ["known_defect", "failed", "fixed"]
    ok = run_op("a", lambda: 1, passing_check)
    counts = tally([ok], [known])
    # a documented defect is not a new failure, but fail_ratio shows it
    assert (counts["attempted"], counts["failed"], counts["known_defects"]) == (1, 0, 1)
    assert counts["fail_ratio"] == 0.5
    counts = tally([ok], [other, fixed])
    assert (counts["attempted"], counts["failed"]) == (3, 1)


def test_statistics_helpers():
    medians = per_config_medians([("a", 3.0), ("a", 1.0), ("a", 2.0), ("b", 4.0)])
    assert medians == {"a": 2.0, "b": 4.0}
    assert abs(geometric_mean([2.0, 8.0]) - 4.0) < 1e-12
