"""Self-time arithmetic and run-time instrumentation of the span recorder.

Run from the checkout root: python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Recorder, instrument, self_times, summarize  # noqa: E402


def span(name, start, end, parent=-1):
    return (name, start, end, parent, True)


def test_leaf_self_time_is_its_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_sequential_children_are_subtracted():
    spans = [span("p", 0.0, 10.0), span("c1", 1.0, 3.0, 0), span("c2", 4.0, 8.0, 0)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])


def test_overlapping_children_count_once():
    spans = [span("p", 0.0, 10.0), span("c1", 1.0, 5.0, 0), span("c2", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    spans = [span("p", 2.0, 6.0), span("c", 0.0, 3.0, 0), span("d", 5.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_grandchildren_only_reduce_their_own_parent():
    spans = [span("p", 0.0, 10.0), span("c", 2.0, 8.0, 0), span("g", 3.0, 5.0, 1)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_summarize_adds_self_time_per_name():
    spans = [span("p", 0.0, 4.0), span("c", 1.0, 2.0, 0), span("c", 2.5, 3.0, 0)]
    table = summarize(spans)
    assert table["c"]["calls"] == 2
    assert table["c"]["self_s"] == pytest.approx(1.5)
    assert table["p"]["self_s"] == pytest.approx(2.5)
    assert table["p"]["total_s"] == pytest.approx(4.0)


@pytest.fixture
def fake_package():
    """pkg.inner defines work(); pkg.outer binds it early via from-import."""
    pkg = types.ModuleType("pkg")
    inner = types.ModuleType("pkg.inner")
    exec(
        "def work(x):\n    return x + 1\n"
        "class Box:\n    def twice(self, x):\n        return 2 * work(x)\n"
        "def _private():\n    return 0\n",
        inner.__dict__,
    )
    outer = types.ModuleType("pkg.outer")
    outer.work = inner.work
    exec("def run(x):\n    return work(x)\n", outer.__dict__)
    pkg.work = inner.work
    modules = {"pkg": pkg, "pkg.inner": inner, "pkg.outer": outer}
    saved = {name: sys.modules.get(name) for name in modules}
    sys.modules.update(modules)
    yield pkg, inner, outer
    for name, module in saved.items():
        if module is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module


def test_instrument_rebinds_early_bound_names(fake_package):
    pkg, inner, outer = fake_package
    recorder = Recorder()
    instrument(recorder, "pkg", ["inner"])
    recorder.active = True
    assert outer.run(1) == 2
    assert inner.Box().twice(1) == 4
    names = [s[0] for s in recorder.named_spans()]
    assert names == ["inner.work", "inner.Box.twice", "inner.work"]
    assert pkg.work is outer.work is inner.work
    assert inner._private() == 0 and len(recorder.spans) == 3


def test_inactive_recorder_records_nothing_and_failures_are_marked(fake_package):
    _, inner, _ = fake_package
    recorder = Recorder()
    instrument(recorder, "pkg", ["inner"])
    inner.work(1)
    assert recorder.spans == []
    recorder.active = True
    with pytest.raises(TypeError):
        inner.work("x")
    assert recorder.named_spans()[0][4] is False


def test_skipped_classes_keep_their_methods(fake_package):
    _, inner, _ = fake_package
    recorder = Recorder()
    instrument(recorder, "pkg", ["inner"], skip_classes=("Box",))
    recorder.active = True
    inner.Box().twice(1)
    assert [s[0] for s in recorder.named_spans()] == ["inner.work"]
