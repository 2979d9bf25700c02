"""In-memory span recorder that instruments a package from outside at run time.

``instrument`` wraps the public functions and methods of the named modules.
Because ``from .x import f`` binds ``f`` early, every module namespace of the
package that bound the original object is rebound to the wrapper. A span is
(name, start, end, parent, ok); spans stay in memory until the caller writes
them out. Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Recorder:
    """Records spans while ``active``; when inactive a wrapper is one call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, start, end, parent, ok]
        self.counts: Counter = Counter()
        self.active = False
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        nid = self.name_id(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            spans, stack = recorder.spans, recorder._stack
            index = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, True]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = False
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def count_calls(self, key: str, fn):
        """Return ``fn`` wrapped to add 1 to ``counts[key]`` per call while active."""
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if recorder.active:
                recorder.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def named_spans(self):
        """(name, start, end, parent, ok) tuples."""
        return [(self.names[s[0]], s[1], s[2], s[3], s[4]) for s in self.spans]


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children.

    ``spans`` holds (name, start, end, parent, ...) with ``parent`` an index
    into ``spans`` or -1. Child intervals are clipped to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children[index]):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: call count, self seconds and inclusive seconds."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for span, own in zip(spans, selfs):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
    return dict(table)


def public_callables(module, skip_classes=()):
    """(qualified name, owner, attribute, object) for the public functions,
    cached functions and class methods that ``module`` defines, leaving out
    the methods of classes named in ``skip_classes``."""
    short = module.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            if obj.__name__ in skip_classes:
                continue
            for method, member in vars(obj).items():
                if method.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, staticmethod):
                    found.append((f"{short}.{obj.__name__}.{method}", obj, method, member))
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            found.append((f"{short}.{attr}", module, attr, obj))
    return found


def instrument(recorder: Recorder, package: str, modules, only=None, skip_classes=()) -> int:
    """Wrap the public callables of ``package.<m>`` for each m in ``modules``.

    ``only``, if given, is the set of span names to wrap; methods of classes
    named in ``skip_classes`` stay unwrapped. Returns the number
    of bindings replaced. Module-level functions are rebound in every module
    of the package (and the package itself) that bound the same object;
    methods are replaced on their class.
    """
    replacements = {}
    rebound = 0
    for short in modules:
        module = sys.modules[f"{package}.{short}"]
        for name, owner, attr, obj in public_callables(module, skip_classes):
            if only is not None and name not in only:
                continue
            if inspect.isclass(owner):
                if isinstance(obj, staticmethod):
                    setattr(owner, attr, staticmethod(recorder.wrap(name, obj.__func__)))
                else:
                    setattr(owner, attr, recorder.wrap(name, obj))
                rebound += 1
            else:
                replacements[id(obj)] = (obj, recorder.wrap(name, obj))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound += 1
    return rebound
