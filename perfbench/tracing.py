"""In-memory span tracer that wraps the program's public entry points.

Nothing in ``src/repro`` knows about this module: :class:`Tracer` replaces a
function or method with a wrapper that records one span per call and puts
the original back on :meth:`Tracer.restore`.  A span has a name, a start, an
end, a parent (the enclosing span on the same thread) and free-form
attributes; self time is a span's duration minus the part its children on
the same thread cover.  Spans stay in memory until the run writes them out as
Chrome trace-event JSON (it opens in Perfetto) and a per-layer table.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Layer of a span is the part of its name before the first dot.
LAYERS = (
    "graphs", "dynamics", "core", "scenarios", "execution",
    "api", "checks", "service", "distributed",
)

#: Root spans opened by the benchmark itself; their self time is the part of
#: a timed unit no instrumented entry point accounts for.
ROOT_LAYER = "bench"


@dataclass(slots=True)
class Span:
    name: str
    tid: int
    start: int
    end: int = 0
    parent: int = -1
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


Annotate = Callable[[Span, tuple, dict, Any], None]


class Patches:
    """Replaces functions and methods of ``repro`` and puts the originals back."""

    def __init__(self):
        self._saved: List[tuple] = []

    def function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` by ``make(original)`` wherever it is bound.

        Modules that did ``from module import attr`` hold their own reference,
        so each loaded ``repro`` module whose attribute *is* the original is
        patched too.
        """
        original = getattr(sys.modules[module], attr)
        replacement = make(original)
        for module_name, loaded in list(sys.modules.items()):
            if not module_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._saved.append((loaded, key, value))
                    setattr(loaded, key, replacement)

    def method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a method (plain, class- or static method) defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Put every original back (in reverse patch order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Collects spans from every thread; patches and restores entry points."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.patches = Patches()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), time.perf_counter_ns(),
                    parent=stack[-1] if stack else -1, attrs=attrs)
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str, annotate: Optional[Annotate] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str,
                       annotate: Optional[Annotate] = None) -> None:
        self.patches.function(module, attr, lambda fn: self.wrap(fn, name, annotate))

    def patch_method(self, cls: type, attr: str, name: str,
                     annotate: Optional[Annotate] = None) -> None:
        self.patches.method(cls, attr, lambda fn: self.wrap(fn, name, annotate))

    def restore(self) -> None:
        self.patches.restore()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> List[int]:
        """Per-span self time in ns (duration minus direct children)."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost calls), self seconds.

        Inclusive time counts only calls with no same-name ancestor, so a
        recursive or re-entrant entry point is not counted twice.
        """
        own = self.self_times()
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[index] / 1e9
            if not self._has_ancestor(index, span.name):
                row["inclusive_s"] += (span.end - span.start) / 1e9
        return table

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and span count per layer (plus the benchmark's roots)."""
        own = self.self_times()
        table = {layer: {"self_s": 0.0, "spans": 0} for layer in LAYERS + (ROOT_LAYER,)}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.layer, {"self_s": 0.0, "spans": 0})
            row["self_s"] += own[index] / 1e9
            row["spans"] += 1
        return table

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event document ("X" complete events, microseconds)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(span.start for span in self.spans)
        tids: Dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {key: value for key, value in span.attrs.items()
                         if isinstance(value, (int, float, str, bool))},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
