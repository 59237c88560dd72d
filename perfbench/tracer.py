"""Run-time layer tracer for the benchmark.

The tracer wraps public entry points of the program's layers while it is
installed and records one span per call: ``(id, name, start, end, parent,
thread, self_s, amount)``. Spans live in memory and are written out when
the run ends. Nesting is tracked per thread, so fleet worker threads get
their own span trees; a span's self time is its duration minus the
duration of its direct children on the same thread. Nothing under
``src/`` is changed: :meth:`LayerTracer.install` swaps attributes at run
time and :meth:`LayerTracer.uninstall` puts the originals back, so
untraced passes run the program unmodified.

A call whose nearest enclosing span has the same name (a subclass
calling ``super()``, ``append_many`` calling ``append``) is not counted
again; its time still nests normally.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter

Amount = Optional[Callable[[tuple, dict], float]]


class _Frame:
    __slots__ = ("id", "name", "start", "child_s")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Records layer spans from wrapped entry points (see module doc)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        #: (id, name, start, end, parent_id, thread_ident, self_s, amount, counted)
        self.spans: List[Tuple] = []
        self._targets: List[Tuple[Any, str, str, Amount, Amount]] = []
        self._restore: List[Callable[[], None]] = []

    # -- registration ---------------------------------------------------

    def method(self, cls: type, attr: str, name: str,
               rows: Amount = None, size: Amount = None) -> None:
        """Trace ``cls.attr`` (a plain function in the class body)."""
        self._targets.append((cls, attr, name, rows, size))

    def function(self, module: Any, attr: str, name: str,
                 rows: Amount = None) -> None:
        """Trace a module-level function wherever ``repro`` imported it."""
        self._targets.append((module, attr, name, rows, None))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, rows, size in self._targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, rows, size))
                self._restore.append(
                    lambda o=owner, a=attr, f=original: setattr(o, a, f)
                )
            else:
                self._install_function(getattr(owner, attr), name, rows)

    def _install_function(self, original: Callable, name: str, rows: Amount) -> None:
        wrapper = self._wrap(original, name, rows, None)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(
                        lambda m=module, a=attr, f=original: setattr(m, a, f)
                    )
        # Default arguments bound at definition time (e.g. the fleet
        # service's ``execute=execute_run``) do not see module patches.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for value in list(vars(module).values()):
                if isinstance(value, type):
                    init = value.__dict__.get("__init__")
                    defaults = getattr(init, "__defaults__", None)
                    if defaults and any(d is original for d in defaults):
                        patched = tuple(
                            wrapper if d is original else d for d in defaults
                        )
                        init.__defaults__ = patched
                        self._restore.append(
                            lambda fn=init, d=defaults: setattr(fn, "__defaults__", d)
                        )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, rows: Amount, size: Amount) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            outermost = parent is None or parent.name != name
            before = size(args, kwargs) if (size is not None and outermost) else 0.0
            frame = _Frame(next(tracer._ids), name, perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_s += duration
                amount = 0.0
                if outermost:
                    if rows is not None:
                        amount = float(rows(args, kwargs))
                    elif size is not None:
                        amount = float(size(args, kwargs)) - before
                tracer.spans.append((
                    frame.id, name, frame.start, end,
                    parent.id if parent is not None else -1,
                    threading.get_ident(), duration - frame.child_s,
                    amount, outermost,
                ))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- queries ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every recorded span as gzipped JSON lines."""
        fields = ("id", "name", "start", "end", "parent", "thread",
                  "self_s", "amount", "counted")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def summarize(spans: Sequence[Tuple]) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls`` (counted spans), ``self_s`` and ``amount`` totals."""
    out: Dict[str, Dict[str, float]] = {}
    for _id, name, _start, _end, _parent, _thread, self_s, amount, counted in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "amount": 0.0})
        entry["calls"] += int(counted)
        entry["self_s"] += self_s
        entry["amount"] += amount
    return out


def covered_seconds(spans: Sequence[Tuple], windows: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of span intervals, clipped to ``windows``."""
    intervals = sorted((s[2], s[3]) for s in spans)
    total = 0.0
    for lo, hi in windows:
        cursor = lo
        for start, end in intervals:
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                total += end - start
                cursor = end
    return total
