"""In-memory span tracing by wrapping public functions from outside the program.

A :class:`Tracer` replaces named functions and methods of the ``repro``
package with thin wrappers that record one span per call — name, start,
end and the index of the enclosing span — into a plain list.  Nothing
under ``src/`` changes: the wrappers are installed by attribute
assignment and :meth:`Tracer.restore` puts every original object back,
so a traced repetition cannot leak instrumentation into an untraced one.

Spans are recorded only while :attr:`Tracer.active` is true; the
benchmark switches it on around the work it measures (and off around
its own load generator).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "resolve", "self_times", "span_records"]

#: One recorded call: (name, start_s, end_s, parent index or -1).
Span = Tuple[str, float, float, int]


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> ``(owner, attribute, raw object)``.

    The raw object is taken from the owner's ``__dict__`` for classes, so
    ``classmethod``/``staticmethod`` descriptors come back unwrapped and can
    be restored exactly.
    """
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the part its children cover.

    Children are spans whose parent index points at the span.  Their
    intervals are merged before subtraction, so overlapping or
    out-of-order children are never counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: List[float] = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.active = False
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span by hand (e.g. the benchmark's own root span)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {name!r} closed out of order")

    def _wrap(
        self,
        name: str,
        func: Callable,
        before: Optional[Callable[..., None]],
        after: Optional[Callable[..., None]],
    ) -> Callable:
        tracer = self
        materialize = inspect.isgeneratorfunction(func)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = tracer.open(name)
            try:
                result = func(*args, **kwargs)
                if materialize:
                    # A generator's work happens while it is consumed: drain
                    # it inside the span and hand back an iterator.
                    result = iter(list(result))
            finally:
                tracer.close(index)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(
        self,
        name: str,
        target: str,
        *,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``target`` (``"module:qualname"``) under the span ``name``.

        ``before(args, kwargs)`` runs ahead of each traced call and
        ``after(args, kwargs, result)`` after it, both outside the span;
        they let the caller count bytes or capture receivers.  A
        module-level function is also replaced in every loaded ``repro``
        module that imported it by name, so ``from x import f`` call sites
        are traced too.
        """
        owner, attr, raw = resolve(target)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__, before, after))
            self._patch(owner, attr, wrapped)
            return
        wrapped = self._wrap(name, raw, before, after)
        self._patch(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, wrapped)

    def replace(self, target: str, value: Any) -> None:
        """Swap ``target`` for ``value`` until :meth:`restore` (no span)."""
        owner, attr, _raw = resolve(target)
        self._patch(owner, attr, value)

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- summaries ---------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over every recorded span."""
        selfs = self_times(self.spans)
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent), own in zip(self.spans, selfs):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += own
        return out


def span_records(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """JSON-ready span list (for writing a trace out when a run ends)."""
    return [
        {"name": name, "start": start, "end": end, "parent": parent}
        for name, start, end, parent in spans
    ]
