"""In-memory spans around calls into the program, and their self time.

A :class:`Tracer` keeps every span in a list with its parent (the span
open on the same thread when it began). Wrappers are installed by
rebinding a name where the program looks it up — a module global or a
class attribute — and :class:`Patches` puts every original back.
Nothing here touches the program's own tracing (``repro.obs``).
"""

from __future__ import annotations

import functools
import importlib.abc
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "info", "label")

    def __init__(self, name: str, start: float, parent: Optional[int], thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        #: numeric facts the wrapped call reported (summed per op)
        self.info: Dict[str, float] = {}
        #: which op the span belongs to, when the op is not the process
        self.label = ""

    def to_plain(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "info": self.info,
            "label": self.label,
        }


class Tracer:
    """Spans of one process, on the shared ``time.monotonic`` clock."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name, time.monotonic(), stack[-1] if stack else None,
            threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    def to_plain(self) -> List[dict]:
        return [span.to_plain() for span in self.spans]


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span run on the span's own thread, one after
    another; they are still merged as intervals (and clipped to the
    parent) so the result never goes negative.
    """
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = []
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(0.0, end - start - covered))
    return result


#: marks a class attribute that was inherited, not defined on the class
_INHERITED = object()


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs a callback on a module right after its first import.

    Lets wrappers go onto modules the program imports lazily without
    importing them early, which would move their import cost out of
    the layer that pays it.
    """

    def __init__(self) -> None:
        self.pending: Dict[str, Callable] = {}

    def find_spec(self, name, path, target=None):
        callback = self.pending.pop(name, None)
        if callback is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_then_wrap(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = exec_then_wrap
        return spec


class Patches:
    """Rebinds names to span-recording wrappers and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[tuple] = []
        self._after_import: Optional[_AfterImport] = None

    def when_imported(self, module_name: str, install: Callable) -> None:
        """Call ``install(module)`` now if imported, else right after import."""
        module = sys.modules.get(module_name)
        if module is not None:
            install(module)
            return
        if self._after_import is None:
            self._after_import = _AfterImport()
            sys.meta_path.insert(0, self._after_import)
        self._after_import.pending[module_name] = install

    def _rebind(self, owner, attr: str, replacement) -> None:
        original = vars(owner).get(attr, _INHERITED)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_return: Optional[Callable[[Span, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        fn = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.end(index)
            if on_return is not None:
                on_return(span, result)
            return result

        self._rebind(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """A span around each resumption of the generator ``owner.attr`` returns.

        Time the consumer spends between items belongs to the consumer,
        not to the generator's layer.
        """
        fn = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(index)
                    yield item
            finally:
                index = tracer.begin(name)
                try:
                    inner.close()
                finally:
                    tracer.end(index)

        self._rebind(owner, attr, wrapper)

    def replace(self, owner, attr: str, replacement) -> None:
        self._rebind(owner, attr, replacement)

    def restore(self) -> None:
        if self._after_import is not None:
            sys.meta_path.remove(self._after_import)
            self._after_import = None
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
