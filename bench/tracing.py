"""Span tracing installed from outside the package.

A :class:`Tracer` replaces chosen public functions with timing wrappers at
every module attribute that refers to them, so callers that imported a name
(``from .nn import load_checkpoint``) and callers that look it up on a module
(``nn.gru_step``) are both traced. Spans are kept in memory; :meth:`remove`
puts the original functions back. Nothing is installed unless a traced run
asks for it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable

# Span record layout: [id, name, start, end, parent id, item id].
_ID, _NAME, _START, _END, _PARENT, _ITEM = range(6)

Hook = Callable[["Tracer", inspect.BoundArguments, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.item: object = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _quiet(self) -> bool:
        return getattr(self._local, "quiet", False)

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][_ID] if stack else -1
        record = [next(self._ids), name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[_END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the bench's own calls."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def untraced(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` with every wrapper passing straight through."""
        self._local.quiet = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.quiet = False

    # -- installing wrappers -----------------------------------------------

    def _wrapper(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._quiet():
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if hook is not None:
                hook(tracer, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _replace(self, owner: object, attr: str, original: object, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def wrap_function(
        self,
        package: str,
        name: str,
        fn: Callable,
        *,
        hook: Hook | None = None,
        wrapper: Callable | None = None,
    ) -> None:
        """Trace ``fn`` at every attribute of ``package``'s modules bound to it."""
        wrapper = wrapper or self._wrapper(name, fn, hook)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == package or module_name.startswith(package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, fn, wrapper)

    def wrap_method(
        self, cls: type, attr: str, name: str, *, hook: Hook | None = None
    ) -> None:
        original = cls.__dict__[attr]
        self._replace(cls, attr, original, self._wrapper(name, original, hook))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and inclusive seconds; per layer: self seconds.

        A span's self time is its duration minus its children's durations, and
        a layer (the part of the name before the first dot) gets the sum of
        its spans' self time.
        """
        by_id = {rec[_ID]: rec for rec in self.spans}
        child_time: dict[int, float] = collections.defaultdict(float)
        for rec in self.spans:
            if rec[_PARENT] in by_id:
                child_time[rec[_PARENT]] += rec[_END] - rec[_START]
        calls: collections.Counter = collections.Counter()
        seconds: dict[str, float] = collections.defaultdict(float)
        layer_self: dict[str, float] = collections.defaultdict(float)
        for rec in self.spans:
            duration = rec[_END] - rec[_START]
            calls[rec[_NAME]] += 1
            seconds[rec[_NAME]] += duration
            layer = rec[_NAME].split(".", 1)[0]
            layer_self[layer] += duration - child_time[rec[_ID]]
        return {"calls": calls, "seconds": seconds, "self": layer_self}

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": rec[_ID],
                            "name": rec[_NAME],
                            "start": rec[_START],
                            "end": rec[_END],
                            "parent": rec[_PARENT],
                            "item": rec[_ITEM],
                        }
                    )
                    + "\n"
                )
