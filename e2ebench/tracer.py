"""A span tracer that works from outside the program under test.

For the traced run only, :class:`Tracer` replaces each target function
with a wrapper that records one span per call.  Callers import these
functions by name, so every reference to the same function object in
the loaded ``repro`` modules is replaced, and all of them are restored
on exit.

* A span records its name, start, end, parent span and request id.
* A call made while the same function is already open further up the
  stack (recursion, re-entry) folds into that outermost span.
* Self time is a span's duration minus the time its child spans cover.
* Spans are kept in memory, in flat arrays, and written out on demand.

Generator functions get a generator wrapper whose span stays open until
the generator is exhausted or closed; that is exact for callers that
drain it at once, as ``list(...)`` does.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module

#: Name of the span that covers one whole request.
ROOT = "bench.request"

#: Attributes of memoised functions that callers reach through the
#: module-level name (``cache_clear`` in particular).
_FORWARDED = ("cache_info", "cache_clear", "cache_parameters")


@dataclass(frozen=True)
class Target:
    """One function to wrap: the span name, where the function lives
    (``qualname`` may be ``Class.method``), and an optional hook that
    reads counts from each returned object into a dict."""

    name: str
    module: str
    qualname: str
    hook: Callable[[object, dict], None] | None = None


class Tracer:
    """Context manager that installs span-recording wrappers on entry
    and restores every patched reference on exit."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = list(targets)
        self.names = [ROOT] + [target.name for target in self.targets]
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for index, target in enumerate(self.targets, start=1):
                owner, attr = self._resolve(target)
                original = vars(owner)[attr]
                wrapper = self._wrap(index, original, target.hook)
                for holder, name in self._references(original, owner, attr):
                    self._patched.append((holder, name, original))
                    setattr(holder, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every replaced reference back (idempotent)."""
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    def _resolve(self, target: Target) -> tuple[object, str]:
        owner = import_module(target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def _references(self, original, owner, attr):
        """Where *original* is reachable by name: its own slot, plus every
        module-level alias in the loaded ``repro`` modules."""
        found = [(owner, attr)]
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or
                                      module_name.startswith("repro.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original and (module, name) != (owner, attr):
                    found.append((module, name))
        return found

    def _wrap(self, index: int, fn, hook):
        active = [False]
        open_span, close_span, counts = self._open, self._close, self.counts

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if active[0]:
                    return (yield from fn(*args, **kwargs))
                active[0] = True
                span = open_span(index)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    close_span(span)
                    active[0] = False
        else:
            def wrapper(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                active[0] = True
                span = open_span(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(span)
                    active[0] = False
                if hook is not None:
                    hook(result, counts)
                return result
        functools.update_wrapper(wrapper, fn)
        for name in _FORWARDED:
            if hasattr(fn, name):
                setattr(wrapper, name, getattr(fn, name))
        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        span = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        if self._stack[-1] == span:
            self._stack.pop()
        else:
            self._stack.remove(span)

    @contextmanager
    def request(self, request_id: int):
        """Open the root span of request *request_id*."""
        self._request = request_id
        span = self._open(0)
        try:
            yield
        finally:
            self._close(span)
            self._request = -1

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (seconds) and span count per span name, over
        the spans recorded inside requests."""
        covered = [0.0] * len(self.starts)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[span] - self.starts[span]
        totals = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for span, name_id in enumerate(self.name_ids):
            if self.requests[span] < 0:
                continue
            name = self.names[name_id]
            totals[name] += (self.ends[span] - self.starts[span]
                             - covered[span])
            calls[name] += 1
        return totals, calls

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in range(len(self.starts)):
                handle.write(json.dumps({
                    "span": span, "name": self.names[self.name_ids[span]],
                    "start": self.starts[span], "end": self.ends[span],
                    "parent": self.parents[span],
                    "request": self.requests[span]}) + "\n")
