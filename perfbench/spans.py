"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each public function of every module of the
package, and each public method of the classes those modules define, with a
wrapper that records a span: a name, a start, an end and a parent.  It
replaces the module attribute that callers look up and the same function
under its name in every module that imported it.  ``uninstall`` puts the
originals back.

A span opened on a thread with no open span of its own (the worker thread
of ``phase.phase_grid``) takes as parent the innermost open span of the
thread that installed the tracer: the ``phase_grid`` call waiting for it.
Spans live in flat arrays in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from array import array


class Tracer:
    def __init__(self, package, module_names):
        self.modules = {name: getattr(package, name) for name in module_names}
        self.all_modules = [package, *self.modules.values()]
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.lock = threading.Lock()
        self.local = threading.local()
        self.home: list[int] = []  # open spans of the installing thread
        self.home_thread = None
        self.saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.current_thread() is self.home_thread:
            return self.home
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, fn, name: str):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self.home[-1] if self.home else -1
            with self.lock:
                idx = len(self.start)
                self.span_name.append(nid)
                self.parent.append(parent)
                self.end.append(0.0)
                self.start.append(time.perf_counter())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()

        return traced

    # -- installing ----------------------------------------------------------
    def install(self) -> None:
        self.home_thread = threading.current_thread()
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
                    self._set(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{attr}")
        # the same functions under the names other modules imported them by
        for mod in self.all_modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(obj.__func__, name)))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self.wrap(obj.__func__, name)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(obj, name))

    def _set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()

    # -- reading -------------------------------------------------------------
    def summary(self) -> dict:
        """Per name: calls and busy seconds; per layer: self seconds.

        Busy time counts only the outermost span of a name, so a function
        that re-enters itself is not counted twice.  A layer's self time is
        its spans' time minus the time of their direct children, which
        belong to other layers or are counted in their own layer.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        self_s: dict[str, float] = {}
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.parent[p]
            if p < 0:
                busy[nid] += dur[i]
            layer = self.names[nid].split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
        per_name = {nm: (calls[i], busy[i]) for i, nm in enumerate(self.names)}
        return {"calls": {k: v[0] for k, v in per_name.items()},
                "busy_s": {k: v[1] for k, v in per_name.items()},
                "self_s": self_s}

    def write(self, path: str) -> None:
        """All spans as CSV: id,name,start_s,end_s,parent."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]}\n"
                )
