"""Spans and counters wrapped around gnepsolve's functions from outside.

The package is not instrumented: the tracer replaces each traced function
with a wrapper in every namespace it is looked up from.  A function is found
by its defining module (``solver.solve``) or class (``core.SimpleSet.project``)
and then replaced in every loaded ``gnepsolve`` module that holds the same
object, so names imported with ``from .solver import solve`` are covered too.
A name that no longer exists is reported as absent instead of failing.

Two kinds of wrapper:

- a span records calls, total time and the time of the spans it caused, so
  ``self = total - children`` is exact: spans nest through one stack, and a
  span's time is added to its parent's children on return;
- a counter records calls only.  It is used for the per-sweep functions,
  whose call counts are in the millions and would be slowed by timing.

Either can take an ``on_return`` hook that reads counts off the result.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable

PACKAGE = "gnepsolve"


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}            # name -> [calls, total_s, child_s]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []                # open spans: [child_s]
        self._undo: list[tuple[object, str, object]] = []

    @property
    def depth(self) -> int:
        """Number of spans open now."""
        return len(self._stack)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, on_return: Callable | None) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _counter(self, name: str, fn: Callable, on_return: Callable | None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, name: str, timed: bool = True, on_return: Callable | None = None):
        """Wrap ``<module>.<function>`` or ``<module>.<Class>.<method>``."""
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        attr = path[-1]
        # vars(): a method must be defined on the class itself, not inherited.
        original = vars(owner).get(attr)
        if not callable(original):
            self.absent.append(name)
            return
        make = self._span if timed else self._counter
        wrapper = make(name, original, on_return)
        if isinstance(owner, type):
            self._replace(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def _replace(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def table(self) -> dict:
        """Every span and counter as plain data."""
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[1] - v[2]}
                      for k, v in sorted(self.spans.items())},
            "counters": dict(sorted(self.counts.items())),
            "absent": list(self.absent),
        }
