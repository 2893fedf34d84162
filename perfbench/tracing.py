"""Spans around the public names of each frameproof_lab layer, recorded from
the benchmark's side: the program itself is not modified.

A target is a (group, module, attribute, hook) tuple such as
("verify", "verify", "find_focal_code", None) or ("gf", "gf", "GF.pow", None).
Installing a target replaces the function object in every frameproof_lab
module namespace that holds it (so `from .matching import
matching_number_exact` inside `constructions` is wrapped too), or on the
class for methods.

Spans are aggregated on exit instead of stored, so millions of GF calls cost
no memory.  Per group:

- `calls`: every call, nested or not.
- `busy_s`: duration of the group's outermost spans (a span nested in a span
  of the same group is not counted twice).
- `self_s`: `busy_s` minus the time covered by child spans of other groups.

A target whose module or attribute no longer exists is reported as
unavailable rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

# A hook sees (counts, args, kwargs, result) after each traced call and adds
# to the group's counts.
Hook = Callable[[dict, tuple, dict, object], None]

PACKAGE = "frameproof_lab"


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.root_busy = 0.0
        self.unavailable: list[str] = []
        self._stack: list[list] = []  # [group, start, other-group child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[Callable[[], None]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, group: str, fn: Callable, hook: Hook | None) -> Callable:
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [group, 0.0, 0.0]
            stack.append(frame)
            depth[group] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                self._close(frame, end - frame[1])
            if hook is not None:
                hook(self.counts[group], args, kwargs, result)
            return result

        return wrapper

    def _close(self, frame: list, duration: float) -> None:
        group, _, other = frame
        self.calls[group] += 1
        if self._depth[group] == 0:
            self.busy[group] += duration
            self.self_time[group] += duration - other
        if self._stack:
            parent = self._stack[-1]
            # a child of another group is covered time for the parent; a
            # same-group child hands its own covered time up instead
            parent[2] += duration if parent[0] != group else other
        else:
            self.root_busy += duration

    # -- installing wrappers ----------------------------------------------

    def install(self, targets: list[tuple[str, str, str, Hook | None]]) -> None:
        for group, module, attr, hook in targets:
            name = f"{module}.{attr}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.unavailable.append(name)
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.unavailable.append(name)
                continue
            wrapper = self._wrap(group, fn, hook)
            if owner_name:
                self._replace(owner, leaf, fn, wrapper)
            else:
                for holder in self._package_modules():
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            self._replace(holder, bound, fn, wrapper)

    @staticmethod
    def _package_modules() -> list:
        return [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _replace(self, owner: object, name: str, fn: Callable, wrapper: Callable) -> None:
        setattr(owner, name, wrapper)
        self._undo.append(lambda: setattr(owner, name, fn))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
