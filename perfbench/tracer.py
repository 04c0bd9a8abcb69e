"""Spans around the program's layers, recorded from outside the program.

Installing the tracer replaces every public function of every ``ottomon``
module, and every public method of the classes those modules define, by a
wrapper that records a span: which layer (module) and function, its wall
time, and the time of the spans it caused.  A function imported into another
``ottomon`` namespace (``from .engine import build_model``) is replaced there
too, so calls are seen whichever name they go through.  ``uninstall`` puts the
originals back.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum of the self times of its spans.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from typing import Any, Callable

Probe = Callable[["Tracer", tuple, dict], None]


class Tracer:
    """Per-function call counts, inclusive and self times, and counters."""

    def __init__(self, package, probes: dict[tuple[str, str], Probe] | None = None):
        self.package = package
        self.probes = probes or {}
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._child_time = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- install

    def _modules(self) -> list:
        names = [
            f"{self.package.__name__}.{info.name}"
            for info in pkgutil.iter_modules(self.package.__path__)
        ]
        return [importlib.import_module(name) for name in names]

    def _wrap(self, layer: str, name: str, func: Callable) -> Callable:
        key = (layer, name)
        probe = self.probes.get(key)
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        child_stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[key] += 1
            if probe is not None:
                probe(self, args, kwargs)
            child_stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_stack.pop()
                inclusive[key] += elapsed
                self_time[key] += elapsed - children
                child_stack[-1] += elapsed

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = func.__doc__
        return traced

    def install(self) -> None:
        modules = self._modules()
        namespaces = [self.package, *modules]
        replacements: dict[int, Callable] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            wrapper = self._wrap(layer, f"{name}.{attr}", member)
                            self._patches.append((obj, attr, member))
                            setattr(obj, attr, wrapper)
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((namespace, name, obj))
                    setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -------------------------------------------------------------- readout

    def count(self, layer: str, name: str) -> int:
        return self.calls.get((layer, name), 0)

    def total(self, table: dict, layer: str, *names: str) -> float:
        return sum(table.get((layer, name), 0.0) for name in names)

    def layer_self(self, layer: str) -> float:
        return sum(t for (lay, _), t in self.self_time.items() if lay == layer)
