"""Span tracer that wraps cdlab's public functions from outside the package.

``Tracer.install`` replaces every public function defined in a loaded
``cdlab`` module with a timing wrapper, in every ``cdlab`` namespace that
binds it by name: ``cdlab.cli`` and ``cdlab.experiment`` import
``propagate_moments``, ``validate_assumption`` and the rest at import time,
so patching only the defining module would miss their calls.

Spans are recorded on the thread that installed the tracer only.  Calls
from other threads (the Monte Carlo worker pool) run the original
function untimed, so spans nest strictly and self times partition the
traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time


class Tracer:
    """In-memory spans: [name, parent index or None, start, end, probe value]."""

    def __init__(self, probes: dict):
        # name -> callable(result) returning a small value kept on the span;
        # results themselves are not kept, so traced memory matches untraced
        self.probes = probes
        self.spans = []
        self._stack = []
        self._thread = threading.current_thread()
        self._patched = []

    def _modules(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "cdlab" or name.startswith("cdlab."))
        ]

    def install(self) -> int:
        """Wrap every public cdlab function wherever it is bound; return the count."""
        modules = self._modules()
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not self._thread:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span[4] = probe(result)
            return result

        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(self.spans)]

    def attribute(self, boundaries: dict) -> list:
        """Map each span to the layer of the nearest boundary at or above it.

        ``boundaries`` maps span names to layer names; a span with no
        boundary on its parent chain maps to None.
        """
        layers = []
        for name, parent, _, _, _ in self.spans:
            layer = boundaries.get(name)
            if layer is None and parent is not None:
                layer = layers[parent]
            layers.append(layer)
        return layers
