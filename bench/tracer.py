"""Span tracer that instruments qnav from outside the package.

`Tracer.install` walks the given modules and wraps every public module-level
function and every public method, static method, class method and property
getter of the classes each module defines. Names are discovered at install
time, so a function that moves or is renamed keeps the layer of the module
that now owns it. Private helpers are not wrapped: their time is self time
of the public caller, which lives in the same module.

Each call becomes one span (id, name, parent id, episode index, start, end),
appended to an in-memory int64 buffer; nothing is written until `save`.
A span's self time is its duration minus the durations of its direct
children, so each nanosecond inside the traced window belongs to exactly one
layer or to the unaccounted remainder (time outside every root span).
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import time
from pathlib import Path

import numpy as np

_FIELDS = ("id", "name", "parent", "episode", "start_ns", "end_ns")


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.layers = [m.__name__.rsplit(".", 1)[-1] for m in self.modules]
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.episode = -1  # shared id of every span opened while it is set
        self._records = array.array("q")
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        for layer, module in enumerate(self.modules):
            owner = module.__name__
            short = self.layers[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != owner:
                    continue
                if inspect.isfunction(obj):
                    self._patch(module, attr, self._wrap(obj, f"{short}.{attr}", layer))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, f"{short}.{obj.__name__}", layer)

    def _install_class(self, cls, prefix: str, layer: int) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, property) and raw.fget is not None:
                fget = self._wrap(raw.fget, name, layer)
                self._patch(cls, attr, property(fget, raw.fset, raw.fdel, raw.__doc__))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name, layer))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name: str, layer: int):
        name_idx = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        stack = self._stack
        extend = self._records.extend
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                extend((span, name_idx, parent, self.episode, start, end))

        return traced

    # -- analysis --------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(np.frombuffer(self._records, dtype=np.int64).reshape(-1, 6).copy(),
                         self.names, self.name_layer, self.layers)

    def save(self, path: Path) -> None:
        """Write every span (sorted by id) plus the name and layer tables."""
        spans = self.table()
        np.savez_compressed(
            path,
            spans=spans.rows,
            fields=np.array(_FIELDS),
            names=np.array(self.names),
            name_layer=np.array(self.name_layer),
            layers=np.array(self.layers),
        )


class SpanTable:
    """Spans as numpy columns, ordered by span id."""

    def __init__(self, rows: np.ndarray, names, name_layer, layers):
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        self.rows = rows
        self.names = list(names)
        self.layers = list(layers)
        self.name = rows[:, 1]
        self.parent = rows[:, 2]
        self.episode = rows[:, 3]
        self.duration = rows[:, 5] - rows[:, 4]
        n = len(rows)
        if n and not np.array_equal(rows[:, 0], np.arange(n)):
            raise ValueError("span ids are not contiguous; was a span left open?")
        nested = self.parent >= 0
        child = np.bincount(self.parent[nested], weights=self.duration[nested], minlength=n)
        self.self_time = self.duration - child
        self.layer = np.asarray(name_layer, dtype=np.int64)[self.name] if n else self.name

    def ids(self, *names: str) -> np.ndarray:
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, wanted)

    def layer_self_ns(self, layer: str) -> float:
        return float(self.self_time[self.layer == self.layers.index(layer)].sum())

    def layer_calls(self, layer: str) -> int:
        return int((self.layer == self.layers.index(layer)).sum())

    def inclusive_ns(self, *names: str) -> float:
        return float(self.duration[self.ids(*names)].sum())

    def calls(self, *names: str) -> int:
        return int(self.ids(*names).sum())

    def median_ns(self, *names: str) -> float:
        d = self.duration[self.ids(*names)]
        return float(np.median(d)) if d.size else 0.0

    def root_ns(self) -> float:
        return float(self.duration[self.parent < 0].sum())

    def child_of(self, child_names, parent_names) -> np.ndarray:
        """Mask of spans named in child_names whose direct parent is named in parent_names."""
        mask = self.ids(*child_names)
        parents = self.parent[mask]
        ok = np.zeros(mask.sum(), dtype=bool)
        has = parents >= 0
        ok[has] = self.ids(*parent_names)[parents[has]]
        out = np.zeros_like(mask)
        out[np.flatnonzero(mask)[ok]] = True
        return out


def summary_json(table: SpanTable) -> str:
    """Per-name call counts and self/inclusive time, for the written trace."""
    n = len(table.names)
    calls = np.bincount(table.name, minlength=n)
    self_ns = np.bincount(table.name, weights=table.self_time, minlength=n)
    incl_ns = np.bincount(table.name, weights=table.duration, minlength=n)
    out = {
        name: {"calls": int(calls[i]), "self_ns": int(self_ns[i]), "inclusive_ns": int(incl_ns[i])}
        for i, name in enumerate(table.names) if calls[i]
    }
    return json.dumps(out, indent=1, sort_keys=True)
