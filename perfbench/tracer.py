"""Span tracing of the crowdcast layers, installed from outside the package.

Every public function of the six package modules is wrapped, in every
module namespace that binds it (``engine`` imports ``play_profile`` by name,
for example), so calls made through any of those names are seen. The
constructor hook of ``DiscreteDistribution`` is wrapped as well, to count the
distributions built. Spans are kept in memory as flat arrays and summarised
when tracing stops; ``uninstall`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("core", "environments", "policies", "analysis", "engine", "cli")

# The span carrying the constructor count of core.DiscreteDistribution.
DIST_BUILD = "core.DiscreteDistribution.__post_init__"


@dataclass(frozen=True)
class SpanSummary:
    """Per-pass aggregates of the recorded spans.

    ``calls`` and ``incl`` (inclusive time) are keyed by span name;
    ``layer_self`` is the self time of each layer. ``entries`` counts, by
    layer, spans whose parent is in another layer or is the pass itself.
    ``incl_by_parent_layer`` sums span time by (name, parent layer).
    """

    calls: dict[str, int]
    incl: dict[str, float]
    layer_self: dict[str, float]
    entries: dict[str, int]
    incl_by_parent_layer: dict[tuple[str, str], float]
    n_spans: int


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self) -> None:
        self.package = importlib.import_module("crowdcast")
        self.modules = {name: importlib.import_module(f"crowdcast.{name}") for name in LAYERS}
        self.names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    # --- installation ---------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """Public package functions by identity, with their span names."""
        found: dict[int, tuple[str, object]] = {}
        for mod in self.modules.values():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("crowdcast.") or home not in LAYERS:
                    continue
                found.setdefault(id(value), (f"{home}.{value.__qualname__}", value))
        return found

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer._name_id)
            tracer._name_id.append(name_id)
            tracer._parent.append(tracer._stack[-1])
            tracer._end.append(0.0)
            tracer._stack.append(idx)
            tracer._start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end[idx] = perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._reset()
        self.names = []
        namespaces = [self.package, *self.modules.values()]
        try:
            for name, fn in self._targets().values():
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
            dist_cls = getattr(self.modules["core"], "DiscreteDistribution", None)
            original = vars(dist_cls).get("__post_init__") if dist_cls is not None else None
            if original is not None:
                self._patches.append((dist_cls, "__post_init__", original))
                dist_cls.__post_init__ = self._wrap(DIST_BUILD, original)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return the ones that did not restore."""
        stuck = []
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)
            if getattr(ns, attr) is not original:
                stuck.append(f"{getattr(ns, '__name__', ns)}.{attr}")
        return stuck

    def snapshot(self) -> dict[tuple[str, str], object]:
        """Every attribute ``install`` may patch, keyed by (namespace, name)."""
        snap = {}
        for ns in (self.package, *self.modules.values()):
            for attr, value in vars(ns).items():
                snap[(ns.__name__, attr)] = value
        dist_cls = self.modules["core"].DiscreteDistribution
        snap[(DIST_BUILD.rpartition(".")[0], "__post_init__")] = vars(dist_cls).get("__post_init__")
        return snap

    @property
    def hooked(self) -> frozenset[str]:
        """Span names of the functions wrapped by the last install."""
        return frozenset(self.names)

    # --- summary --------------------------------------------------------------

    def summarize(self) -> SpanSummary:
        """Aggregate the spans recorded since the last install."""
        n = len(self._name_id)
        names = self.names
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        entries = {layer: 0 for layer in LAYERS}
        by_parent: dict[tuple[str, str], float] = {}
        for i in range(n):
            name = names[self._name_id[i]]
            layer = _layer(name)
            p = self._parent[i]
            parent_layer = "bench" if p < 0 else _layer(names[self._name_id[p]])
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur[i]
            layer_self[layer] += dur[i] - child[i]
            if parent_layer != layer:
                entries[layer] += 1
            key = (name, parent_layer)
            by_parent[key] = by_parent.get(key, 0.0) + dur[i]
        return SpanSummary(calls, incl, layer_self, entries, by_parent, n)
