"""Span tracing for the benchmark's traced runs, installed from outside.

The tracer replaces public names of the ``pathforge`` modules with timing
wrappers after the package has been imported.  Several modules bind a
function at import (``identities`` does ``from .fold import fold_dyck``),
so each binding site is wrapped, not only the defining module.  Nothing in
the package is edited.

Spans are aggregated as they close rather than kept one by one: per kind
(one layer boundary, e.g. ``fold.dyck``) the tracer keeps the call count,
the total time and the time its direct child spans took, by child kind.
A layer's self time is its total minus its children.  Kinds that pass a
tag (the fold's k, a construction letter) also keep every duration per
tag, for percentiles.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

# (kind, binding modules, name, tag source). The tag source is the index of
# the positional argument, or an attribute to read from it.
FUNCTIONS = [
    ("cli", ["pathforge.cli"], "main", None),
    ("sweep", ["pathforge.cli", "pathforge.identities"], "sweep", None),
    ("fold.dyck", ["pathforge.identities", "pathforge.paths", "pathforge.fold"], "fold_dyck",
     (0, None)),
    ("fold.altmotzkin", ["pathforge.identities", "pathforge.paths", "pathforge.fold"],
     "fold_alt_motzkin", (0, None)),
    ("numeric", ["pathforge.identities", "pathforge.moments", "pathforge.paths",
                 "pathforge.numeric"], "catalan", None),
    ("numeric", ["pathforge.identities", "pathforge.moments", "pathforge.numeric"],
     "narayana_poly", None),
    ("bijections.construct", ["pathforge.bijections"], "construct", (0, "construction")),
    ("bijections.invert", ["pathforge.bijections"], "invert", (0, None)),
    ("moments.moment", ["pathforge.moments"], "wigner_moment", None),
    ("moments.moment", ["pathforge.moments"], "wishart_moment", None),
    ("moments.power", ["pathforge.moments"], "trace_power", None),
] + [
    ("identities", ["pathforge.identities"], f"verify_thm{i}", None) for i in range(1, 6)
]

GENERATORS = [
    ("paths.enumerate", ["pathforge.cli", "pathforge.paths"], "enumerate_dyck"),
    ("paths.enumerate", ["pathforge.cli", "pathforge.paths"], "enumerate_alt_motzkin"),
]

# (kind, module, class, method names)
METHODS = [
    # every Path built through the constructor; validation runs inside it
    ("paths.validate", "pathforge.paths", "Path", ["__init__"]),
    ("numeric", "pathforge.numeric", "GammaPoly",
     ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "evaluate"]),
]


def _tag(source, args):
    if source is None or len(args) <= source[0]:
        return None
    value = args[source[0]]
    return getattr(value, source[1]) if source[1] else value


class Tracer:
    """Aggregated spans of one process; see the module docstring."""

    def __init__(self):
        self._open: list[dict] = []  # child time by kind of each open span, innermost last
        self.kinds: dict[str, dict] = {}
        self.durations: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self._wrapped: dict[int, object] = {}

    def _close(self, kind, tag, child, dur):
        self._open.pop()
        agg = self.kinds.get(kind)
        if agg is None:
            agg = self.kinds[kind] = {"calls": 0, "ns": 0, "child_ns": {}}
        agg["calls"] += 1
        agg["ns"] += dur
        child_ns = agg["child_ns"]
        for k, v in child.items():
            child_ns[k] = child_ns.get(k, 0) + v
        if tag is not None:
            self.durations.setdefault(f"{kind}/{tag}", []).append(dur)
        if self._open:
            parent = self._open[-1]
            parent[kind] = parent.get(kind, 0) + dur

    def wrap(self, fn, kind, tag_source=None):
        def wrapper(*args, **kwargs):
            child: dict = {}
            self._open.append(child)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(kind, _tag(tag_source, args), child, perf_counter_ns() - t0)

        return wrapper

    def wrap_generator(self, fn, kind):
        """Time the call and each ``next`` as separate spans; the consumer's
        work between items stays with the consumer."""

        def wrapper(*args, **kwargs):
            it = None
            while True:
                child: dict = {}
                self._open.append(child)
                t0 = perf_counter_ns()
                try:
                    if it is None:
                        it = iter(fn(*args, **kwargs))
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(kind, None, child, perf_counter_ns() - t0)
                yield item

        return wrapper

    def _module(self, name):
        try:
            return importlib.import_module(name)
        except ImportError:
            self.missing.append(name)
            return None

    def _replace(self, owner, label, name, make):
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{label}.{name}")
            return
        wrapper = self._wrapped.get(id(original))
        if wrapper is None:
            wrapper = self._wrapped[id(original)] = make(original)
        setattr(owner, name, wrapper)

    def install(self):
        """Wrap every traced name; names that no longer exist are listed in
        ``missing`` so the report can say why a metric reads zero."""
        importlib.import_module("pathforge")
        for kind, modules, name, tag_source in FUNCTIONS:
            for mod in modules:
                self._replace(self._module(mod), mod, name,
                              lambda fn, k=kind, t=tag_source: self.wrap(fn, k, t))
        for kind, modules, name in GENERATORS:
            for mod in modules:
                self._replace(self._module(mod), mod, name,
                              lambda fn, k=kind: self.wrap_generator(fn, k))
        for kind, mod, cls_name, names in METHODS:
            cls = getattr(self._module(mod), cls_name, None)
            if cls is None:
                self.missing.append(f"{mod}.{cls_name}")
                continue
            for name in names:
                # only methods the class defines itself; inherited ones are not its layer
                if name in vars(cls):
                    self._replace(cls, f"{mod}.{cls_name}", name,
                                  lambda fn, k=kind: self.wrap(fn, k))
                else:
                    self.missing.append(f"{mod}.{cls_name}.{name}")
        return self

    def dump(self) -> dict:
        return {"kinds": self.kinds, "durations": self.durations, "missing": self.missing}


def merge(dumps) -> dict:
    """Sum the dumps of several traced processes."""
    out = {"kinds": {}, "durations": {}, "missing": set()}
    for d in dumps:
        for kind, agg in d["kinds"].items():
            acc = out["kinds"].setdefault(kind, {"calls": 0, "ns": 0, "child_ns": {}})
            acc["calls"] += agg["calls"]
            acc["ns"] += agg["ns"]
            for k, v in agg["child_ns"].items():
                acc["child_ns"][k] = acc["child_ns"].get(k, 0) + v
        for key, values in d["durations"].items():
            out["durations"].setdefault(key, []).extend(values)
        out["missing"].update(d["missing"])
    out["missing"] = sorted(out["missing"])
    return out
