"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces the public functions of each liework layer, in
every liework module that bound them, and a few hot methods, with wrappers
that record one span per call: name, start, end and the enclosing span.
Spans are kept in memory in flat integer arrays and summarised (calls,
inclusive and self time) when the pass ends; `write()` dumps them.

The untraced pass must run the program as shipped, so `assert_untraced()`
checks that no wrapper made it into the process.
"""
from __future__ import annotations

import array
import gzip
import importlib
import inspect
import time

LAYERS = ("exactlin", "chevalley", "parabolic", "bundles", "suites", "cli")

# (module, class, method) -> span name; the names are the per-layer metric
# prefixes, so they drop the class.
METHODS = {
    ("exactlin", "EchelonBuilder", "insert"): "exactlin.insert",
    ("exactlin", "Subspace", "contains"): "exactlin.contains",
    ("chevalley", "ChevalleyAlgebra", "bracket"): "chevalley.bracket",
    ("chevalley", "ChevalleyAlgebra", "killing"): "chevalley.killing",
    ("chevalley", "ChevalleyAlgebra", "bracket_space"): "chevalley.bracket_space",
}

_MARK = "__perfbench_span__"
_ROOT = -1


def _modules():
    return {name: importlib.import_module(f"liework.{name}") for name in LAYERS}


def _public_functions(mod):
    """Public functions defined in mod (plain or lru_cache-wrapped)."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def _targets():
    """Yield (span name, original, [(owner, attribute), ...]) for every
    traced callable, with each place that binds it."""
    mods = _modules()
    for layer, mod in mods.items():
        for name, fn in _public_functions(mod):
            owners = [(m, attr) for m in mods.values()
                      for attr, obj in vars(m).items() if obj is fn]
            yield f"{layer}.{name}", fn, owners
    for (layer, cls_name, meth), span_name in METHODS.items():
        cls = getattr(mods[layer], cls_name)
        yield span_name, cls.__dict__[meth], [(cls, meth)]


def assert_untraced() -> None:
    """Raise if any liework module attribute, or any traced method, is a
    wrapper."""
    mods = _modules()
    bound = [(f"{layer}.{attr}", obj) for layer, mod in mods.items()
             for attr, obj in vars(mod).items()]
    bound += [(span_name, vars(getattr(mods[layer], cls))[meth])
              for (layer, cls, meth), span_name in METHODS.items()]
    for where, obj in bound:
        if hasattr(obj, _MARK):
            raise RuntimeError(f"untraced pass carries a wrapper: {where}")
    from liework.chevalley import ChevalleyAlgebra
    bracket = ChevalleyAlgebra.__dict__["bracket"]
    if bracket.__qualname__ != "ChevalleyAlgebra.bracket":
        raise RuntimeError("ChevalleyAlgebra.bracket is not the original")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.sid: dict[str, int] = {}
        self.sids = array.array("q")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("q")
        self.stack = [_ROOT]
        self.counters: dict[str, int] = {}
        self.miss_ns: dict[str, int] = {}
        self.originals: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self.sid:
            self.sid[name] = len(self.names)
            self.names.append(name)
        return self.sid[name]

    def _wrap(self, name: str, fn):
        sids, starts, ends, parents, stack = (
            self.sids, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter_ns
        sid = self._id(name)
        is_cached = hasattr(fn, "cache_info")
        miss_ns = self.miss_ns

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if is_cached else 0
            i = len(sids)
            sids.append(sid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[i] = t1
                stack.pop()
                if is_cached and fn.cache_info().misses != misses:
                    miss_ns[name] = miss_ns.get(name, 0) + t1 - t0

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_letters(self, spanned):
        """`act_vector(alg, w, v)` that first adds the letters of w to the
        `bundles.letters` counter, outside the span."""
        counters = self.counters
        counters["bundles.letters"] = 0

        def wrapper(alg, w, v):
            counters["bundles.letters"] += len(w.letters)
            return spanned(alg, w, v)

        setattr(wrapper, _MARK, "bundles.act_vector")
        wrapper.__wrapped__ = spanned
        return wrapper

    def install(self) -> None:
        for name, fn, owners in _targets():
            self.originals[name] = fn
            wrapper = self._wrap(name, fn)
            if name == "bundles.act_vector":
                wrapper = self._count_letters(wrapper)
            for owner, attr in owners:
                setattr(owner, attr, wrapper)

    def summary(self, window: tuple[int, int]) -> dict:
        """Per span name: calls, inclusive seconds (outermost calls only)
        and self seconds; plus the part of `window` (perf_counter_ns
        bounds) that no root span covers."""
        n = len(self.sids)
        child_ns = [0] * n
        root_ns = 0
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            p = self.parents[i]
            if p == _ROOT:
                lo = max(self.starts[i], window[0])
                hi = min(self.ends[i], window[1])
                root_ns += max(0, hi - lo)
            else:
                child_ns[p] += dur
        out: dict[str, dict] = {}
        for i in range(n):
            sid = self.sids[i]
            rec = out.setdefault(self.names[sid],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.ends[i] - self.starts[i]
            rec["calls"] += 1
            rec["self_s"] += (dur - child_ns[i]) / 1e9
            if not self._nested_in_same(i, sid):
                rec["s"] += dur / 1e9
        unattributed = (window[1] - window[0] - root_ns) / 1e9
        return {"spans": out, "unattributed_s": unattributed}

    def _nested_in_same(self, i: int, sid: int) -> bool:
        p = self.parents[i]
        while p != _ROOT:
            if self.sids[p] == sid:
                return True
            p = self.parents[p]
        return False

    def write(self, path) -> None:
        """Dump every span as tab-separated name, start_ns, end_ns and
        parent index (-1 for a root), one per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            names = self.names
            for sid, t0, t1, p in zip(self.sids, self.starts, self.ends,
                                      self.parents):
                fh.write(f"{names[sid]}\t{t0}\t{t1}\t{p}\n")
