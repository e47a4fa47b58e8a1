"""Spans around the public functions of every gpwork module, recorded from
outside the package.

`Tracer.install` replaces each public function of the seven gpwork modules at
every module-level name it is bound under (so `classify.find_hole`, the
`words` names imported by `embeddings` and module-internal calls such as
`complexes.vertex_link` inside `is_npc` are all caught), plus
`HomomorphismSpec.apply`.  `uninstall` puts every original back.

A span is (function id, parent span, start, end); spans stay in compact
arrays until the run ends and `dump` writes them out.  A few counters are
taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("graphs", "catalog", "words", "complexes", "embeddings",
          "classify", "cli")
METHODS = (("embeddings", "HomomorphismSpec", "apply"),)
COUNTERS = ("words.normalize.syl_in", "words.multiply.syl_in",
            "words.enumerate_elements.elements", "complexes.points",
            "classify.rows")


def public_functions(modules):
    """(qualified name, function) for each public function defined in one of
    the gpwork layer modules."""
    out = []
    for layer in LAYERS:
        mod = modules["gpwork." + layer]
        for name, obj in sorted(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            if inspect.isgeneratorfunction(obj):
                raise TypeError("cannot time generator %s.%s" % (layer, name))
            out.append(("%s.%s" % (layer, name), obj))
    return out


def _box_points(X):
    if X.box is None:
        return 0
    total = 1
    for v in X.dirs:
        total *= X.box.n_points(v)
    return total


class Tracer:
    def __init__(self):
        self.names = []
        # fids holds 2 * function id + 1 for the outermost call of a function
        # (no call of the same function is open), 2 * function id otherwise
        self.fids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._links = set()
        self._distinct_links = 0
        self._stack = [-1]
        self._active = []
        self._restore = []

    def _count(self, key, n):
        self.counts[key] += n

    def _hooks(self):
        return {
            "words.normalize": lambda a, r: self._count(
                "words.normalize.syl_in", len(a[0].syllables)),
            "words.multiply": lambda a, r: self._count(
                "words.multiply.syl_in",
                len(a[0].syllables) + len(a[1].syllables)),
            "words.enumerate_elements": lambda a, r: self._count(
                "words.enumerate_elements.elements", len(r)),
            "complexes.vertex_link": lambda a, r: self._links.add(r),
            "complexes.stats_line": lambda a, r: self._count(
                "complexes.points", _box_points(a[0])),
            "classify.census": lambda a, r: self._count(
                "classify.rows", len(r)),
        }

    def _wrap(self, fid, fn, hook):
        fids, parents, starts, ends = (self.fids, self.parents, self.starts,
                                       self.ends)
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            fids.append(2 * fid + (active[fid] == 0))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            active[fid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                active[fid] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function at each name bound to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = sys.modules
        hooks = self._hooks()
        namespaces = [vars(modules[n]) for n in sorted(modules)
                      if n == "gpwork" or n.startswith("gpwork.")]
        for qualname, fn in public_functions(modules):
            wrapped = self._wrap(self._fid(qualname), fn, hooks.get(qualname))
            for ns in namespaces:
                for name, obj in list(ns.items()):
                    if obj is fn:
                        self._restore.append((ns, name, fn))
                        ns[name] = wrapped
        for layer, cls, meth in METHODS:
            klass = getattr(modules["gpwork." + layer], cls)
            fn = vars(klass)[meth]
            self._restore.append((klass, meth, fn))
            setattr(klass, meth,
                    self._wrap(self._fid("%s.%s" % (layer, meth)), fn, None))

    def _fid(self, qualname):
        if qualname not in self.names:
            self.names.append(qualname)
            self._active.append(0)
        return self.names.index(qualname)

    def uninstall(self):
        for target, name, fn in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = fn
            else:
                setattr(target, name, fn)
        self._restore = []

    def end_pass(self):
        """Close one pass of the job list: distinct links are per pass."""
        self._distinct_links += len(self._links)
        self._links.clear()

    def merge(self, other):
        """Append another tracer's spans and counters (e.g. from a child
        process), re-indexing function ids and parents."""
        remap = [self._fid(name) for name in other.names]
        base = len(self.starts)
        for f, p in zip(other.fids, other.parents):
            self.fids.append(2 * remap[f >> 1] + (f & 1))
            self.parents.append(p + base if p >= 0 else -1)
        self.starts.extend(other.starts)
        self.ends.extend(other.ends)
        for key, n in other.counts.items():
            self._count(key, n)
        self._distinct_links += other._distinct_links

    # -- output -------------------------------------------------------------

    def dump(self, path):
        """Write spans: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "count": len(self.starts),
                  "counts": self.counts,
                  "distinct_links": self._distinct_links + len(self._links),
                  "arrays": [["fids", self.fids.typecode],
                             ["parents", self.parents.typecode],
                             ["starts", self.starts.typecode],
                             ["ends", self.ends.typecode]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fids, self.parents, self.starts, self.ends):
                arr.tofile(fh)

    @classmethod
    def load(cls, path):
        t = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name, code in header["arrays"]:
                arr = array(code)
                arr.fromfile(fh, header["count"])
                setattr(t, name, arr)
        t.names = header["names"]
        t._active = [0] * len(t.names)
        t.counts = header["counts"]
        t._distinct_links = header["distinct_links"]
        return t

    def summary(self):
        """Per-function calls, inclusive time of outermost calls and self
        time, plus per-layer self time and parent/child call counts."""
        n = len(self.starts)
        child = [0.0] * n
        fids, parents, starts, ends = (self.fids, self.parents, self.starts,
                                       self.ends)
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        funcs = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
                 for name in self.names}
        layers = {layer: 0.0 for layer in LAYERS}
        under = {}  # (parent function, child function) -> calls
        top = 0.0
        for i in range(n):
            f = fids[i]
            name = self.names[f >> 1]
            dur = ends[i] - starts[i]
            rec = funcs[name]
            rec["calls"] += 1
            if f & 1:
                rec["s"] += dur
            own = dur - child[i]
            rec["self_s"] += own
            layers[name.split(".", 1)[0]] += own
            p = parents[i]
            if p < 0:
                top += dur
            else:
                key = (self.names[fids[p] >> 1], name)
                under[key] = under.get(key, 0) + 1
        return {"functions": funcs, "layers": layers, "under": under,
                "top_level_s": top, "counts": dict(self.counts),
                "distinct_links": self._distinct_links + len(self._links)}
