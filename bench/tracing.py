"""Span tracing of randlab's layers, installed from outside the program.

``Tracer.install()`` replaces each public function of the library modules
(and the named class methods) with a wrapper that records a span: name,
start, end, parent span and operation id.  A function is replaced in every
randlab module that holds it by name, so ``randlab.primality.mod_pow`` is
traced as well as ``randlab.natnum.mod_pow``.  ``uninstall()`` puts the
originals back, so untraced rounds run the program exactly as shipped.

The random generator is called two or more times per anneal move, too often
for a span per call; its methods are timed in aggregate instead, and the
time is charged to the span open at the call, so self times stay exact.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

# Modules whose public functions are traced as spans.
SPAN_MODULES = ("natnum", "primality", "fingerprint", "factor", "mphf", "route", "ramsey")
# Private functions traced as well, because a per-layer metric names them.
EXTRA_FUNCTIONS = {"route": ("_simulate",)}
# Class methods traced as spans (data-structure classes such as
# GraphColoring are left alone: their methods run millions of times a round).
METHODS = {
    "fingerprint": {"Document": ("from_file", "residue"),
                    "LocalOracle": ("length", "residue"),
                    "StreamOracle": ("length", "residue")},
}
RNG_METHODS = ("next_u64", "next_float", "uniform_below", "uniform_natural_in", "clone")


class Tracer:
    """Spans kept in parallel arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf = array("d")  # aggregated generator time charged to the span
        self.stack: list[int] = []
        self.op_id = -1
        self.round_id = -1
        self.rng_draws = 0
        self.rng_seconds = 0.0
        self.residue_bytes = 0
        self._in_rng = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.round.append(self.round_id)
            self.leaf.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
        return wrapper

    def _rng(self, name: str, fn):
        draws = name == "next_u64"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if draws:
                self.rng_draws += 1
            if self._in_rng:
                return fn(*args, **kwargs)
            self._in_rng = True
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t
                self._in_rng = False
                self.rng_seconds += dt
                if self.stack:
                    self.leaf[self.stack[-1]] += dt
        return wrapper

    def _residue(self, fn):
        traced = self._span("fingerprint.residue", fn)

        @functools.wraps(fn)
        def wrapper(data, prime):
            self.residue_bytes += len(data)
            return traced(data, prime)
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("randlab"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def _replace_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        self._saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def install(self, cli_module) -> None:
        """Wrap every traced function; ``cli.main`` becomes the root span."""
        pkg = sys.modules["randlab"]
        for short in SPAN_MODULES:
            mod = sys.modules["randlab." + short]
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_")]
            for fname in names + list(EXTRA_FUNCTIONS.get(short, ())):
                fn = getattr(mod, fname)
                label = "%s.%s" % (short, fname.lstrip("_"))
                wrapped = self._residue(fn) if label == "fingerprint.residue" else self._span(label, fn)
                self._replace_everywhere(fn, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    label = "%s.%s.%s" % (short, cls_name, m)
                    self._replace_method(cls, m, lambda f, label=label: self._span(label, f))
        rng_mod = pkg.rng
        for m in RNG_METHODS:
            self._replace_method(rng_mod.SplitMix64, m, lambda f, m=m: self._rng(m, f))
        self._replace_everywhere(rng_mod.derive_stream, self._rng("derive_stream",
                                                                  rng_mod.derive_stream))
        self._saved.append((cli_module, "main", cli_module.main))
        cli_module.main = self._span("cli.main", cli_module.main)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def summary(self, keep_selfs=("cli.main",)) -> dict[int, dict[str, dict]]:
        """Per round and span name: calls, self and inclusive seconds, how
        many direct children of each name, and for the names in
        ``keep_selfs`` the self time of each call.

        A span's self time is its duration minus its child spans and the
        generator time charged to it.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, dict]] = {}
        for i in range(n):
            names = out.setdefault(self.round[i], {})
            rec = _record(names, self.names[self.name[i]], keep_selfs)
            duration = self.end[i] - self.start[i]
            own = duration - child[i] - self.leaf[i]
            rec["calls"] += 1
            rec["self"] += own
            rec["incl"] += duration
            if rec["keep"]:
                rec["selfs"].append(own)
            p = self.parent[i]
            if p >= 0:
                kids = _record(names, self.names[self.name[p]], keep_selfs)["children"]
                kids[self.names[self.name[i]]] = kids.get(self.names[self.name[i]], 0) + 1
        return out

    def write(self, path: str) -> None:
        """Spans as gzip'd JSON: a name table and one column per field."""
        doc = {"names": self.names,
               "fields": ["name", "parent", "op", "round", "start", "end", "leaf"],
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "op": self.op.tolist(), "round": self.round.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "leaf": self.leaf.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _record(names: dict, name: str, keep_selfs) -> dict:
    if name not in names:
        names[name] = {"calls": 0, "self": 0.0, "incl": 0.0, "selfs": [], "children": {},
                       "keep": name in keep_selfs}
    return names[name]
