"""Span tracing of atomkit's public functions, installed from outside.

The tracer replaces each target function by a wrapper in every atomkit
module namespace that binds it, and in module-level dicts that hold it
(such as the audit table the CLI dispatches through); methods are
replaced on their class.  Each call records a span (function, parent
span, start, end) in flat in-memory arrays.  restore() puts every
original back.  Spans are written out with dump() and summarised by
summarize(): calls and self time (duration minus direct child spans)
per target.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute or Class.method, metric prefix)
TARGETS = (
    ("core", "hom_set", "core.hom_set"),
    ("core", "compose", "core.compose"),
    ("core", "morphism_key", "core.morphism_key"),
    ("core", "object_key", "core.object_key"),
    ("core", "pullback", "core.pullback"),
    ("core", "amalgamate", "core.amalgamate"),
    ("core", "aut_group", "core.aut_group"),
    ("core", "is_iso", "core.is_iso"),
    ("core", "inverse", "core.inverse"),
    ("core", "subgroup_generated", "core.subgroup_generated"),
    ("core", "decode_object", "core.decode_object"),
    ("core", "decode_morphism", "core.decode_morphism"),
    ("itree", "TreeEmbedding.then", "itree.TreeEmbedding.then"),
    ("itree", "enumerate_embeddings", "itree.enumerate_embeddings"),
    ("itree", "enumerate_trees", "itree.enumerate_trees"),
    ("itree", "tree_pullback", "itree.tree_pullback"),
    ("itree", "tree_amalgamate", "itree.tree_amalgamate"),
    ("itree", "c2prime_witness", "itree.c2prime_witness"),
    ("itree", "regular_mono_witness", "itree.regular_mono_witness"),
    ("finsetinj", "FinSetInjBackend.hom_set",
     "finsetinj.FinSetInjBackend.hom_set"),
    ("finsetinj", "Injection.then", "finsetinj.Injection.then"),
    ("presheaf", "compute_K", "presheaf.compute_K"),
    ("presheaf", "self_intersection_check",
     "presheaf.self_intersection_check"),
    ("presheaf", "sheaf_check_quotient", "presheaf.sheaf_check_quotient"),
    ("presheaf", "decompose", "presheaf.decompose"),
    ("presheaf", "quotient_classes", "presheaf.quotient_classes"),
    ("presheaf", "checker_objects", "presheaf.checker_objects"),
    ("atoms", "coequalize_representables",
     "atoms.coequalize_representables"),
    ("audit", "audit_c1", "audit.audit_c1"),
    ("audit", "audit_c2prime", "audit.audit_c2prime"),
    ("audit", "audit_c3", "audit.audit_c3"),
    ("audit", "audit_c4", "audit.audit_c4"),
    ("audit", "AuditReport.to_json", "audit.to_json"),
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.emit"),
)

NAMES = tuple(metric for _m, _q, metric in TARGETS)

_MARK = "__bench_traced__"


def _verdict_status(result) -> str:
    return getattr(result, "verdict", result).status


class Tracer:
    """Records spans of the TARGETS while installed."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple] = []
        self.hom_pairs: set = set()
        self.counters = {"pullback_steps": 0, "verdicts": 0, "unknown": 0}

    # -- hooks that count outcomes at the boundary ---------------------------

    def _on_hom_set(self, args, _result) -> None:
        self.hom_pairs.add((args[0], args[1]))

    def _on_coeq(self, _args, result) -> None:
        self.counters["pullback_steps"] += len(result.steps)

    def _on_check(self, _args, result) -> None:
        self.counters["verdicts"] += 1
        self.counters["unknown"] += _verdict_status(result) == "unknown"

    def _hook(self, metric: str):
        return {"core.hom_set": self._on_hom_set,
                "atoms.coequalize_representables": self._on_coeq,
                "presheaf.compute_K": self._on_check,
                "presheaf.self_intersection_check": self._on_check,
                "presheaf.sheaf_check_quotient": self._on_check}.get(metric)

    def _wrap(self, idx: int, func, hook):
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = len(fn)
            fn.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        """Patch every loaded atomkit module; targets in modules that are
        not loaded are skipped."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "atomkit" or name.startswith("atomkit.")]
        for idx, (mod, qual, metric) in enumerate(TARGETS):
            home = sys.modules.get("atomkit." + mod)
            if home is None:
                continue
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                self._set(cls, attr, orig,
                          self._wrap(idx, orig, self._hook(metric)))
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(idx, orig, self._hook(metric))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, name, orig, wrapper)
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is orig:
                                self._set(value, key, orig, wrapper)

    def _set(self, holder, name, orig, wrapper) -> None:
        self._patched.append((holder, name, orig))
        if type(holder) is dict:
            holder[name] = wrapper
        else:
            setattr(holder, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            holder, name, orig = self._patched.pop()
            if type(holder) is dict:
                holder[name] = orig
            else:
                setattr(holder, name, orig)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the spans and counters: one JSON header line, then the
        fn, parent, start and end arrays in native binary layout."""
        header = {"names": NAMES, "spans": len(self.fn),
                  "counters": {**self.counters,
                               "hom_pairs": len(self.hom_pairs)},
                  **(extra or {})}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fn, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, tuple]:
    """Read a dump back: (header, (fn, parent, start, end))."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, tuple(arrays)


def summarize(arrays) -> dict:
    """Per target: calls, total duration and self time in seconds."""
    fn, parent, start, end = arrays
    child = array("d", [0.0]) * len(fn)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in NAMES}
    for i, f in enumerate(fn):
        row = out[NAMES[f]]
        d = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += d
        row["self_s"] += d - child[i]
    return out


def leftover_wrappers() -> list[str]:
    """Names in atomkit modules, their classes and module-level dicts that
    still hold a tracing wrapper."""
    found = []
    for mname, module in sorted(sys.modules.items()):
        if not (mname == "atomkit" or mname.startswith("atomkit.")):
            continue
        for name, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append("%s.%s" % (mname, name))
            elif isinstance(value, type) and value.__module__ == mname:
                found.extend("%s.%s.%s" % (mname, name, attr)
                             for attr, item in vars(value).items()
                             if getattr(item, _MARK, False))
            elif type(value) is dict:
                found.extend("%s.%s[%r]" % (mname, name, key)
                             for key, item in value.items()
                             if getattr(item, _MARK, False))
    return found
