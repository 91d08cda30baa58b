"""Seeded inputs and operations of the three benchmark workloads.

audit-itree
    The four site audits on the tree site at bound 2, each report
    serialised with canonical_json: 10,194 verdict rows.  itree, core and
    audit do nearly all the work and hom_set repeats heavily.  The inputs
    are fixed; the seed only orders the four audits.
checkers-finsetinj
    Monos f: A -> B between sets of size at most 3, drawn per shape
    (|A|, |B|) in proportion to the number of monos of that shape.  Each
    draw yields four ops: self_intersection_check, compute_K and
    sheaf_check_quotient at depth 3 (against an atom on B whose subgroup
    the seed picks) and coequalize_representables with a seeded parallel
    partner.  Three fixed heavy ops ride along.  finsetinj, presheaf,
    atoms and the aut_group/is_iso/inverse scans dominate; itree idles.
    Drawing a fixed count per shape keeps the pass time nearly equal
    across seeds, since a checker's cost depends mostly on the shape.
cli-small
    Fresh ``python -m atomkit.cli`` processes over small payloads on both
    sites, two seeded draws from each of sixteen command templates.  Two
    templates are malformed inputs that the README says must exit 2: a
    top-level JSON array and a negative ``--bound``.  Interpreter start-up,
    decoding and emitting dominate; every hot path runs once per process.

Inputs come from the seed and from pools written out here or listed in
the library's own key order, never from timing.  Library functions are
looked up on the atomkit package when an op runs, so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from typing import Callable, NamedTuple

import atomkit as ak

AUDITS = ("c1", "c2prime", "c3", "c4")
AUDIT_BOUND = 2
CHECK_DEPTH = 3
MAX_SET = 3
DRAWS_PER_MONO = 4
CLI_DRAWS_PER_TEMPLATE = 2
CLI_MAX_CANDIDATES = 64


class Op(NamedTuple):
    """One timed operation: run() returns (JSON payload, output rows)."""

    key: str
    run: Callable[[], tuple]


# ---------------------------------------------------------------------------
# shared pools and encoders

def _injections(m: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n), m))


def _inj_key(m: int, n: int, values) -> str:
    return "%d>%d:%s" % (m, n, ",".join(map(str, values)))


def _closure(n: int, gens) -> tuple[tuple[int, ...], ...]:
    """The permutation group of {0..n-1} the generators generate."""
    ident = tuple(range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple(g[v] for v in a)
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return tuple(sorted(seen))


def _group_key(n: int, elements) -> str:
    return "%d/%s" % (n, ";".join(",".join(map(str, e)) for e in elements))


def _subgroups(n: int) -> dict[tuple, tuple]:
    """Every subgroup of Sym(n), n <= 3, keyed by its elements, mapped to a
    generating set; below rank 4 two generators always suffice."""
    perms = _injections(n, n)
    out: dict[tuple, tuple] = {}
    for r in range(3):
        for gens in itertools.combinations(perms, r):
            out.setdefault(_closure(n, gens), gens)
    return out


def _verdict(v) -> dict:
    return {"status": v.status, "witness": v.witness, "depth": v.depth_used}


def _audit(condition: str, site: str, bound: int) -> tuple:
    report = getattr(ak, "audit_" + condition)(site, bound)
    return report.to_json(), len(report.verdicts)


def _computek(f, depth: int) -> tuple:
    res = ak.compute_K(f, depth)
    return {"k": ak.object_key(res.k), "j": ak.morphism_key(res.j),
            "unit": ak.morphism_key(res.unit),
            "group": ak.group_name(res.group),
            "group_order": res.group.order,
            "pullback_steps": len(res.steps), **_verdict(res.verdict)}, 1


def _coeq(alpha, beta) -> tuple:
    trace = ak.coequalize_representables(alpha, beta)
    return {"pullback_steps": len(trace.steps),
            "apexes": [ak.object_key(s.apex) for s in trace.steps],
            "result": list(trace.result.describe()),
            "sigma": ak.morphism_key(trace.sigma),
            "quotient_rep": ak.morphism_key(trace.quotient_rep)}, 1


def _decompose(kind: str, size: int) -> tuple:
    build = getattr(ak, kind + "_pairs_fragment")
    return ak.decompose(build(size)).describe(), 1


# ---------------------------------------------------------------------------
# audit-itree

def audit_itree_ops(seed: int) -> list[Op]:
    order = list(AUDITS)
    random.Random(seed).shuffle(order)
    return [Op("audit:%s:itree:%d" % (c, AUDIT_BOUND),
               lambda c=c: _audit(c, "itree", AUDIT_BOUND)) for c in order]


# ---------------------------------------------------------------------------
# checkers-finsetinj

def _heavy_ops() -> list[Op]:
    return [Op("decompose:unordered:5", lambda: _decompose("unordered", 5)),
            Op("decompose:ordered:5", lambda: _decompose("ordered", 5)),
            Op("audit:c4:finsetinj:5", lambda: _audit("c4", "finsetinj", 5))]


def _draw_ops(m: int, n: int, f: tuple, beta: tuple, gens) -> list[Op]:
    """The four checker ops of one drawn mono f: m -> n."""
    mono = ak.make_injection(m, n, f)
    partner = ak.make_injection(m, n, beta)
    atom = ak.make_atom(ak.FinSet(n),
                        [ak.make_injection(n, n, g) for g in gens])
    fk = _inj_key(m, n, f)
    gk = _group_key(n, _closure(n, gens))
    return [
        Op("selfint:" + fk, lambda: (_verdict(
            ak.self_intersection_check(mono, CHECK_DEPTH)), 1)),
        Op("computek:" + fk, lambda: _computek(mono, CHECK_DEPTH)),
        Op("sheafcheck:%s|%s" % (gk, fk), lambda: (_verdict(
            ak.sheaf_check_quotient(atom, mono, CHECK_DEPTH)), 1)),
        Op("coeq:%s|%s" % (fk, _inj_key(m, n, beta)),
           lambda: _coeq(mono, partner)),
    ]


def checkers_draws(seed: int) -> list[tuple]:
    """The seeded draws (m, n, f, beta, generators), DRAWS_PER_MONO per
    mono of each shape, so every seed draws the same shape counts."""
    rng = random.Random(seed)
    draws = []
    for n in range(MAX_SET + 1):
        perms = _injections(n, n)
        for m in range(n + 1):
            injs = _injections(m, n)
            for _ in range(DRAWS_PER_MONO * len(injs)):
                f, beta = rng.choice(injs), rng.choice(injs)
                gens = rng.sample(perms, rng.randint(0, min(2, len(perms))))
                draws.append((m, n, f, beta, tuple(gens)))
    return draws


def checkers_ops(seed: int) -> list[Op]:
    ops = [op for d in checkers_draws(seed) for op in _draw_ops(*d)]
    ops.extend(_heavy_ops())
    random.Random(seed).shuffle(ops)
    return ops


def all_checkers_ops() -> list[Op]:
    """Every op any seed can draw, for recording digests: per mono, one
    self_intersection_check and compute_K, a sheaf check per subgroup of
    Aut(B) and a coequalizer per parallel partner."""
    ops = []
    for n in range(MAX_SET + 1):
        groups = list(_subgroups(n).values())
        for m in range(n + 1):
            injs = _injections(m, n)
            for f in injs:
                for i, gens in enumerate(groups):
                    draw = _draw_ops(m, n, f, f, gens)
                    ops.extend(draw[:3] if i == 0 else draw[2:3])
                ops.extend(_draw_ops(m, n, f, beta, ())[3] for beta in injs)
    return ops + _heavy_ops()


def checker_atoms(seed: int) -> list:
    """The distinct atoms the seed's sheaf checks run against."""
    seen = {}
    for _m, n, _f, _beta, gens in checkers_draws(seed):
        seen.setdefault(_group_key(n, _closure(n, gens)), (n, gens))
    return [ak.make_atom(ak.FinSet(n), [ak.make_injection(n, n, g)
                                        for g in gens])
            for _k, (n, gens) in sorted(seen.items())]


# ---------------------------------------------------------------------------
# cli-small

TREE_SPECS = (
    ("leaf",),
    ("tail", "i"),
    ("tail", "j"),
    ("node", ("leaf",), ("leaf",)),
    ("node", ("tail", "i"), ("tail", "i")),
    ("node", ("tail", "i"), ("tail", "j")),
    ("node", ("tail", "j"), ("tail", "j")),
    ("node", ("leaf",), ("node", ("leaf",), ("leaf",))),
    ("node", ("leaf",), ("node", ("tail", "i"), ("tail", "i"))),
    ("node", ("leaf",), ("node", ("tail", "i"), ("tail", "j"))),
    ("node", ("leaf",), ("node", ("tail", "j"), ("tail", "j"))),
    ("node", ("tail", "i"), ("node", ("leaf",), ("leaf",))),
    ("node", ("tail", "j"), ("node", ("leaf",), ("leaf",))),
)

BAD_ARRAYS = ([], [1, 2], [{"size": 2}])
BAD_ARRAY_COMMANDS = (("tree", "stats"), ("tree", "regmono"),
                      ("presheaf", "selfint"), ("presheaf", "computek"))
MALFORMED = ("bad-array", "bad-bound")


def _thin(items: list, cap: int = CLI_MAX_CANDIDATES) -> list:
    """At most cap items, evenly spaced, first one kept."""
    return items[::math.ceil(len(items) / cap)] if len(items) > cap else items


class CliPools:
    """Objects the cli templates draw from, built once per process."""

    def __init__(self):
        self.trees = [ak.build(t) for t in TREE_SPECS]
        self.tree_monos = [f for x in self.trees for y in self.trees
                           for f in sorted(ak.hom_set(x, y),
                                           key=ak.morphism_key)]
        self.monos = [ak.make_injection(m, n, f)
                      for n in range(MAX_SET + 1) for m in range(n + 1)
                      for f in _injections(m, n)]
        self.set_atoms = [ak.make_atom(ak.FinSet(n),
                                       [ak.make_injection(n, n, g)
                                        for g in gens])
                          for n in range(MAX_SET + 1)
                          for gens in _subgroups(n).values()]
        self._tree_atoms: dict = {}

    def tree_atoms(self, tree) -> list:
        """One atom per subgroup of Aut(tree), two generators at most."""
        if tree not in self._tree_atoms:
            elems = ak.aut_group(tree).elements
            seen = {}
            for r in range(3):
                for gens in itertools.combinations(elems, r):
                    grp = ak.subgroup_generated(tree, gens)
                    seen.setdefault(tuple(ak.morphism_key(g)
                                          for g in grp.elements), gens)
            self._tree_atoms[tree] = [ak.make_atom(tree, gens)
                                      for gens in seen.values()]
        return self._tree_atoms[tree]


def templates(pools: CliPools) -> dict[str, list]:
    """Candidates per template: (command words, payloads, extra flags).

    A payload is an (encoder, value) pair, encoded only when written.
    """
    obj, mor, atom = ak.encode_object, ak.encode_morphism, ak.encode_atom
    depths = (1, 2, 3)
    tm = pools.tree_monos
    pairs = [(f, g) for f in tm for g in tm]
    return {
        "tree-stats": [(["tree", "stats"], [(obj, t)], [])
                       for t in pools.trees],
        "tree-embeddings": [(["tree", "embeddings"],
                             [(obj, x), (obj, y)], [])
                            for x in pools.trees for y in pools.trees],
        "tree-pullback": _thin([(["tree", "pullback"],
                                 [(mor, f), (mor, g)], [])
                                for f, g in pairs if f.cod == g.cod]),
        "tree-amalgamate": _thin([(["tree", "amalgamate"],
                                   [(mor, f), (mor, g)], [])
                                  for f, g in pairs if f.dom == g.dom]),
        "coeq-itree": _thin([(["coeq"], [(mor, f), (mor, g)], [])
                             for f, g in pairs
                             if f.dom == g.dom and f.cod == g.cod]),
        "coeq-finsetinj": [(["coeq"], [(mor, f), (mor, g)], [])
                           for f in pools.monos for g in pools.monos
                           if f.dom == g.dom and f.cod == g.cod],
        "atoms-make": [(["atoms", "make"], [(atom, a)], [])
                       for a in pools.set_atoms
                       + [a for t in pools.trees
                          for a in pools.tree_atoms(t)]],
        "atoms-hom": [(["atoms", "hom"], [(atom, a), (atom, b)], [])
                      for a in pools.set_atoms for b in pools.set_atoms],
        "selfint-finsetinj": [(["presheaf", "selfint"], [(mor, f)],
                               ["--depth", str(d)])
                              for f in pools.monos for d in depths],
        "computek-finsetinj": [(["presheaf", "computek"], [(mor, f)],
                                ["--depth", str(d)])
                               for f in pools.monos for d in depths],
        "selfint-itree": _thin([(["presheaf", "selfint"], [(mor, f)],
                                 ["--depth", str(d)])
                                for f in tm for d in depths]),
        "sheafcheck-itree": _thin([(["presheaf", "sheafcheck"],
                                    [(atom, a), (mor, f)],
                                    ["--depth", str(d)])
                                   for f in tm
                                   for a in pools.tree_atoms(f.cod)
                                   for d in depths]),
        "decompose": [(["presheaf", "decompose"],
                       [(_fragment, (kind, size))], [])
                      for kind in ("unordered", "ordered")
                      for size in (2, 3)],
        "audit": [(["audit"], [], ["--condition", c, "--site", s,
                                   "--bound", "1"])
                  for c in AUDITS for s in ("finsetinj", "itree")],
        "bad-array": [(list(cmd), [(_literal, bad)], [])
                      for cmd in BAD_ARRAY_COMMANDS for bad in BAD_ARRAYS],
        "bad-bound": [(["audit"], [], ["--condition", c, "--site", s,
                                       "--bound", "-3"])
                      for c in AUDITS for s in ("finsetinj", "itree")],
    }


def _fragment(spec) -> dict:
    kind, size = spec
    return ak.encode_fragment(getattr(ak, kind + "_pairs_fragment")(size))


def _literal(value):
    return value


def cli_picks(seed: int, names) -> list[tuple[str, int]]:
    """The seeded (template, candidate index) picks of one pass."""
    rng = random.Random(seed)
    picks = []
    for name in sorted(names):
        size = names[name]
        picks.extend((name, rng.randrange(size))
                     for _ in range(CLI_DRAWS_PER_TEMPLATE))
    rng.shuffle(picks)
    return picks


def cli_plan(seed: int | None, directory: str) -> list[dict]:
    """Write the payload files of one pass (every candidate when seed is
    None) into directory and return the ops: key, argv after
    ``python -m atomkit.cli``, and whether the input is malformed."""
    cands = templates(CliPools())
    if seed is None:
        picks = [(name, i) for name in sorted(cands)
                 for i in range(len(cands[name]))]
    else:
        picks = cli_picks(seed, {k: len(v) for k, v in cands.items()})
    plan = []
    for n, (name, index) in enumerate(picks):
        words, payloads, flags = cands[name][index]
        files = []
        for j, (encode, value) in enumerate(payloads):
            path = os.path.join(directory, "op%d-%d.json" % (n, j))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(encode(value), fh, sort_keys=True)
            files.append(path)
        plan.append({"key": "%s:%d" % (name, index),
                     "argv": words + files + flags,
                     "malformed": name in MALFORMED})
    return plan


def cli_oracle_inputs(key: str, pools: CliPools):
    """The decoded inputs of a counting cli op, or None."""
    name, index = key.rsplit(":", 1)
    i = int(index)
    if name == "tree-embeddings":
        n = len(pools.trees)
        return name, (pools.trees[i // n], pools.trees[i % n])
    if name == "atoms-hom":
        n = len(pools.set_atoms)
        return name, (pools.set_atoms[i // n], pools.set_atoms[i % n])
    return None


# ---------------------------------------------------------------------------

def ops(workload: str, seed: int) -> list[Op]:
    if workload == "audit-itree":
        return audit_itree_ops(seed)
    if workload == "checkers-finsetinj":
        return checkers_ops(seed)
    raise ValueError("no in-process ops for workload %r" % workload)
