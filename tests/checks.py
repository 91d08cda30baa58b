"""Checks that only tests need.

pullback_is_universal tests the limit property of a pullback square
against test objects.  tree_table_problems and injection_problems
restate the shape invariants that the FinitaryTree and Injection
constructors do not check, so tests can hold every value the library
assembles to them; tree_index_problems recomputes the indices that the
tree builder's finish step stores on every tree and the tables a tree
computes on first use, embedding_hash_problems the hash an
embedding stores, and tail_route_problems the order make_embedding gives
the tail routes.  c1_witness_digest hashes every cocone and regular-mono
witness behind the itree C1 audit, legs included, and checker_digest
every compute_K and self_intersection_check result on the finsetinj
monos up to a size.  sheaf_digest hashes every sheaf_check_quotient
verdict of the atoms that pool_atoms lists over an object pool on the
non-iso monos of the pool, and local_iso_digest every local_iso_check
verdict of the maps between those atoms.  self_intersection_reference
is the self-intersection check that tests every arrow against every
pair, listed once.
atom_census groups the finsetinj atoms (n, G) into isomorphism classes.
"""

import collections
import hashlib
import itertools

from atomkit import (CheckVerdict, FinSet, amalgamate, atom_hom,
                     atom_iso_formal, canonical_json, checker_objects,
                     compose, compute_K, encode_atom, factor, hom_set, is_iso,
                     local_iso_check, make_atom, morphism_key, object_key,
                     self_intersection_check, sheaf_check_quotient)
from atomkit.core import backend_of
from atomkit.itree import INTERNAL, LEAF, TAIL, regular_mono_witness
from atomkit.presheaf import _equalized_pairs, object_pool

from oracles import all_subgroups


def pullback_is_universal(square, test_objects) -> bool:
    """Check the limit property of the square against a family of test objects.

    For every cone (p, q) from a test object there must be exactly one
    mediating morphism into the apex.
    """
    for w in test_objects:
        homs_a = hom_set(w, square.left.dom)
        homs_b = hom_set(w, square.right.dom)
        mediators = hom_set(w, square.apex)
        for p in homs_a:
            pf = compose(p, square.left)
            for q in homs_b:
                if pf != compose(q, square.right):
                    continue
                hits = [m for m in mediators
                        if compose(m, square.to_left) == p
                        and compose(m, square.to_right) == q]
                if len(hits) != 1:
                    return False
    return True


def tree_table_problems(tree) -> list[str]:
    """Every way the node table breaks the tree invariants: a root at 0,
    equal-length fields, binary internal nodes without labels, childless
    leaves and tails with a label exactly on tails, one parent per node,
    and every node reachable from the root."""
    n = len(tree.kinds)
    if n == 0:
        return ["no root node"]
    if len(tree.children) != n or len(tree.labels) != n:
        return ["node table fields have mismatched lengths"]
    problems, parents = [], {}
    for i, kind in enumerate(tree.kinds):
        ch, label = tree.children[i], tree.labels[i]
        if kind == INTERNAL:
            if ch is None or len(ch) != 2:
                problems.append("internal node %d is not binary" % i)
                continue
            if label is not None:
                problems.append("internal node %d carries a label" % i)
            for c in ch:
                if not 0 <= c < n or c == 0 or c in parents:
                    problems.append("child %r of node %d is out of range or "
                                    "has two parents" % (c, i))
                parents[c] = i
        elif kind in (LEAF, TAIL):
            if ch is not None:
                problems.append("%s node %d has children" % (kind, i))
            if (label is not None) != (kind == TAIL) or \
                    (label is not None and not isinstance(label, str)):
                problems.append("node %d: labels belong to tail nodes only"
                                % i)
        else:
            problems.append("node %d has unknown kind %r" % (i, kind))
    if not problems:
        reached, todo = {0}, [0]
        while todo:
            for c in tree.children[todo.pop()] or ():
                reached.add(c)
                todo.append(c)
        if len(reached) != n:
            problems.append("nodes %s are unreachable"
                            % sorted(set(range(n)) - reached))
    return problems


def tree_index_problems(tree) -> list[str]:
    """Every stored per-tree index that differs from the one recomputed
    from the node table: the parent map, the tail ids, the branch path of
    each tail, the object_key string, the hash of the fields, the denoted
    children of each node, the two subtree tables and the comb layouts,
    each recomputed by a walk below every node."""
    parents = [None] * len(tree.kinds)
    for i, ch in enumerate(tree.children):
        for c in ch or ():
            parents[c] = i
    tails = tuple(i for i, kind in enumerate(tree.kinds) if kind == TAIL)
    paths = {}
    for t in tails:
        path = [t]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        paths[t] = tuple(reversed(path))

    def key(i):
        if tree.kinds[i] == LEAF:
            return "L"
        if tree.kinds[i] == TAIL:
            return "T(%s)" % tree.labels[i]
        a, b = tree.children[i]
        return "(%s %s)" % (key(a), key(b))

    def child_addrs(i):
        if tree.kinds[i] == INTERNAL:
            return tuple((0, c) for c in tree.children[i])
        if tree.kinds[i] == TAIL:
            return ((1, i, 1, 0), (1, i, 1, 1))
        return None

    def comb(i):
        """The tail id when the subtree below i is a pure continuation."""
        if tree.kinds[i] != INTERNAL:
            return i if tree.kinds[i] == TAIL else None
        a, b = tree.children[i]
        if comb(a) is not None and tree.kinds[b] == LEAF:
            return comb(a)
        if comb(b) is not None and tree.kinds[a] == LEAF:
            return comb(b)
        return None

    def labels(i):
        todo, found = [i], set()
        while todo:
            j = todo.pop()
            if tree.kinds[j] == TAIL:
                found.add(tree.labels[j])
            todo.extend(tree.children[j] or ())
        return frozenset(found)

    def layout(i):
        """Each node below i with its depth below i, side 0 on the branch
        to the tail comb(i) and side 1 off it, sorted; None off a comb."""
        if comb(i) is None:
            return None
        on, j = {i}, comb(i)
        while j != i:
            on.add(j)
            j = parents[j]
        found, todo = [], [(i, 0)]
        while todo:
            j, rel = todo.pop()
            found.append((j, rel, 0 if j in on else 1))
            todo.extend((c, rel + 1) for c in tree.children[j] or ())
        return sorted(found)

    nodes = range(len(tree.kinds))
    want = {"parents": tuple(parents), "tail_ids": tails, "paths": paths,
            "key": key(0),
            "hash": hash((tree.kinds, tree.children, tree.labels)),
            "child_addrs": tuple(child_addrs(i) for i in nodes),
            "comb_tails": tuple(comb(i) for i in nodes),
            "label_sets": tuple(labels(i) for i in nodes),
            "comb_layouts": tuple(layout(i) for i in nodes)}
    got = {"parents": tree.parents, "tail_ids": tree.tail_ids,
           "paths": tree.paths, "key": object_key(tree), "hash": hash(tree),
           "child_addrs": tree.child_addrs, "comb_tails": tree.comb_tails,
           "label_sets": tree.label_sets,
           "comb_layouts": tuple(None if rows is None else sorted(rows)
                                 for rows in tree.comb_layouts)}
    return ["stored %s %r differs from %r" % (name, got[name], want[name])
            for name in want if got[name] != want[name]]


def embedding_hash_problems(emb) -> list[str]:
    """The stored hash of a tree embedding, when it differs from the
    hash of the tuple of its fields."""
    want = hash((emb.dom, emb.cod, emb.explicit_images, emb.tail_routes))
    if hash(emb) != want:
        return ["stored embedding hash %r differs from %r" % (hash(emb), want)]
    return []


def tail_route_problems(emb) -> list[str]:
    """The tail routes of a tree embedding, when they are not ascending
    by source tail."""
    sources = [t for t, _s, _e in emb.tail_routes]
    if any(a >= b for a, b in zip(sources, sources[1:])):
        return ["tail routes %r are not ascending by source tail"
                % (emb.tail_routes,)]
    return []


def injection_problems(f) -> list[str]:
    """Every way f breaks the injection shape: one value per domain
    point, values inside the codomain, no value twice."""
    problems = []
    if len(f.map) != f.dom.size:
        problems.append("map length %d differs from domain size %d"
                        % (len(f.map), f.dom.size))
    if any(not 0 <= v < f.cod.size for v in f.map):
        problems.append("map value out of codomain range")
    if len(set(f.map)) != len(f.map):
        problems.append("map is not injective")
    return problems


def c1_witness_digest(bound: int) -> str:
    """SHA-256 over what the itree C1 audit at bound builds, in its row
    order: one canonical_json line per row, the object_key of the cocone
    object and the morphism_key of each leg for a span, and the same
    three keys of regular_mono_witness (the doubled tree, e1, e2) for a
    mono.  The audit report names only each cocone's object."""
    objects = object_pool("itree", bound)
    homs = {(a, b): hom_set(a, b) for a, b in itertools.product(objects,
                                                                 objects)}
    digest = hashlib.sha256()

    def row(obj, left, right):
        line = canonical_json([object_key(obj), morphism_key(left),
                               morphism_key(right)])
        digest.update(line.encode("utf-8") + b"\n")

    for a, b in itertools.product(objects, objects):
        for f in homs[a, b]:
            for x in objects:
                for g in homs[a, x]:
                    cone = amalgamate(f, g)
                    row(cone.obj, cone.from_left, cone.from_right)
    for a, b in itertools.product(objects, objects):
        for m in homs[a, b]:
            row(*regular_mono_witness(m))
    return digest.hexdigest()


def checker_digest(size: int, depth: int) -> str:
    """SHA-256 over compute_K and self_intersection_check at depth on
    every finsetinj mono m -> n with n <= size, n and then m ascending,
    each hom-set in its order: one canonical_json line per mono, with
    the mono's key, then k, j, the unit, the group's elements, each
    pullback step's apex and projections and the verdict of compute_K,
    then the self-intersection verdict."""
    digest = hashlib.sha256()
    for n in range(size + 1):
        for m in range(n + 1):
            for f in hom_set(FinSet(m), FinSet(n)):
                res = compute_K(f, depth)
                sint = self_intersection_check(f, depth)
                line = canonical_json([
                    morphism_key(f), object_key(res.k), morphism_key(res.j),
                    morphism_key(res.unit),
                    [morphism_key(s) for s in res.group.elements],
                    [[object_key(sq.apex), morphism_key(sq.to_left),
                      morphism_key(sq.to_right)] for sq in res.steps],
                    [res.verdict.status, res.verdict.witness,
                     res.verdict.depth_used],
                    [sint.status, sint.witness, sint.depth_used]])
                digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def pool_atoms(site: str, bound: int) -> list:
    """The atom (x, G) for every object x of object_pool(site, bound) and
    every subgroup G of its automorphisms that oracles.all_subgroups
    lists, in that order."""
    return [make_atom(x, g.generators) for x in object_pool(site, bound)
            for g in all_subgroups(x)]


def _verdict_digest(rows) -> tuple[str, dict]:
    """The SHA-256 over (key, verdict) rows, one canonical_json line per
    row: the key's items, then the status, witness and depth of the
    verdict; and the number of rows of each status."""
    digest, counts = hashlib.sha256(), collections.Counter()
    for key, verdict in rows:
        counts[verdict.status] += 1
        line = canonical_json(key + [verdict.status, verdict.witness,
                                     verdict.depth_used])
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest(), dict(counts)


def sheaf_digest(site: str, bound: int, depth: int) -> tuple[str, dict]:
    """sheaf_check_quotient at depth for every atom of pool_atoms(site,
    bound) on every mono between objects of object_pool(site, bound)
    that is not an iso, as _verdict_digest hashes and counts it.  The
    atoms run outermost; the covers run domain, then codomain, in pool
    order and each hom-set in its order.  A row's key is the atom's
    encode_atom payload and the cover's key."""
    objects = object_pool(site, bound)
    covers = [q for s in objects for t in objects for q in hom_set(s, t)
              if not is_iso(q)]
    return _verdict_digest(
        ([encode_atom(atom), morphism_key(q)],
         sheaf_check_quotient(atom, q, depth))
        for atom in pool_atoms(site, bound) for q in covers)


def local_iso_digest(site: str, bound: int, context_bound: int,
                     depth: int) -> tuple[str, dict]:
    """local_iso_check at depth, on the context object_pool(site,
    context_bound), for every derived map between two atoms of
    pool_atoms(site, bound), as _verdict_digest hashes and counts it.
    The source atom runs outermost, then the target atom, then atom_hom
    order.  A row's key is the two atoms' encode_atom payloads and the
    key of the map's representative."""
    atoms = pool_atoms(site, bound)
    context = object_pool(site, context_bound)
    return _verdict_digest(
        ([encode_atom(a), encode_atom(b), morphism_key(m.rep)],
         local_iso_check(m, context, depth))
        for a in atoms for b in atoms for m in atom_hom(a, b))


def self_intersection_reference(f, depth: int) -> CheckVerdict:
    """self_intersection_check as a scan of every listed arrow u against
    every pair f equalizes: u is excluded when some pair (alpha, beta)
    has u;beta not factoring through alpha.  The first u that neither
    factors through f nor is excluded is the witness."""
    a_obj, b_obj = f.dom, f.cod
    objects = checker_objects(f.site, depth, (a_obj, b_obj))
    covered = backend_of(f).pairs_covered(depth, (a_obj, b_obj), b_obj, a_obj)
    pairs = list(_equalized_pairs(f, objects))

    def excludes(u) -> bool:
        return any(factor(compose(u, beta), alpha) is None
                   for alpha, betas in pairs for beta in betas)

    checked = 0
    for y in objects:
        for u in hom_set(y, b_obj):
            checked += 1
            if factor(u, f) is not None or excludes(u):
                continue
            witness = {"reason": "compatible arrow does not factor",
                       "u": morphism_key(u), "through": morphism_key(f)}
            return CheckVerdict("fail" if covered else "unknown",
                                witness, depth)
    return CheckVerdict("pass", {"arrows_checked": checked,
                                 "pair_bound_exhaustive": covered}, depth)


def atom_census(n: int) -> list[list]:
    """The atoms (n, G) of the finsetinj site, one per subgroup G of S_n
    that oracles.all_subgroups lists, grouped by atom_iso_formal: each
    class in listing order, its first atom the representative.  There
    is one class per conjugacy class of subgroups of S_n."""
    classes: list[list] = []
    for g in all_subgroups(FinSet(n)):
        atom = make_atom(FinSet(n), g.generators)
        for cls in classes:
            if atom_iso_formal(cls[0], atom) is not None:
                cls.append(atom)
                break
        else:
            classes.append([atom])
    return classes
