"""Independent reference computations the tests compare against.

Nothing here reuses the library's search code: embeddings are counted by
filtering the raw candidate space, and maps between quotients of
representables are counted through their generator images.
"""

import itertools

from atomkit import aut_group, compose, hom_set, morphism_key, subgroup_generated
from atomkit.itree import TreeEmbedding, check_embedding, denoted_children

from atomkit.core import SiteError


def count_embeddings_by_filter(X, Y) -> int:
    """Swap-bit candidate enumeration: one bit per internal source node,
    one target-tail choice per source tail, images propagated from the
    root, the full validator applied last."""
    internal = [i for i, k in enumerate(X.kinds) if k == "internal"]
    count = 0
    for bits in itertools.product((0, 1), repeat=len(internal)):
        flip = dict(zip(internal, bits))
        images = [None] * X.n_nodes
        images[0] = (0, 0)
        stack, dead = [0], False
        while stack:
            x = stack.pop()
            if X.kinds[x] != "internal":
                continue
            yc = denoted_children(Y, images[x])
            if yc is None:
                dead = True
                break
            c1, c2 = X.children[x]
            if flip[x]:
                yc = (yc[1], yc[0])
            images[c1], images[c2] = yc
            stack += [c1, c2]
        if dead:
            continue
        for targets in itertools.product(Y.tail_ids, repeat=len(X.tail_ids)):
            routes = []
            for t, s in zip(X.tail_ids, targets):
                img = images[t]
                routes.append((t, s, img[2] if img[0] == 1 else 0))
            cand = TreeEmbedding(X, Y, tuple(images), tuple(sorted(routes)))
            try:
                check_embedding(cand)
            except SiteError:
                continue
            count += 1
    return count


def all_subgroups(obj) -> list:
    """Every subgroup of aut_group(obj) that at most two elements
    generate, via closure of generator pairs, on either site.

    On the finsetinj site that is every subgroup of S_n for n <= 5, as
    each is 2-generated (V4, D4 and A4 in S_4 included); atom_census
    checks the counts against OEIS A005432.  From n = 6 on it is not:
    C2 x C2 x C2 in S_6 needs three generators.
    """
    elems = aut_group(obj).elements
    seen = {}
    for r in range(3):
        for gens in itertools.combinations(elems, r):
            g = subgroup_generated(obj, gens)
            seen.setdefault(frozenset(g.elements), g)
    return list(seen.values())


def _orbit_labels(arrows, group) -> dict:
    label, nxt = {}, 0
    for f in arrows:
        if morphism_key(f) in label:
            continue
        for s in group.elements:
            label[morphism_key(compose(s, f))] = nxt
        nxt += 1
    return label


def count_natural_maps(a, b, objects) -> int:
    """Natural transformations Hom(a.base,-)/G -> Hom(b.base,-)/H on the
    listed objects.

    Such a map is fixed by the image of the generating class [id] in
    Hom(b.base, a.base)/H; a candidate class survives iff transporting it
    along equal source classes never disagrees, checked object by object
    over the raw hom-sets.
    """
    gen_arrows = hom_set(b.base, a.base)
    gen_label = _orbit_labels(gen_arrows, b.group)
    reps, seen = [], set()
    for r in gen_arrows:
        if gen_label[morphism_key(r)] not in seen:
            seen.add(gen_label[morphism_key(r)])
            reps.append(r)
    tables = []
    for x in objects:
        fa = hom_set(a.base, x)
        tables.append((fa, _orbit_labels(fa, a.group),
                       _orbit_labels(hom_set(b.base, x), b.group)))
    count = 0
    for r in reps:
        ok = True
        for fa, alab, blab in tables:
            chosen = {}
            for f in fa:
                src = alab[morphism_key(f)]
                dst = blab[morphism_key(compose(r, f))]
                if chosen.setdefault(src, dst) != dst:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count
