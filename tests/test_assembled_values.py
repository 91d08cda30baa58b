"""Every value the library assembles keeps the invariants that the
FinitaryTree and Injection constructors trust instead of checking: the
tree-table and injection-shape checks of checks.py, and check_embedding
for tree embeddings.  Every tree also carries the indices that the
builder's finish step stores and the subtree tables, equal to the ones
recomputed from its node table, and every embedding the hash of its
fields and its tail routes ascending by source tail (make_embedding
relies on the order of tail_ids instead of sorting them)."""

import pytest

from atomkit import (FinitaryTree, FinSet, Injection, SiteError, Span,
                     amalgamate, backend, build, compose, decode_object,
                     encode_object, hom_set, leaf, node, pullback, tail)
from atomkit.itree import (_Builder, _overlay, canonical_form, check_embedding,
                           enumerate_trees, equalizer_of, regular_mono_witness)

from checks import (embedding_hash_problems, injection_problems,
                    tail_route_problems, tree_index_problems,
                    tree_table_problems)

BOUND = 2


def _tree_problems(tree) -> list:
    return tree_table_problems(tree) or tree_index_problems(tree)


def _problems(value) -> list:
    if isinstance(value, FinitaryTree):
        return _tree_problems(value)
    if isinstance(value, FinSet):
        return []  # FinSet still checks its size
    if isinstance(value, Injection):
        return injection_problems(value)
    found = (_tree_problems(value.dom) + _tree_problems(value.cod)
             + embedding_hash_problems(value) + tail_route_problems(value))
    if not found:
        try:
            check_embedding(value)
        except SiteError as exc:
            found.append(str(exc))
    return found


def _assembled(pool) -> list:
    """hom_set, then (through compose), pullback and amalgamate over the
    pool, with every value each of them returns."""
    arrows = [f for a in pool for b in pool for f in hom_set(a, b)]
    made = list(arrows)
    for f in arrows:
        for g in arrows:
            if f.cod == g.dom:
                made.append(compose(f, g))
            if f.cod == g.cod:
                sq = pullback(f, g)
                made += [sq.apex, sq.to_left, sq.to_right]
            if f.dom == g.dom:
                cone = amalgamate(Span(f, g))
                made += [cone.obj, cone.from_left, cone.from_right]
    return made


def _carved(host, addr):
    """The denoted subtree of host below addr, overlaid on a point."""
    out = _Builder(host, build(leaf()))
    _overlay(out, None, None, None, addr, (0, 0), None)
    return out.finish()


def _tree_only(pool) -> list:
    """Comb-padded encodings, whose combs run through internal nodes,
    canonical_form (also of those), the subtree carved at every explicit
    node and first comb step, regular_mono_witness, and equalizer_of with
    its inclusion, on each witness pair and on every parallel pair of the
    pool."""
    padded = [build(node(tail("i"), leaf())),
              build(node(leaf(), node(leaf(), tail("j"))))]
    made = list(padded)
    for t in pool + padded:
        made.append(canonical_form(t))
        addrs = [(0, i) for i in range(t.n_nodes)]
        addrs += [(1, tid, 1, side) for tid in t.tail_ids for side in (0, 1)]
        made += [_carved(t, a) for a in addrs]
    for a in pool:
        for b in pool:
            arrows = hom_set(a, b)
            for m in arrows:
                witness = regular_mono_witness(m)
                made += list(witness) + list(equalizer_of(*witness[1:]))
            for e1 in arrows:
                for e2 in arrows:
                    made += list(equalizer_of(e1, e2))
    return made


@pytest.mark.parametrize("site", ["finsetinj", "itree"])
def test_assembled_values_keep_the_constructor_invariants(site):
    pool = backend(site).objects_up_to(BOUND)
    made = _assembled(pool)
    if site == "itree":
        made += _tree_only(pool)
        trees = list(dict.fromkeys(v for v in made
                                   if isinstance(v, FinitaryTree)))
        made += [canonical_form(v) for v in trees]
        made += [decode_object(encode_object(v)) for v in trees]
    assert len(made) > len(pool)
    bad = [(v, p) for v in made for p in _problems(v)]
    assert bad == []


def test_enumerated_trees_keep_the_tree_invariants():
    """Larger trees than the audit pool: up to three tails and seven
    explicit nodes."""
    trees = enumerate_trees(3, 7, ("i", "j"))
    assert len(trees) > len(backend("itree").objects_up_to(BOUND))
    assert [(t.key, p) for t in trees for p in _tree_problems(t)] == []
