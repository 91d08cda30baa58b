"""The finitary labeled-tree backend: validation, stats, embeddings,
pullbacks, amalgamation, and the regular-mono and zig-zag witnesses."""

import itertools
import random

import pytest

from atomkit import (
    SiteError,
    Span,
    backend,
    build,
    compose,
    decode_object,
    encode_object,
    enumerate_embeddings,
    enumerate_trees,
    factor,
    hom_set,
    identity,
    is_iso,
    leaf,
    make_embedding,
    morphism_key,
    node,
    object_key,
    pullback,
    rank,
    tail,
    tree_stats,
    validate_tree,
)
from atomkit.itree import (
    _Builder,
    _overlay,
    branch_index,
    c2prime_witness,
    canonical_form,
    check_embedding,
    denoted_children,
    equalizer_of,
    preimage_fn,
    regular_mono_witness,
    same_subtree,
    tree_amalgamate,
)

from checks import pullback_is_universal
from oracles import count_embeddings_by_filter

T1 = build(leaf())
T3 = build(node(leaf(), leaf()))
T5 = build(node(node(leaf(), leaf()), leaf()))
TAIL_I = build(tail("i"))
TAIL_J = build(tail("j"))


def _tree_payload(nodes):
    return {"site": "itree", "root": 0, "nodes": nodes}


def test_validate_tree_accepts_basic_shapes():
    assert validate_tree(_tree_payload([{"id": 0, "kind": "leaf"}])) == T1
    t3 = validate_tree(_tree_payload([
        {"id": 0, "kind": "internal", "children": [1, 2]},
        {"id": 1, "kind": "leaf"},
        {"id": 2, "kind": "leaf"},
    ]))
    assert t3 == T3
    assert tree_stats(t3).branch_count == 0


def test_validate_tree_rejects_non_binary_node():
    with pytest.raises(SiteError):
        validate_tree(_tree_payload([
            {"id": 0, "kind": "internal", "children": [1]},
            {"id": 1, "kind": "leaf"},
        ]))


def test_validate_tree_rejects_unreachable_and_cyclic_nodes():
    with pytest.raises(SiteError):
        validate_tree(_tree_payload([
            {"id": 0, "kind": "leaf"},
            {"id": 1, "kind": "leaf"},
        ]))
    with pytest.raises(SiteError):
        validate_tree(_tree_payload([
            {"id": 0, "kind": "internal", "children": [1, 0]},
            {"id": 1, "kind": "leaf"},
        ]))


def test_validate_tree_rejects_unlabeled_tail():
    with pytest.raises(SiteError):
        validate_tree(_tree_payload([{"id": 0, "kind": "tail"}]))


def test_build_rejects_an_unlabeled_tail():
    with pytest.raises(SiteError):
        build(node(leaf(), ("tail", None)))


def test_canonical_form_collapses_redundant_combs():
    padded = build(node(tail("i"), leaf()))
    assert canonical_form(padded) == TAIL_I
    assert object_key(canonical_form(padded)) == object_key(TAIL_I)


def test_tree_stats():
    assert tree_stats(T1) == (0, 1, rank(T1))
    assert tree_stats(T3).f_count == 3
    assert tree_stats(T5).rank.components == (0, 5)
    assert tree_stats(TAIL_I) == (1, 0, rank(TAIL_I))


def test_embeddings_from_single_leaf_are_unique():
    for y in (T1, T3, T5, TAIL_I, build(node(tail("i"), tail("j")))):
        assert len(enumerate_embeddings(T1, y)) == 1


def test_embedding_counts_on_named_pairs():
    assert len(enumerate_embeddings(T3, T3)) == 2
    assert len(enumerate_embeddings(T3, T1)) == 0
    assert len(enumerate_embeddings(T3, T5)) == 2
    assert len(enumerate_embeddings(TAIL_I, TAIL_I)) == 1
    assert len(enumerate_embeddings(TAIL_I, TAIL_J)) == 0


def test_embedding_counts_match_filter_oracle_on_random_pairs():
    pool = enumerate_trees(3, 7, ("i", "j"))
    rng = random.Random(20260815)
    for _ in range(50):
        x, y = rng.choice(pool), rng.choice(pool)
        assert len(enumerate_embeddings(x, y)) == count_embeddings_by_filter(x, y)


def test_embeddings_compose_within_hom_sets():
    pool = enumerate_trees(2, 5, ("i", "j"))
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        fs, gs = enumerate_embeddings(x, y), enumerate_embeddings(y, z)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        assert compose(f, g) in enumerate_embeddings(x, z)


def _stepped_image(g, addr):
    """g's image of addr, walked one denoted level at a time from the
    image of the tail along its route."""
    if addr[0] == 0:
        return g.explicit_images[addr[1]]
    _, t, k, side = addr
    s, here = g.route(t), g.explicit_images[t]
    for step in range(1, k + 1):
        a, b = denoted_children(g.cod, here)
        on, off = (a, b) if branch_index(g.cod, s, a) is not None else (b, a)
        here = off if step == k and side == 1 else on
    return here


@pytest.mark.parametrize("bound", [1, 2])
def test_then_matches_the_reference_composite(bound):
    pool = backend("itree").objects_up_to(bound)
    arrows = [f for a in pool for b in pool for f in hom_set(a, b)]
    composed = 0
    for f in arrows:
        for g in arrows:
            if f.cod != g.dom:
                continue
            got = f.then(g)
            want = make_embedding(
                f.dom, g.cod, tuple(g.image(a) for a in f.explicit_images),
                {t: g.route(s) for t, s, _e in f.tail_routes})
            assert got == want
            assert morphism_key(got) == morphism_key(want)
            assert got.sort_key() == want.sort_key()
            check_embedding(got)
            assert [g.image(a) for a in f.explicit_images] == \
                [_stepped_image(g, a) for a in f.explicit_images]
            composed += 1
    assert composed > len(arrows)


def test_pullback_along_identity_and_diagonal():
    f = enumerate_embeddings(T3, T5)[0]
    sq = pullback(f, identity(T5))
    assert sq.apex == T3
    diag = pullback(f, f)
    assert diag.apex == T3
    assert is_iso(diag.to_left) and is_iso(diag.to_right)


def test_pullback_of_leaf_and_t3_inside_t5():
    f = enumerate_embeddings(T1, T5)[0]
    g = enumerate_embeddings(T3, T5)[0]
    sq = pullback(f, g)
    assert sq.apex == T1
    assert pullback_is_universal(sq, [T1, T3, T5])


def test_pullback_universal_property_sampled():
    pool = enumerate_trees(2, 5, ("i", "j"))
    rng = random.Random(11)
    for _ in range(60):
        z = rng.choice(pool)
        legs = [m for x in pool for m in enumerate_embeddings(x, z)]
        if not legs:
            continue
        f, g = rng.choice(legs), rng.choice(legs)
        assert pullback_is_universal(pullback(f, g), pool)


def test_amalgamate_identity_span_returns_the_object():
    cone = tree_amalgamate(Span(identity(T3), identity(T3)))
    assert cone.obj == T3
    assert is_iso(cone.from_left)


def test_amalgamate_splits_on_distinct_labels():
    span = Span(enumerate_embeddings(T1, TAIL_I)[0],
                enumerate_embeddings(T1, TAIL_J)[0])
    cone = tree_amalgamate(span)
    assert object_key(cone.obj) == "(T(i) T(j))"
    assert compose(span.left, cone.from_left) == compose(span.right, cone.from_right)


def test_amalgamate_merges_equal_labels():
    span = Span(enumerate_embeddings(T1, TAIL_I)[0],
                enumerate_embeddings(T1, TAIL_I)[0])
    cone = tree_amalgamate(span)
    assert cone.obj == TAIL_I


def test_amalgamate_commutes_exhaustively_at_small_bound():
    pool = enumerate_trees(1, 3, ("i",))
    for x, a, b in itertools.product(pool, pool, pool):
        for f in enumerate_embeddings(x, a):
            for g in enumerate_embeddings(x, b):
                cone = tree_amalgamate(Span(f, g))
                assert compose(f, cone.from_left) == compose(g, cone.from_right)


def test_regular_mono_witness_identity_case():
    doubled, e1, e2 = regular_mono_witness(identity(T3))
    assert doubled == T3
    assert e1 == e2


def test_regular_mono_witness_leaf_in_t3():
    m = enumerate_embeddings(T1, T3)[0]
    doubled, e1, e2 = regular_mono_witness(m)
    assert doubled == T3
    assert e1 != e2
    eq, incl = equalizer_of(e1, e2)
    assert eq == T1
    assert same_subtree(incl, m)


def test_regular_mono_witness_leaf_in_tail():
    m = enumerate_embeddings(T1, TAIL_I)[0]
    doubled, e1, e2 = regular_mono_witness(m)
    assert object_key(doubled) == "(T(i) T(i))"
    eq, incl = equalizer_of(e1, e2)
    assert eq == T1
    assert same_subtree(incl, m)


def test_regular_mono_equalizers_recover_images_exhaustively():
    pool = enumerate_trees(1, 4, ("i",))
    for x, y in itertools.product(pool, pool):
        for m in enumerate_embeddings(x, y):
            doubled, e1, e2 = regular_mono_witness(m)
            _eq, incl = equalizer_of(e1, e2)
            assert same_subtree(incl, m)


def _carved(host, addr):
    """The denoted subtree of host below addr, overlaid on a point, with
    where the host nodes and tails landed."""
    out = _Builder(host, T1)
    _overlay(out, None, None, None, addr, (0, 0), None)
    return out.finish(), out.images[0], out.tails[0]


def test_carving_a_subtree_places_the_host_nodes():
    assert _carved(T5, (0, 1)) == (T3, [None, (0, 0), (0, 1), (0, 2), None], {})
    comb = build(node(node(tail("i"), leaf()), leaf()))
    assert _carved(comb, (0, 1)) == (
        TAIL_I, [None, (0, 0), (1, 0, 1, 0), (1, 0, 1, 1), None], {2: 0})


def test_c2prime_witness_on_equal_pair():
    x = enumerate_embeddings(T1, T3)[0]
    sq = pullback(x, x)
    u = enumerate_embeddings(T3, T5)[0]
    w = c2prime_witness(sq, u, u)
    assert w == u


def test_c2prime_witness_coincidence_conditions():
    x = enumerate_embeddings(T1, T3)[0]
    sq = pullback(x, x)
    u, v = enumerate_embeddings(T3, T5)
    w = c2prime_witness(sq, u, v)
    assert w.cod == u.cod
    assert compose(sq.left, u) == compose(sq.left, w)
    assert compose(sq.right, w) == compose(sq.right, v)


def _by_key(dom, cod, key):
    return next(m for m in hom_set(dom, cod) if morphism_key(m) == key)


def test_c2prime_witness_routes_the_tails_of_the_ambient_tree():
    z = build(node(tail("i"), node(leaf(), leaf())))
    target = build(node(tail("i"), node(tail("i"), tail("i"))))
    f = _by_key(TAIL_I, z, "T(i)>(T(i) (L L)):0:0,0|0>1")
    g = _by_key(build(node(leaf(), node(leaf(), leaf()))), z,
                "(L (L L))>(T(i) (L L)):0:0,0;1:0,1;2:0,2;3:0,3;4:0,4|")
    u = _by_key(z, target, "(T(i) (L L))>(T(i) (T(i) T(i))):"
                "0:0,0;1:0,2;2:0,1;3:1,1,1,0;4:1,1,1,1|1>3")
    v = _by_key(z, target, "(T(i) (L L))>(T(i) (T(i) T(i))):"
                "0:0,0;1:0,2;2:0,1;3:1,1,1,1;4:1,1,1,0|1>4")
    assert compose(f, u) != compose(f, v) and compose(g, u) != compose(g, v)
    w = c2prime_witness(pullback(f, g), u, v)
    assert morphism_key(w) == ("(T(i) (L L))>(T(i) (T(i) T(i))):"
                               "0:0,0;1:0,2;2:0,1;3:1,1,1,1;4:1,1,1,0|1>3")
    assert compose(f, w) == compose(f, u)
    assert compose(g, w) == compose(g, v)


def test_c2prime_witness_on_every_small_zigzag_with_a_tail():
    """Every pair out of a tree with a tail and at most 5 nodes that agrees
    on the meet of two legs but on neither leg.  All such pairs in the
    pool sit on (T(i) (L L)) or (T(j) (L L)), which the swap of i and j
    exchanges, so only ambient trees without j are swept.  Isos and equal
    legs are skipped: on them agreeing on the meet is agreeing on a leg."""
    pool = enumerate_trees(3, 7, ("i", "j"))
    count = 0
    for z in pool:
        if not z.tail_ids or z.n_nodes > 5 or "j" in z.labels:
            continue
        legs = [m for x in pool for m in hom_set(x, z) if not is_iso(m)]
        homs = [hom_set(z, a) for a in pool]
        rows: dict = {}  # h -> h;u for each u, hom-set by hom-set

        def row(h):
            if h not in rows:
                rows[h] = [[compose(h, u) for u in hom] for hom in homs]
            return rows[h]

        for f, g in itertools.product(legs, legs):
            if f == g:
                continue
            square = pullback(f, g)
            meet = compose(square.to_left, f)
            for hom, rf, rg, rm in zip(homs, row(f), row(g), row(meet)):
                for (a, u), (b, v) in itertools.product(enumerate(hom),
                                                        repeat=2):
                    if rm[a] == rm[b] and rf[a] != rf[b] and rg[a] != rg[b]:
                        w = c2prime_witness(square, u, v)
                        assert compose(f, w) == rf[a]
                        assert compose(g, w) == rg[b]
                        count += 1
    assert count == 720


def test_proper_subtrees_have_smaller_rank_at_small_bound():
    pool = enumerate_trees(2, 5, ("i", "j"))
    for x, y in itertools.product(pool, pool):
        for m in enumerate_embeddings(y, x):
            if not is_iso(m):
                assert rank(y) < rank(x)


def test_enumerate_trees_bound_two_has_thirteen_objects():
    keys = [object_key(t) for t in enumerate_trees(2, 5, ("i", "j"))]
    assert len(keys) == 13
    assert "L" in keys and "(T(i) T(j))" in keys
    assert len(set(keys)) == 13


def _shuffled(payload, rng):
    """The same tree under fresh node ids, rows in random order."""
    fresh = list(range(100, 100 + len(payload["nodes"])))
    rng.shuffle(fresh)
    ren = dict(zip(range(len(fresh)), fresh))
    rows = []
    for row in payload["nodes"]:
        row = dict(row, id=ren[row["id"]])
        if "children" in row:
            row["children"] = [ren[c] for c in row["children"]]
        rows.append(row)
    rng.shuffle(rows)
    return dict(payload, root=ren[payload["root"]], nodes=rows)


def _comb_padded(payload, rng):
    """Each tail row replaced by a node over that tail and a leaf."""
    rows, fresh = [], len(payload["nodes"])
    for row in payload["nodes"]:
        if row["kind"] != "tail":
            rows.append(row)
            continue
        kids = [fresh, fresh + 1]
        rng.shuffle(kids)
        rows += [{"id": row["id"], "kind": "internal", "children": kids},
                 {"id": fresh, "kind": "tail", "label": row["label"]},
                 {"id": fresh + 1, "kind": "leaf"}]
        fresh += 2
    return dict(payload, nodes=rows)


def test_canonical_pipeline_round_trips_every_small_tree():
    rng = random.Random(4)
    for t in enumerate_trees(2, 7, ("i", "j")):
        payload = encode_object(t)
        assert canonical_form(t) == t
        assert decode_object(payload) == t
        assert decode_object(_shuffled(payload, rng)) == t
        padded = decode_object(_comb_padded(payload, rng))
        assert (padded == t) == (not t.tail_ids)
        assert canonical_form(padded) == t
        assert object_key(canonical_form(padded)) == object_key(t)


def test_canonical_keys_decide_isomorphism_on_the_audit_pool():
    """An arrow is an iso exactly when its ends have equal canonical keys:
    on every arrow of the itree b2 pool, and on both projections of the
    pullback of every cospan in it, the key test agrees with is_iso."""
    pool = backend("itree").objects_up_to(2)
    arrows = [m for a in pool for b in pool for m in hom_set(a, b)]
    squares = [pullback(f, g) for f in arrows for g in arrows
               if f.cod == g.cod]
    arrows += [p for sq in squares for p in (sq.to_left, sq.to_right)]
    by_key = [m.dom.canonical_key == m.cod.canonical_key for m in arrows]
    assert by_key == [is_iso(m) for m in arrows]
    assert True in by_key and False in by_key
    padded = build(node(node(tail("i"), leaf()), leaf()))
    assert padded.key != TAIL_I.key
    assert padded.canonical_key == TAIL_I.canonical_key == TAIL_I.key


def test_same_subtree_agrees_with_the_iso_test_on_both_projections():
    pool = backend("itree").objects_up_to(2)
    arrows = [m for a in pool for b in pool for m in hom_set(a, b)]
    pairs = [(m1, m2) for m1 in arrows for m2 in arrows if m1.cod == m2.cod]
    got = [same_subtree(m1, m2) for m1, m2 in pairs]
    squares = [pullback(m1, m2) for m1, m2 in pairs]
    assert got == [is_iso(sq.to_left) and is_iso(sq.to_right)
                   for sq in squares]
    assert True in got and False in got
    one_sided = [is_iso(sq.to_left) != is_iso(sq.to_right) for sq in squares]
    assert True in one_sided


def _mirrored(tree, i=0):
    """The nested form of tree with the two children of every node
    swapped: an isomorphic, usually non-canonical, encoding."""
    if tree.kinds[i] == "internal":
        a, b = tree.children[i]
        return node(_mirrored(tree, b), _mirrored(tree, a))
    return leaf() if tree.kinds[i] == "leaf" else tail(tree.labels[i])


def test_regular_mono_witness_on_mirrored_encodings():
    """Payloads need not be canonical: the witness pair of every mono into
    a mirrored tree still has the image of the mono as its equalizer."""
    pool = enumerate_trees(2, 5, ("i", "j"))
    monos = [m for x in pool for t in pool
             for m in enumerate_embeddings(x, build(_mirrored(t)))]
    assert len(monos) > len(pool)
    for m in monos:
        _doubled, e1, e2 = regular_mono_witness(m)
        _eq, incl = equalizer_of(e1, e2)
        assert same_subtree(incl, m)


def _addresses(tree, depth):
    """The explicit nodes and the comb nodes down to depth of a tree."""
    return [(0, i) for i in range(tree.n_nodes)] + [
        (1, t, k, side) for t in tree.tail_ids
        for k in range(1, depth + 1) for side in (0, 1)]


def test_preimage_agrees_with_a_scan_of_the_source():
    """pre(za) is the source address the embedding sends onto za, None
    off the image: every target address down to comb depth 3 against a
    scan of the source addresses.  A source comb node at depth k lands at
    target comb depth at least k minus the target's explicit depth, so
    the scan reaches that far below depth 3."""
    pool = backend("itree").objects_up_to(2)
    hits = 0
    for x, y in itertools.product(pool, repeat=2):
        for emb in enumerate_embeddings(x, y):
            scan = {emb.image(a): a for a in _addresses(x, 3 + y.n_nodes)}
            pre = preimage_fn(emb)
            for za in _addresses(y, 3):
                assert pre(za) == scan.get(za), (emb, za)
                hits += za in scan
    assert hits


def test_factors_agrees_with_a_scan_of_the_embeddings():
    """factor reads a factorisation off the preimage of m; a scan of
    every w: dom h -> dom m for w;m == h finds the same w, or none, on
    mirrored ambient trees with tails of both labels."""
    pool = enumerate_trees(2, 6, ("i", "j"))
    found = []
    for t in pool:
        z = build(_mirrored(t))
        arrows = [m for x in pool for m in enumerate_embeddings(x, z)]
        for h, m in itertools.product(arrows, repeat=2):
            scan = [w for w in enumerate_embeddings(h.dom, m.dom)
                    if compose(w, m) == h]
            assert [factor(h, m)] == (scan or [None])
            found.append(bool(scan))
    assert True in found and False in found
