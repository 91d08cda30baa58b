"""Category laws shared by both backends: composition, pullbacks,
amalgamation, automorphism groups, ranks, and the JSON codecs."""

import itertools

import pytest

from atomkit import (
    FinSet,
    SiteError,
    amalgamate,
    aut_group,
    backend,
    build,
    canonical_json,
    compose,
    decode_morphism,
    decode_object,
    encode_morphism,
    encode_object,
    factor,
    group_name,
    hom_set,
    identity,
    inverse,
    is_identity,
    is_iso,
    leaf,
    make_injection,
    morphism_key,
    node,
    object_key,
    pullback,
    rank,
    sort_key,
    subgroup_generated,
    tail,
)
from atomkit import core

from checks import pullback_is_universal


def test_compose_is_diagrammatic():
    f = make_injection(1, 2, (0,))
    g = make_injection(2, 3, (0, 1))
    assert compose(f, g) == make_injection(1, 3, (0,))
    swap = make_injection(2, 2, (1, 0))
    assert compose(swap, swap) == identity(FinSet(2))
    assert compose(identity(FinSet(2)), identity(FinSet(2))) == identity(FinSet(2))


def test_compose_rejects_mismatched_ends():
    f = make_injection(1, 2, (0,))
    with pytest.raises(SiteError):
        compose(f, f)


def test_compose_associative_and_unital():
    for f in hom_set(FinSet(1), FinSet(2)):
        for g in hom_set(FinSet(2), FinSet(3)):
            for h in hom_set(FinSet(3), FinSet(4)):
                assert compose(compose(f, g), h) == compose(f, compose(g, h))
            assert compose(identity(FinSet(1)), f) == f
            assert compose(f, identity(FinSet(2))) == f


def test_hom_set_is_duplicate_free_and_ordered():
    arrows = hom_set(FinSet(2), FinSet(3))
    assert len(arrows) == 6
    keys = [morphism_key(f) for f in arrows]
    assert keys == sorted(keys)
    assert len(set(keys)) == 6
    assert hom_set(FinSet(2), FinSet(1)) == []


def test_morphism_keys_are_one_to_one_on_values():
    """Fragments look a composite's key up by its value, which is exact
    only while no two distinct arrows share a key."""
    for pool in (backend("finsetinj").objects_up_to(4),
                 backend("itree").objects_up_to(2)):
        arrows = [f for a in pool for b in pool for f in hom_set(a, b)]
        assert len(set(arrows)) == len(arrows)
        assert len({morphism_key(f) for f in arrows}) == len(arrows)


def test_hom_set_rejects_mixed_backends():
    with pytest.raises(SiteError):
        hom_set(FinSet(1), build(leaf()))


def test_invertible_homs_are_the_automorphism_group():
    """aut_group takes all of hom_set(x, x): every endomorphism is an
    iso, and hom_set lists them in sort_key order."""
    for obj in (backend("finsetinj").objects_up_to(4)
                + backend("itree").objects_up_to(2)):
        homs = hom_set(obj, obj)
        assert all(is_iso(f) for f in homs)
        assert homs == sorted(homs, key=sort_key)
        assert homs == list(aut_group(obj).elements)


def test_identity_predicate():
    assert is_identity(identity(FinSet(3)))
    assert not is_identity(make_injection(3, 3, (1, 0, 2)))


def test_inverse_round_trips():
    sigma = make_injection(3, 3, (1, 2, 0))
    assert compose(sigma, inverse(sigma)) == identity(FinSet(3))
    assert inverse(make_injection(1, 2, (0,))) is None


def _arrows_and_pairs(site: str, bound: int):
    """Every arrow among objects_up_to(bound), and every pair (h, m) of
    them with one codomain."""
    pool = backend(site).objects_up_to(bound)
    arrows = [f for a in pool for b in pool for f in hom_set(a, b)]
    return arrows, [(h, m) for h in arrows for m in arrows if h.cod == m.cod]


@pytest.mark.parametrize("site, bound, pairs", [("finsetinj", 3, 286),
                                                ("itree", 2, 1179)])
def test_factor_is_the_one_arrow_a_hom_set_scan_finds(site, bound, pairs):
    """factor(h, m) is None exactly when no w in hom(dom h, dom m) has
    w;m == h, and otherwise that w, the only one."""
    _arrows, both = _arrows_and_pairs(site, bound)
    assert len(both) == pairs
    found = 0
    for h, m in both:
        scan = [w for w in hom_set(h.dom, m.dom) if compose(w, m) == h]
        assert [factor(h, m)] == (scan or [None]), (h, m)
        found += bool(scan)
    assert 0 < found < pairs


@pytest.mark.parametrize("site, bound", [("finsetinj", 3), ("itree", 2)])
def test_inverse_is_the_arrow_the_two_sided_scan_finds(site, bound):
    arrows, _pairs = _arrows_and_pairs(site, bound)
    isos = 0
    for f in arrows:
        scan = next((g for g in hom_set(f.cod, f.dom)
                     if compose(f, g) == identity(f.dom)
                     and compose(g, f) == identity(f.cod)), None)
        assert inverse(f) == scan, f
        assert is_iso(f) == (scan is not None)
        isos += scan is not None
    assert 0 < isos < len(arrows)


def test_factor_needs_one_codomain():
    with pytest.raises(SiteError, match="different codomains"):
        factor(make_injection(1, 2, (0,)), make_injection(1, 3, (0,)))


def test_inverse_builds_the_identities_once_per_call(monkeypatch):
    """inverse builds the identity of each end once."""
    sigma = make_injection(3, 3, (2, 0, 1))
    built = []
    real = core.identity

    def counted(obj):
        built.append(obj)
        return real(obj)

    monkeypatch.setattr(core, "identity", counted)
    assert compose(sigma, inverse(sigma)) == real(FinSet(3))
    assert len(hom_set(FinSet(3), FinSet(3))) == 6
    assert len(built) <= 2  # one per end


def test_pullback_along_identity():
    f = make_injection(2, 3, (0, 2))
    sq = pullback(f, identity(FinSet(3)))
    assert sq.apex == FinSet(2)
    assert is_identity(sq.to_left)


def test_pullback_of_disjoint_points_is_empty():
    sq = pullback(make_injection(1, 2, (0,)), make_injection(1, 2, (1,)))
    assert sq.apex == FinSet(0)


def test_pullback_of_overlapping_inclusions():
    f = make_injection(2, 3, (0, 1))
    g = make_injection(2, 3, (1, 2))
    sq = pullback(f, g)
    assert sq.apex == FinSet(1)
    assert compose(sq.to_left, f) == make_injection(1, 3, (1,))
    assert compose(sq.to_left, f) == compose(sq.to_right, g)


def test_pullback_universal_property_exhaustively():
    objs = [FinSet(i) for i in range(4)]
    for a, b, z in itertools.product(objs[:3], objs[:3], objs):
        for f in hom_set(a, z):
            for g in hom_set(b, z):
                assert pullback_is_universal(pullback(f, g), objs)


def test_amalgamate_identity_span():
    f = identity(FinSet(2))
    cone = amalgamate(f, f)
    assert cone.obj == FinSet(2)
    assert compose(f, cone.from_left) == compose(f, cone.from_right)


def test_amalgamate_point_into_two_pairs():
    f, g = make_injection(1, 2, (0,)), make_injection(1, 2, (1,))
    cone = amalgamate(f, g)
    assert cone.obj == FinSet(3)
    assert compose(f, cone.from_left) == compose(g, cone.from_right)


def test_amalgamate_tail_labels():
    t1 = build(leaf())
    ti, tj = build(tail("i")), build(tail("j"))
    f, g = hom_set(t1, ti)[0], hom_set(t1, tj)[0]
    cone = amalgamate(f, g)
    assert object_key(cone.obj) == "(T(i) T(j))"
    assert compose(f, cone.from_left) == compose(g, cone.from_right)


@pytest.mark.parametrize("site", ["finsetinj", "itree"])
def test_amalgamate_refuses_legs_with_different_domains(site, monkeypatch):
    """Before the site is asked for a cocone."""
    a, b = backend(site).objects_up_to(1)[:2]

    def unreachable(f, g):
        raise AssertionError("the site was asked to amalgamate")

    monkeypatch.setattr(backend(site), "amalgamate", unreachable)
    with pytest.raises(SiteError, match="^span legs must share their domain$"):
        amalgamate(identity(a), identity(b))


def test_aut_group_orders():
    assert len(aut_group(FinSet(3)).elements) == 6
    assert len(aut_group(FinSet(0)).elements) == 1
    assert len(aut_group(build(node(leaf(), leaf()))).elements) == 2


def test_subgroup_generated():
    two = FinSet(2)
    assert len(subgroup_generated(two, ()).elements) == 1
    swap = make_injection(2, 2, (1, 0))
    assert len(subgroup_generated(two, (swap,)).elements) == 2
    cycle = make_injection(3, 3, (1, 2, 0))
    assert len(subgroup_generated(FinSet(3), (cycle,)).elements) == 3
    with pytest.raises(SiteError):
        subgroup_generated(two, (make_injection(1, 2, (0,)),))


def test_subgroup_generated_is_idempotent():
    g = subgroup_generated(FinSet(3), (make_injection(3, 3, (1, 2, 0)),))
    again = subgroup_generated(FinSet(3), g.elements)
    assert again.elements == g.elements


def test_group_names():
    three = FinSet(3)
    assert group_name(subgroup_generated(three, ())) == "triv"
    assert group_name(aut_group(FinSet(2))) == "Sym2"
    assert group_name(aut_group(three)) == "Sym3"
    flip = make_injection(3, 3, (1, 0, 2))
    assert group_name(subgroup_generated(three, (flip,))) == "order2"


def test_rank_values():
    for obj, want in ((FinSet(5), (5,)), (build(node(leaf(), leaf())), (0, 3)),
                      (build(tail("i")), (1, 0))):
        assert type(rank(obj)) is tuple and rank(obj) == want


def test_rank_order_is_lexicographic():
    """Branches count first: a tail outranks any tree without one."""
    t5 = build(node(node(leaf(), leaf()), leaf()))
    ti, tij = build(tail("i")), build(node(tail("i"), tail("j")))
    assert rank(t5) < rank(ti) < rank(tij)
    assert not rank(ti) < rank(ti)


@pytest.mark.parametrize("site, bound", [("finsetinj", 5), ("itree", 2)])
def test_ranks_are_tuples_of_naturals(site, bound):
    ranks = [rank(x) for x in backend(site).objects_up_to(bound)]
    assert {len(r) for r in ranks} == {len(ranks[0])}
    assert all(type(c) is int and c >= 0 for r in ranks for c in r)


def test_proper_subobjects_have_smaller_rank():
    objs = [FinSet(i) for i in range(4)]
    for a, b in itertools.product(objs, objs):
        for m in hom_set(b, a):
            if not is_iso(m):
                assert rank(b) < rank(a)


def test_object_codec_round_trip():
    for obj in (FinSet(3), build(node(tail("i"), leaf()))):
        data = encode_object(obj)
        assert decode_object(data) == obj
        assert decode_object(data, obj.site) == obj
    with pytest.raises(SiteError):
        decode_object({"site": "finsetinj", "size": 2}, "itree")


def test_morphism_codec_round_trip():
    f = make_injection(2, 3, (2, 0))
    assert decode_morphism(encode_morphism(f)) == f
    t3 = build(node(leaf(), leaf()))
    g = hom_set(build(leaf()), t3)[0]
    assert decode_morphism(encode_morphism(g)) == g


def test_canonical_json_is_stable():
    blob = canonical_json({"b": [1, 2], "a": {"y": 0, "x": 1}})
    assert blob == '{"a":{"x":1,"y":0},"b":[1,2]}'
    assert canonical_json({"b": [1, 2], "a": {"x": 1, "y": 0}}) == blob
