"""Formal atoms (base, subgroup), their maps, and the iterated-pullback
coequalizer.  Hom counts are pinned against the natural-transformation
oracle before anything else relies on them."""

import itertools

import pytest

from atomkit import (
    AutGroup,
    FinSet,
    SiteError,
    aut_group,
    atom_compose,
    atom_hom,
    atom_identity,
    atom_iso_formal,
    build,
    coequalize_representables,
    compose,
    decode_atom,
    encode_atom,
    enumerate_embeddings,
    group_name,
    hom_set,
    identity,
    is_iso,
    leaf,
    make_atom,
    make_injection,
    node,
    rep_is_valid,
)
from atomkit.atoms import AtomMap
from atomkit.presheaf import object_pool

from checks import atom_census, pool_atoms, pullback_is_universal
from oracles import all_subgroups, count_natural_maps

T1 = build(leaf())
T3 = build(node(leaf(), leaf()))

SWAP = make_injection(2, 2, (1, 0))


def _finsetinj_atoms(max_base):
    out = []
    for n in range(max_base + 1):
        for g in all_subgroups(FinSet(n)):
            out.append(make_atom(FinSet(n), g.generators))
    return out


def test_atom_hom_counts_match_natural_transformation_oracle():
    atoms = _finsetinj_atoms(3)
    assert len(atoms) == 10
    objects = [FinSet(i) for i in range(5)]
    for a, b in itertools.product(atoms, atoms):
        assert len(atom_hom(a, b)) == count_natural_maps(a, b, objects)


def test_make_atom():
    a = make_atom(FinSet(2), (SWAP,))
    assert group_name(a.group) == "Sym2"
    assert group_name(make_atom(FinSet(2)).group) == "triv"
    t = make_atom(T3, aut_group(T3).generators)
    assert len(t.group.elements) == 2
    with pytest.raises(SiteError):
        make_atom(FinSet(2), (make_injection(1, 2, (0,)),))


def test_atom_hom_named_counts():
    ordered = make_atom(FinSet(2))
    unordered = make_atom(FinSet(2), (SWAP,))
    point = make_atom(FinSet(1))
    assert len(atom_hom(ordered, unordered)) == 1
    assert len(atom_hom(point, unordered)) == 0
    assert len(atom_hom(ordered, point)) == 2
    assert len(atom_hom(ordered, unordered, variant="paper")) == 0


def test_atom_maps_store_canonical_representatives():
    ordered = make_atom(FinSet(2))
    point = make_atom(FinSet(1))
    reps = sorted(m.rep.map for m in atom_hom(ordered, point))
    assert reps == [(0,), (1,)]
    for m in atom_hom(ordered, point):
        assert rep_is_valid(m.source, m.target, m.rep)


def test_atom_compose_identity_laws():
    ordered = make_atom(FinSet(2))
    unordered = make_atom(FinSet(2), (SWAP,))
    (f,) = atom_hom(ordered, unordered)
    assert atom_compose(f, atom_identity(unordered)) == f
    assert atom_compose(atom_identity(ordered), f) == f


def test_atom_compose_projection_example():
    ordered = make_atom(FinSet(2))
    point = make_atom(FinSet(1))
    first = atom_hom(ordered, point)[0]
    assert atom_compose(first, atom_identity(point)) == first


def test_atom_compose_is_associative_on_small_atoms():
    atoms = _finsetinj_atoms(2)
    for a, b, c, d in itertools.product(atoms, repeat=4):
        for f in atom_hom(a, b):
            for g in atom_hom(b, c):
                for h in atom_hom(c, d):
                    assert atom_compose(atom_compose(f, g), h) == \
                        atom_compose(f, atom_compose(g, h))


def test_atom_iso_formal():
    unordered = make_atom(FinSet(2), (SWAP,))
    assert atom_iso_formal(unordered, unordered) is not None
    assert atom_iso_formal(make_atom(FinSet(2)), unordered) is None
    tree_atom = make_atom(T3, aut_group(T3).generators)
    assert atom_iso_formal(tree_atom, make_atom(T1)) is None


def _conjugate(g: AutGroup, h: AutGroup, n: int) -> bool:
    """Whether p g p^-1 = h for some permutation p of range(n), on maps."""
    want = {x.map for x in h.elements}
    for p in itertools.permutations(range(n)):
        back = sorted(range(n), key=p.__getitem__)  # p^-1
        if {tuple(p[x.map[back[i]]] for i in range(n))
                for x in g.elements} == want:
            return True
    return False


def test_schanuel_atoms_are_isomorphic_exactly_when_conjugate():
    """The paper's classification on finite sets: the atoms (n, G) and
    (m, H) are isomorphic exactly when n == m and G and H are conjugate
    in S_n.  Every pair of subgroups with n, m <= 3, across sizes."""
    atoms = _finsetinj_atoms(3)
    isomorphic = 0
    for a, b in itertools.product(atoms, atoms):
        n = a.base.size
        want = n == b.base.size and _conjugate(a.group, b.group, n)
        assert (atom_iso_formal(a, b) is not None) == want, (a, b)
        isomorphic += want
    assert len(atoms) ** 2 == 100
    # 8 conjugacy classes: 7 of one subgroup, and the 3 subgroups of
    # order 2 in S_3, which give 9 ordered pairs
    assert isomorphic == 16


def test_atom_census_counts_the_subgroup_classes_of_s_n():
    """The atoms (n, G) for n <= 4: one per subgroup of S_n (OEIS
    A005432: 1, 1, 2, 6, 30) and one isomorphism class per conjugacy
    class of subgroups (OEIS A000638: 1, 1, 2, 4, 11).  CI checks n = 5,
    156 subgroups in 19 classes."""
    censuses = [atom_census(n) for n in range(5)]
    assert [sum(map(len, c)) for c in censuses] == [1, 1, 2, 6, 30]
    assert [len(c) for c in censuses] == [1, 1, 2, 4, 11]


def test_all_subgroups_lists_the_subgroups_of_tree_automorphisms():
    """The oracle keys a subgroup by its elements, which both sites'
    arrows are: Aut((L L)) has 2 subgroups, and the 13 objects of the
    itree bound-2 pool carry the 21 atoms the checker pins sweep."""
    assert [len(g.elements) for g in all_subgroups(T3)] == [1, 2]
    counts = [len(all_subgroups(x)) for x in object_pool("itree", 2)]
    assert counts == [1, 1, 1, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2]
    assert len(pool_atoms("itree", 2)) == 21


def test_quotient_monotonicity_via_identity_rep():
    plain = make_atom(FinSet(2))
    full = make_atom(FinSet(2), (SWAP,))
    assert rep_is_valid(plain, full, identity(FinSet(2)))


def test_coequalize_equal_pair_returns_domain_atom():
    point = make_injection(1, 2, (0,))
    trace = coequalize_representables(point, point)
    assert trace.result.describe() == ("1", "triv")
    assert trace.result.base == FinSet(1)


def test_coequalize_the_two_points():
    trace = coequalize_representables(make_injection(1, 2, (0,)),
                                      make_injection(1, 2, (1,)))
    assert len(trace.steps) == 2
    assert trace.steps[0].apex == FinSet(0)
    assert trace.result.describe() == ("0", "triv")
    assert is_iso(trace.steps[-1].to_left) and is_iso(trace.steps[-1].to_right)


def test_coequalize_trace_steps_are_pullbacks():
    trace = coequalize_representables(make_injection(1, 2, (0,)),
                                      make_injection(1, 2, (1,)))
    objs = [FinSet(i) for i in range(3)]
    for sq in trace.steps:
        assert compose(sq.to_left, sq.left) == compose(sq.to_right, sq.right)
        assert pullback_is_universal(sq, objs)


def test_coequalize_identity_and_swap():
    ident = identity(T3)
    swap = next(e for e in enumerate_embeddings(T3, T3) if e != ident)
    trace = coequalize_representables(ident, swap)
    assert len(trace.steps) <= 1
    assert trace.result.base == T3
    assert group_name(trace.result.group) == "Aut"
    assert trace.sigma in (swap, ident)


def test_coequalizer_quotient_map_coequalizes():
    """For every parallel pair alpha != beta: d -> x of the pools (35 on
    finsetinj at bound 3, 72 on itree at bound 2), the map q that
    quotient_rep represents from the atom at d onto the result
    coequalizes the atom maps that alpha and beta represent."""
    pairs = 0
    for site, bound in (("finsetinj", 3), ("itree", 2)):
        pool = object_pool(site, bound)
        for d, x in itertools.product(pool, pool):
            pair_source, pair_target = make_atom(x), make_atom(d)
            for alpha, beta in itertools.combinations(hom_set(d, x), 2):
                trace = coequalize_representables(alpha, beta)
                q = AtomMap(make_atom(alpha.dom), trace.result,
                            trace.quotient_rep)
                fa = AtomMap(pair_source, pair_target, alpha)
                fb = AtomMap(pair_source, pair_target, beta)
                assert atom_compose(fa, q) == atom_compose(fb, q)
                pairs += 1
    assert pairs == 35 + 72


def test_atom_codec_round_trip():
    a = make_atom(FinSet(2), (SWAP,))
    assert decode_atom(encode_atom(a)) == a
    t = make_atom(T3, aut_group(T3).generators)
    assert decode_atom(encode_atom(t)) == t
    with pytest.raises(SiteError):
        decode_atom({"base": {"site": "finsetinj", "size": 2},
                     "generators": [{"dom": 1, "cod": 2, "map": [0]}]})
