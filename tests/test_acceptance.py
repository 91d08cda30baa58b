"""Acceptance gate: the nine headline behaviors, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; there are no tolerances to tune.
"""

import itertools
import random

from atomkit import (
    FinSet,
    atom_chain,
    atom_hom,
    atom_identity,
    atom_iso_formal,
    audit_c1,
    audit_c2prime,
    aut_group,
    backend,
    build,
    coequalize_representables,
    compose,
    compute_K,
    decompose,
    enumerate_embeddings,
    group_name,
    hom_set,
    identity,
    is_iso,
    leaf,
    local_iso_check,
    make_atom,
    make_injection,
    morphism_key,
    node,
    ordered_pairs_fragment,
    rank,
    self_intersection_check,
    sheaf_check_quotient,
    subgroup_generated,
    tree_stats,
    unordered_pairs_fragment,
)
from atomkit.atoms import AtomMap
from atomkit.itree import enumerate_trees

from checks import pullback_is_universal
from oracles import all_subgroups, count_embeddings_by_filter, count_natural_maps

T1 = build(leaf())
T3 = build(node(leaf(), leaf()))
SWAP = make_injection(2, 2, (1, 0))


def _verdict(num, label, checks):
    ok = all(checks)
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok


def test_criterion_1_decomposition_of_the_pair_fragments():
    _verdict(1, "decompose splits the pair fragments into the known atoms", [
        decompose(unordered_pairs_fragment(3)).describe()
        == [("2", "Sym2"), ("1", "triv")],
        decompose(ordered_pairs_fragment(3)).describe()
        == [("2", "triv"), ("1", "triv")],
    ])


def test_criterion_2_atom_hom_counts_match_the_oracle():
    atoms = []
    for n in range(4):
        for g in all_subgroups(FinSet(n)):
            atoms.append(make_atom(FinSet(n), g.generators))
    objects = [FinSet(i) for i in range(5)]
    checks = [len(atoms) == 10]
    for a, b in itertools.product(atoms, atoms):
        checks.append(len(atom_hom(a, b)) == count_natural_maps(a, b, objects))
    _verdict(2, "atom map counts equal the natural-transformation oracle "
                "on all %d pairs" % (len(atoms) ** 2), checks)


def test_criterion_3_coequalizers_with_verified_traces():
    points = coequalize_representables(make_injection(1, 2, (0,)),
                                       make_injection(1, 2, (1,)))
    checks = [
        len(points.steps) <= 2,
        points.result.describe() == ("0", "triv"),
        is_iso(points.steps[-1].to_left),
        is_iso(points.steps[-1].to_right),
    ]
    objs = [FinSet(i) for i in range(3)]
    for sq in points.steps:
        checks.append(compose(sq.to_left, sq.left)
                      == compose(sq.to_right, sq.right))
        checks.append(pullback_is_universal(sq, objs))
    swap = next(e for e in enumerate_embeddings(T3, T3) if e != identity(T3))
    twist = coequalize_representables(identity(T3), swap)
    checks += [
        len(twist.steps) <= 1,
        twist.result.base == T3,
        group_name(twist.result.group) == "Aut",
    ]
    _verdict(3, "iterated-pullback coequalizers terminate with verified "
                "traces", checks)


def test_criterion_4_K_of_the_root_inclusion():
    q = enumerate_embeddings(T1, T3)[0]
    res = compute_K(q, 3)
    tree_atom = make_atom(T3, aut_group(T3).generators)
    m = AtomMap(tree_atom, make_atom(T1), q, "derived")
    _verdict(4, "K(root inclusion) is the full tree quotient, locally iso "
                "yet not formally iso", [
        res.k == T3,
        group_name(res.group) == "Aut",
        len(res.steps) == 0,
        res.verdict.status == "pass",
        local_iso_check(m, backend("itree").objects_up_to(2), 3).status == "pass",
        atom_iso_formal(tree_atom, make_atom(T1)) is None,
    ])


def test_criterion_5_sheaf_condition_split():
    fail = sheaf_check_quotient(make_atom(T3, aut_group(T3).generators),
                                enumerate_embeddings(T1, T3)[0], 2)
    ok = sheaf_check_quotient(make_atom(FinSet(2), (SWAP,)),
                              make_injection(1, 2, (0,)), 3)
    _verdict(5, "sheaf condition fails for the tree quotient and holds for "
                "unordered pairs", [
        fail.status == "fail",
        fail.witness["reason"] == "compatible class does not descend",
        fail.witness["classes_over_cover_source"] == 0,
        ok.status == "pass",
    ])


def test_criterion_6_self_intersection_split():
    checks = []
    objs = [FinSet(i) for i in range(4)]
    for a, b in itertools.product(objs, objs):
        for f in hom_set(a, b):
            checks.append(self_intersection_check(f, 3).status == "pass")
    verdict = self_intersection_check(enumerate_embeddings(T1, T3)[0], 3)
    checks += [
        verdict.status == "fail",
        verdict.witness["u"] == morphism_key(identity(T3)),
    ]
    _verdict(6, "self-intersections are trivial for injections, not for the "
                "root inclusion", checks)


def test_criterion_7_tree_site_audits_are_clean():
    c1 = audit_c1("itree", 2)
    c2 = audit_c2prime("itree", 2)
    _verdict(7, "amalgamation and zig-zag audits pass 100% of tree "
                "instances at bound 2", [
        c1.passed, c1.counts() == {"pass": 2154, "fail": 0, "unknown": 0},
        c2.passed, c2.counts() == {"pass": 7937, "fail": 0, "unknown": 0},
    ])


def test_criterion_8_rank_descent_and_chain_stabilization():
    pool = enumerate_trees(3, 7, ("i", "j", "k"))
    checks = [len(pool) == 104]
    seen = 0
    for x, y in itertools.product(pool, pool):
        for e in enumerate_embeddings(x, y):
            seen += 1
            if not is_iso(e):
                checks.append(rank(x) < rank(y))
    checks.append(seen == 3238)
    for base in pool:
        st = tree_stats(base)
        budget = st.branch_count + st.f_count + len(aut_group(base).elements)
        chain = atom_chain(make_atom(base))
        checks.append(len(chain) - 1 <= budget)
        for cur, nxt in zip(chain, chain[1:]):
            if cur.base == nxt.base:
                checks.append(len(nxt.group.elements) > len(cur.group.elements))
            else:
                checks.append(rank(nxt.base) < rank(cur.base))
    _verdict(8, "proper embeddings drop rank and atom chains stabilize "
                "within budget", checks)


def test_criterion_9_hom_enumeration_against_the_filter_oracle():
    pool = enumerate_trees(3, 7, ("i", "j"))
    rng = random.Random(20260815)
    checks = []
    for _ in range(50):
        x, y = rng.choice(pool), rng.choice(pool)
        checks.append(len(enumerate_embeddings(x, y))
                      == count_embeddings_by_filter(x, y))
    checks.append(len(hom_set(FinSet(2), FinSet(3))) == 6)
    for n in range(6):
        order = len(aut_group(FinSet(n)).elements)
        checks.append(order == len(subgroup_generated(
            FinSet(n), aut_group(FinSet(n)).generators).elements))
        expected = 1
        for i in range(1, n + 1):
            expected *= i
        checks.append(order == expected)
    _verdict(9, "hom enumeration matches the swap-bit filter oracle on 50 "
                "random tree pairs", checks)
