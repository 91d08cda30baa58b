"""Presheaf fragments: supports, stabilizers, decomposition, and the three
bounded checkers (sheaf condition, self-intersections, local isomorphism)."""

import itertools
import json
import pathlib

import pytest

from atomkit import (
    FinSet,
    SiteError,
    assert_pullback_closed,
    atom_hom,
    atom_identity,
    aut_group,
    backend,
    build,
    checker_objects,
    compose,
    compute_K,
    decode_fragment,
    decompose,
    encode_fragment,
    enumerate_embeddings,
    enumerate_trees,
    factor,
    fragment_from_tables,
    group_name,
    hom_set,
    identity,
    leaf,
    local_iso_check,
    make_atom,
    make_injection,
    morphism_key,
    node,
    object_key,
    ordered_pairs_fragment,
    pullback,
    quotient_classes,
    quotient_fragment,
    representable_fragment,
    self_intersection_check,
    sheaf_check_quotient,
    stabilizer,
    support_element,
    tail,
    unordered_pairs_fragment,
)
from atomkit import presheaf
from atomkit.atoms import AtomMap, class_rep
from atomkit.finsetinj import Injection
from atomkit.presheaf import ClosureError, _equalized_pairs
from checks import (checker_digest, local_iso_digest, pullback_is_universal,
                    self_intersection_reference, sheaf_digest)

T1 = build(leaf())
T3 = build(node(leaf(), leaf()))

SWAP = make_injection(2, 2, (1, 0))
UNORDERED = unordered_pairs_fragment(3)
ORDERED = ordered_pairs_fragment(3)


def test_fragment_tables_are_validated():
    objs = [FinSet(0), FinSet(1)]
    with pytest.raises(SiteError):
        fragment_from_tables("finsetinj", objs,
                             {"0": [], "1": ["p", "q"]},
                             {"0>1:": [], "1>1:0": [0, 0]})


def _defective(*defects) -> dict:
    """The payload of the unordered pairs over sets up to size 2 with
    the named defects."""
    data = encode_fragment(unordered_pairs_fragment(2))
    for defect in defects:
        if defect == "twice":
            data["objects"].append(data["objects"][1])
        elif defect == "mismatch":
            data["elements"]["7"] = ["x"]
        elif defect == "names":
            data["elements"]["1"] = ["{0}", "{0}"]
        elif defect == "unknown":
            data["action"].update({"2>5:0,1": [0], "1>5:3": [0]})
        else:  # a bad row: (arrow key, row)
            data["action"][defect[0]] = defect[1]
    return data


SHAPE, INJECTIVE = ("1>2:0", [5]), ("2>2:1,0", [0, 0, 2])
IDENTITY, FUNCTOR = ("2>2:0,1", [1, 0, 2]), ("1>2:0", [1])


@pytest.mark.parametrize("defects, message", [
    (("twice", "unknown"), "fragment lists object 1 twice"),
    (("mismatch", "names", "unknown"),
     "fragment element table does not match its objects"),
    (("names", "unknown", SHAPE), "duplicate element name at 1"),
    (("unknown", SHAPE), "fragment action for unknown arrow 1>5:3"),
    ((SHAPE, IDENTITY), "action table for 1>2:0 has the wrong shape"),
    ((INJECTIVE,), "action table for 2>2:1,0 is not injective"),
    ((IDENTITY, FUNCTOR), "identity arrow must act as the identity"),
    ((FUNCTOR,), "fragment action is not functorial on 1>2:0 then 2>2:1,0"),
])
def test_a_fragment_payload_reports_its_first_defect(defects, message):
    """The payload checks report in a fixed order: an object listed
    twice, the element table, element names and unknown arrow keys (the
    least first) at the payload edge, then the rows, each row in listed
    order for its shape, injectivity and identity, then functoriality."""
    with pytest.raises(SiteError) as err:
        decode_fragment(_defective(*defects))
    assert str(err.value) == message


def test_fragment_closure_is_checked():
    frag = unordered_pairs_fragment(3)
    assert_pullback_closed(frag)
    missing = fragment_from_tables(
        "finsetinj", [FinSet(1), FinSet(2)],
        {"1": ["{0}"], "2": ["{0}", "{1}", "{0,1}"]},
        {"1>1:0": [0], "1>2:0": [0], "1>2:1": [1],
         "2>2:0,1": [0, 1, 2], "2>2:1,0": [1, 0, 2]})
    with pytest.raises(ClosureError) as err:
        assert_pullback_closed(missing)
    assert str(err.value) == ("fragment misses the pullback apex 0 of "
                              "1>2:0 and 1>2:1")


def _nonfunctorial_pairs(objects, action):
    """The all-pairs functoriality scan over a fragment's tables: every
    listed f, then every listed g, composable or not, kept when the
    composite is listed and acts otherwise than g after f."""
    listed = {}
    for a in objects:
        for b in objects:
            for f in hom_set(a, b):
                if morphism_key(f) in action:
                    listed[morphism_key(f)] = f
    bad = []
    for fk, f in listed.items():
        for gk, g in listed.items():
            if f.cod != g.dom:
                continue
            ck = morphism_key(compose(f, g))
            if ck in action and \
                    list(action[ck]) != [action[gk][i] for i in action[fk]]:
                bad.append((fk, gk))
    return bad


def test_functoriality_check_names_the_first_bad_pair_in_listed_order():
    """Two listed pairs compose to 1>3:2, whose row is wrong.  The pair
    with the earlier f is named, although its g comes later."""
    objects = [FinSet(1), FinSet(2), FinSet(3)]
    good = encode_fragment(representable_fragment(FinSet(1), objects))
    keep = {"1>1:0", "2>2:0,1", "3>3:0,1,2", "1>2:0", "1>2:1", "1>3:0",
            "1>3:1", "1>3:2", "2>3:0,2", "2>3:2,0"}
    action = {k: v for k, v in good["action"].items() if k in keep}
    action["1>3:2"] = [0]
    bad = _nonfunctorial_pairs(objects, action)
    assert bad == [("1>2:0", "2>3:2,0"), ("1>2:1", "2>3:0,2")]
    with pytest.raises(SiteError) as err:
        fragment_from_tables("finsetinj", objects, good["elements"], action)
    assert str(err.value) == \
        "fragment action is not functorial on %s then %s" % bad[0]


def test_representable_fragment_on_a_tree_pool_validates():
    pool = backend("itree").objects_up_to(2)
    action = encode_fragment(representable_fragment(T1, pool))["action"]
    assert len(action) == sum(len(hom_set(a, b))
                              for a in pool for b in pool) > 0
    assert _nonfunctorial_pairs(pool, action) == []


def test_support_named_cases():
    y, m, _q = support_element(UNORDERED, FinSet(2), "{0,1}")
    assert y == FinSet(2)
    y, m, name = support_element(UNORDERED, FinSet(2), "{0}")
    assert y == FinSet(1)
    assert m.map == (0,)
    assert name == "{0}"


def test_support_of_a_representable_class_is_its_base():
    frag = representable_fragment(FinSet(0), [FinSet(i) for i in range(3)])
    for x in (FinSet(0), FinSet(1), FinSet(2)):
        (name,) = frag.elements_at(x)
        y, _m, _q = support_element(frag, x, name)
        assert y == FinSet(0)


def test_support_is_idempotent():
    for frag in (UNORDERED, ORDERED):
        for x in frag.objects:
            for name in frag.elements_at(x):
                y, m, inner = support_element(frag, x, name)
                y2, _m2, _q2 = support_element(frag, y, inner)
                assert y2 == y


def test_stabilizers():
    assert group_name(stabilizer(UNORDERED, FinSet(2), "{0,1}")) == "Sym2"
    assert group_name(stabilizer(ORDERED, FinSet(2), "(0,1)")) == "triv"
    with pytest.raises(SiteError):
        stabilizer(UNORDERED, FinSet(2), "{0}")


def test_decompose_unordered_pairs():
    assert decompose(UNORDERED).describe() == [("2", "Sym2"), ("1", "triv")]


def test_decompose_ordered_pairs():
    assert decompose(ORDERED).describe() == [("2", "triv"), ("1", "triv")]


def test_decompose_representable():
    frag = representable_fragment(FinSet(1), [FinSet(i) for i in range(4)])
    assert decompose(frag).describe() == [("1", "triv")]


def test_decompose_scans_each_support_once(monkeypatch):
    """decompose scans each element's support once: with the
    reconstruction check that makes 102 and 162 hom_set calls on these
    fragments, against 197 and 314 when the seat pass, the stabilizer and
    the member pass each scanned again."""
    calls = []

    def counted(a, b):
        calls.append(None)
        return hom_set(a, b)

    monkeypatch.setattr(presheaf, "hom_set", counted)
    for frag, most in ((unordered_pairs_fragment(5), 102),
                       (ordered_pairs_fragment(5), 162)):
        calls.clear()
        decompose(frag)
        assert len(calls) <= most


def test_decompose_formats_no_morphism_key(monkeypatch):
    """Inside the library the fragment tables key on the arrows
    themselves, so decompose formats no key string (733 on these two
    fragments when the action table was keyed by morphism_key)."""
    calls = []

    def counted(f):
        calls.append(f)
        return morphism_key(f)

    frags = (unordered_pairs_fragment(5), ordered_pairs_fragment(5))
    monkeypatch.setattr(presheaf, "morphism_key", counted)
    for frag in frags:
        decompose(frag)
    assert calls == []


def _key_calls(monkeypatch) -> tuple[list, list]:
    """Record every object and every arrow whose key presheaf formats."""
    objects, arrows = [], []
    monkeypatch.setattr(presheaf, "object_key",
                        lambda x: objects.append(x) or object_key(x))
    monkeypatch.setattr(presheaf, "morphism_key",
                        lambda f: arrows.append(f) or morphism_key(f))
    return objects, arrows


TREE_POOL = backend("itree").objects_up_to(1)
TREE_ATOM = make_atom(T3, aut_group(T3).generators)
FINSETS = [FinSet(i) for i in range(4)]
SYM2 = make_atom(FinSet(2), (SWAP,))

# (builder, the arrows whose keys name its elements)
BUILDERS = {
    "unordered-5": (lambda: unordered_pairs_fragment(5), lambda: []),
    "ordered-5": (lambda: ordered_pairs_fragment(5), lambda: []),
    "representable-finsetinj": (
        lambda: representable_fragment(FinSet(1), FINSETS),
        lambda: [u for x in FINSETS for u in hom_set(FinSet(1), x)]),
    "representable-itree": (
        lambda: representable_fragment(T1, TREE_POOL),
        lambda: [u for x in TREE_POOL for u in hom_set(T1, x)]),
    "quotient-finsetinj": (
        lambda: quotient_fragment(SYM2, FINSETS),
        lambda: [u for x in FINSETS for u in quotient_classes(SYM2, x)]),
    "quotient-itree": (
        lambda: quotient_fragment(TREE_ATOM, TREE_POOL),
        lambda: [u for x in TREE_POOL
                 for u in quotient_classes(TREE_ATOM, x)]),
}


@pytest.mark.parametrize("kind", list(BUILDERS))
def test_building_a_fragment_formats_keys_only_to_name_elements(
        monkeypatch, kind):
    """A fragment holds its objects and arrows, so a builder formats no
    object key and no arrow key (830 on each size-5 pair fragment when
    the action was tabulated by key and matched back to the arrows).
    The elements of a representable or quotient fragment are arrows,
    and their names are those arrows' keys, each formatted once."""
    build, named = BUILDERS[kind]
    names = named()
    objects, arrows = _key_calls(monkeypatch)
    frag = build()
    assert objects == [] and arrows == names
    assert [x for x, _names in frag.elements] == list(frag.objects)
    assert [f for f, _row in frag.action] == [
        f for a in frag.objects for b in frag.objects for f in hom_set(a, b)]


@pytest.mark.parametrize("kind", list(BUILDERS))
def test_a_fragment_round_trips_formatting_each_key_once(monkeypatch, kind):
    """decode_fragment, the one reader of fragment keys, formats the key
    of each listed object and arrow once (every arrow between the listed
    objects is listed here), and gives back the fragment encoded."""
    frag = BUILDERS[kind][0]()
    payload = encode_fragment(frag)
    objects, arrows = _key_calls(monkeypatch)
    assert decode_fragment(payload) == frag
    assert objects == list(frag.objects)
    assert arrows == [f for f, _row in frag.action]


def test_decompose_reconstruction_counts():
    for frag in (UNORDERED, ORDERED):
        parts = decompose(frag).components
        for x in frag.objects:
            total = sum(len(quotient_classes(c.atom, x)) for c in parts)
            assert total == len(frag.elements_at(x))


def test_quotient_classes_counts():
    unordered_atom = make_atom(FinSet(2), (SWAP,))
    assert len(quotient_classes(unordered_atom, FinSet(2))) == 1
    assert len(quotient_classes(unordered_atom, FinSet(3))) == 3
    assert len(quotient_classes(make_atom(FinSet(2)), FinSet(3))) == 6


def test_quotient_fragment_round_trips_through_decompose():
    atom = make_atom(FinSet(2), (SWAP,))
    frag = quotient_fragment(atom, [FinSet(i) for i in range(4)])
    assert decompose(frag).describe() == [("2", "Sym2")]


def test_sheaf_check_passes_on_unordered_pairs():
    atom = make_atom(FinSet(2), (SWAP,))
    verdict = sheaf_check_quotient(atom, make_injection(1, 2, (0,)), 3)
    assert verdict.status == "pass"


def test_sheaf_check_identity_cover():
    verdict = sheaf_check_quotient(make_atom(FinSet(2)), identity(FinSet(2)), 2)
    assert verdict.status == "pass"


def test_sheaf_check_fails_on_tree_quotient():
    atom = make_atom(T3, aut_group(T3).generators)
    q = enumerate_embeddings(T1, T3)[0]
    verdict = sheaf_check_quotient(atom, q, 2)
    assert verdict.status == "fail"
    assert verdict.witness["reason"] == "compatible class does not descend"
    assert verdict.witness["classes_over_cover_source"] == 0
    assert verdict.witness["cover"] == "L>(L L):0:0,0|"


def test_sheaf_check_passes_for_small_schanuel_atoms():
    atoms = [make_atom(FinSet(n)) for n in range(3)]
    atoms.append(make_atom(FinSet(2), (SWAP,)))
    objs = [FinSet(i) for i in range(1, 4)]
    for atom in atoms:
        for s, t in itertools.product(objs, objs):
            for q in hom_set(s, t):
                assert sheaf_check_quotient(atom, q, 2).status == "pass"


def test_self_intersection_passes_on_schanuel_monos():
    objs = [FinSet(i) for i in range(4)]
    for a, b in itertools.product(objs, objs):
        for f in hom_set(a, b):
            assert self_intersection_check(f, 3).status == "pass"


def test_self_intersection_fails_on_root_inclusion():
    q = enumerate_embeddings(T1, T3)[0]
    verdict = self_intersection_check(q, 3)
    assert verdict.status == "fail"
    assert verdict.witness["u"] == "(L L)>(L L):0:0,0;1:0,1;2:0,2|"


def test_self_intersection_identity_is_trivial():
    assert self_intersection_check(identity(T3), 2).status == "pass"


@pytest.mark.parametrize("f, depth", [
    (enumerate_embeddings(T1, build(tail("i")))[0], 2),
    (make_injection(1, 2, (0,)), 3),
])
def test_self_intersection_draws_each_equalized_pair_once(monkeypatch, f,
                                                          depth):
    """The check runs one closure scan: each pair is drawn at most once,
    in scan order, and nothing is drawn past the fixpoint.  T1 -> T(i)
    never settles, so it draws every pair; 1 -> 2 settles at its one
    step, so its last pair drawn is that step's."""
    res = compute_K(f, depth)
    drawn = _count_draws(monkeypatch)
    self_intersection_check(f, depth)
    objects = checker_objects(f.site, depth, (f.dom, f.cod))
    _assert_drawn_once(drawn, f, objects)
    if factor(res.j, f) is None:
        assert len(drawn) == len(list(_equalized_pairs(f, objects)))
    else:
        assert drawn[-1][0] == res.steps[-1].right


def test_sheaf_check_draws_each_equalized_pair_once(monkeypatch):
    """Several classes over T do not descend here; they share one scan."""
    atom, q = make_atom(FinSet(3)), make_injection(2, 3, (0, 1))
    drawn = _count_draws(monkeypatch)
    assert sheaf_check_quotient(atom, q, 2).status == "pass"
    objects = checker_objects(atom.site, 2, (atom.base, q.dom, q.cod))
    _assert_drawn_once(drawn, q, objects)


@pytest.mark.parametrize("atom, q", [
    (make_atom(FinSet(3)), make_injection(2, 3, (0, 1))),
    (make_atom(FinSet(2), (SWAP,)), make_injection(1, 3, (0,))),
])
def test_sheaf_check_stops_at_the_separator_of_its_last_open_class(
        monkeypatch, atom, q):
    """The check draws the pairs up to the first one that separates each
    class over T that does not descend, and none after the last of
    those: 7 of the 90 pairs in both cases here."""
    objects = checker_objects(atom.site, 2, (atom.base, q.dom, q.cod))
    pairs = list(_equalized_pairs(q, objects))
    descended = {class_rep(atom.group, compose(s, q))
                 for s in quotient_classes(atom, q.dom)}

    def separates(f, alpha, beta) -> bool:
        return all(compose(f, alpha) != compose(s, compose(f, beta))
                   for s in atom.group.elements)

    last = max(next(i for i, (alpha, betas) in enumerate(pairs)
                    if any(separates(f, alpha, beta) for beta in betas))
               for f in quotient_classes(atom, q.cod) if f not in descended)
    drawn = _count_draws(monkeypatch)
    assert sheaf_check_quotient(atom, q, 2).status == "pass"
    assert len(drawn) == last + 1 < len(pairs)


def _count_draws(monkeypatch) -> list:
    """Record every pair the checkers draw from _equalized_pairs."""
    scan, drawn = presheaf._equalized_pairs, []

    def counted(m, objects):
        for alpha, betas in scan(m, objects):
            drawn.append((alpha, tuple(betas)))
            yield alpha, betas

    monkeypatch.setattr(presheaf, "_equalized_pairs", counted)
    return drawn


def _assert_drawn_once(drawn, m, objects):
    every = [(alpha, tuple(betas))
             for alpha, betas in _equalized_pairs(m, objects)]
    assert len(drawn) > 1
    assert drawn == every[:len(drawn)]


def test_compute_K_point_into_pair():
    res = compute_K(make_injection(1, 2, (0,)), 3)
    assert res.k == FinSet(1)
    assert group_name(res.group) == "triv"
    assert len(res.steps) == 1
    assert res.verdict.status == "pass"


def test_compute_K_root_inclusion():
    res = compute_K(enumerate_embeddings(T1, T3)[0], 3)
    assert res.k == T3
    assert group_name(res.group) == "Aut"
    assert len(res.steps) == 0
    assert res.verdict.status == "pass"


def test_compute_K_identity():
    res = compute_K(identity(FinSet(2)), 3)
    assert res.k == FinSet(2)
    assert group_name(res.group) == "triv"


def _reference_violating_pair(f, k, j, objects, ja_of):
    """The first pair alpha, beta (alpha-major, both in hom-set order) with
    f;alpha = f;beta whose j;beta is not j';alpha for any j' in hom(k, B).
    ja_of keeps {j';alpha : j' in hom(k, B)}, which depends on k and alpha
    only, so one test can share it across monos and rescans."""
    hom_k_b = hom_set(k, f.cod)
    for x in objects:
        arrows = hom_set(f.cod, x)
        agree = {}
        for beta in arrows:
            agree.setdefault(compose(f, beta), []).append(
                (beta, compose(j, beta)))
        for alpha in arrows:
            ja = ja_of.get((k, alpha))
            if ja is None:
                ja = ja_of[k, alpha] = {compose(j2, alpha) for j2 in hom_k_b}
            for beta, jbeta in agree[compose(f, alpha)]:
                if jbeta not in ja:
                    return alpha, beta
    return None


def _reference_compute_K(f, depth, ja_of):
    """compute_K as a plain double loop over every pair that rescans from
    the first test object after every pullback step, to the end."""
    a_obj, b_obj = f.dom, f.cod
    objects = checker_objects(f.site, depth, (a_obj, b_obj))
    k, j, apexes = b_obj, identity(b_obj), []
    while (pair := _reference_violating_pair(f, k, j, objects,
                                             ja_of)) is not None:
        alpha, beta = pair
        square = pullback(compose(j, beta), alpha)
        apexes.append(object_key(square.apex))
        k, j = square.apex, compose(square.to_left, j)
    unit = next(i for i in hom_set(a_obj, k) if compose(i, j) == f)
    fixing = [s for s in aut_group(k).elements if compose(unit, s) == unit]
    covered = backend(f.site).pairs_covered(depth, (a_obj, b_obj), b_obj,
                                            a_obj)
    verdict = ("pass" if covered else "unknown",
               {"steps": len(apexes), "pair_bound_exhaustive": covered}, depth)
    return apexes, k, j, unit, len(fixing), verdict


_SET_MONOS = [f for n in range(4) for m in range(n + 1)
              for f in hom_set(FinSet(m), FinSet(n))]
_INTO_4 = [f for m in range(5) for f in hom_set(FinSet(m), FinSet(4))]
_TREE_POOL = backend("itree").objects_up_to(2)
_TREE_MONOS = [f for a in _TREE_POOL for b in _TREE_POOL
               for f in hom_set(a, b)]


@pytest.mark.parametrize("monos, depth", [
    (_SET_MONOS, 2),
    ([f for a in enumerate_trees(1, 3, ("i",))
      for b in enumerate_trees(1, 3, ("i",)) for f in hom_set(a, b)], 2),
    (_SET_MONOS, 3),
    (_INTO_4, 3),
    (_TREE_MONOS, 1),
    (_TREE_MONOS, 3),
])
def test_compute_K_single_pass_matches_the_rescanning_reference(monos, depth):
    """Also the stop at the fixpoint: the reference scans every pair.  At
    depth 3, 28 tree monos step on pairs of two agreeing classes, such as
    L -> (T(i) T(j)); no finsetinj mono up to size 4 does."""
    ja_of = {}
    for f in monos:
        res = compute_K(f, depth)
        got = ([object_key(sq.apex) for sq in res.steps], res.k, res.j,
               res.unit, res.group.order,
               (res.verdict.status, res.verdict.witness,
                res.verdict.depth_used))
        assert got == _reference_compute_K(f, depth, ja_of)


@pytest.mark.parametrize("monos, depth", [
    (_SET_MONOS + _INTO_4, 3), (_TREE_MONOS, 1), (_TREE_MONOS, 2), (_TREE_MONOS, 3)])
def test_self_intersection_matches_the_every_pair_reference(monos, depth):
    """The check read off the compute_K closure gives the verdict, witness
    and arrow count of the scan that tests every arrow against every
    pair, on every finsetinj mono into a set of size at most 4 and every
    mono of the itree bound-2 pool.  That an arrow passing every pair
    factors through the closure rests on each step square being a
    pullback for the listed test objects, which is checked here too."""
    for f in monos:
        got = self_intersection_check(f, depth)
        want = self_intersection_reference(f, depth)
        assert (got.status, got.witness, got.depth_used) == \
            (want.status, want.witness, want.depth_used)
        objects = checker_objects(f.site, depth, (f.dom, f.cod))
        for square in compute_K(f, depth).steps:
            assert pullback_is_universal(square, objects)


def _recorded(site: str, entry: str, *keys) -> str:
    digests = json.loads(pathlib.Path(__file__).with_name(
        "audit_digests.json").read_text(encoding="utf-8"))[site][entry]
    for key in keys:
        digests = digests[str(key)]
    return digests


def test_checker_results_hash_as_recorded():
    """compute_K and self_intersection_check on every finsetinj mono into
    a set of size at most 4, at depth 3, byte for byte as recorded in
    audit_digests.json."""
    assert checker_digest(4, 3) == _recorded("finsetinj", "checkers", 4)


def test_checker_results_into_size_5_hash_as_recorded():
    """The same into sets of size at most 5, 326 more monos.  This sweep
    fits tier-1 because the self-intersection check is read off the
    closure; testing every arrow against every pair made it minutes."""
    assert checker_digest(5, 3) == _recorded("finsetinj", "checkers", 5)


@pytest.mark.parametrize("digest, args, counts", [
    (sheaf_digest, ("itree", 2, 1), {"pass": 1442, "unknown": 447, "fail": 1}),
    (sheaf_digest, ("itree", 2, 2), {"pass": 1534, "unknown": 355, "fail": 1}),
    (sheaf_digest, ("finsetinj", 3, 3), {"pass": 140}),
    (local_iso_digest, ("itree", 2, 1, 1),
     {"pass": 62, "unknown": 127, "fail": 7}),
    (local_iso_digest, ("itree", 2, 1, 2),
     {"pass": 121, "unknown": 68, "fail": 7}),
], ids=["sheaf-itree-1", "sheaf-itree-2", "sheaf-finsetinj-3",
        "local-iso-itree-1", "local-iso-itree-2"])
def test_sheaf_and_local_iso_verdicts_hash_as_recorded(digest, args, counts):
    """sheaf_check_quotient of every atom over the pool on every non-iso
    cover (21 itree atoms on 90 covers, 10 finsetinj atoms on 14), and
    local_iso_check of the 196 derived maps between the itree atoms, with
    their witnesses, byte for byte as recorded in audit_digests.json.
    The counts show how rarely the tree checkers decide."""
    entry = "sheaf" if digest is sheaf_digest else "local_iso"
    got, got_counts = digest(*args)
    assert got_counts == counts
    assert got == _recorded(args[0], entry, args[1], args[-1])


def test_compute_K_composes_each_agreeing_class_once_per_inclusion(
        monkeypatch):
    """f: 0 -> 3 equalizes every pair out of 3, so each hom-set out of 3 is
    one class.  Rebuilding ja for every alpha and composing j;beta for
    every beta of its class took 19,092 compositions at depth 3, and
    testing j;beta against the composites {j';alpha : j' in hom(k, 3)}
    took 732; a factor call per composite composes no hom-set (473), and
    the scan ends once j factors through f (89)."""
    calls = _count_composites(monkeypatch)
    res = compute_K(make_injection(0, 3, ()), 3)
    assert res.k == FinSet(0)
    assert len(calls) <= 89


def _count_composites(monkeypatch) -> list:
    calls = []
    then = Injection.then

    def counted(self, other):
        calls.append(None)
        return then(self, other)

    monkeypatch.setattr(Injection, "then", counted)
    return calls


@pytest.mark.parametrize("check, size, most", [
    pytest.param(compute_K, 1, 52, id="compute_K-1-436"),
    pytest.param(compute_K, 2, 38, id="compute_K-2-422"),
    pytest.param(self_intersection_check, 0, 87,
                 id="self_intersection_check-0-626"),
    pytest.param(self_intersection_check, 1, 50,
                 id="self_intersection_check-1-235"),
    pytest.param(self_intersection_check, 2, 35,
                 id="self_intersection_check-2-118")])
def test_checkers_test_factoring_without_composing_hom_sets(
        monkeypatch, check, size, most):
    """The composites a checker makes at depth 3 on the inclusion of
    size points into 3.  Composing hom-sets to test whether an arrow
    factors took, for compute_K, 1,099 and 1,654 on sizes 1 and 2, and
    for self_intersection_check 1,194, 785 and 576 on sizes 0 to 2.
    The counts the cases are named for were taken while compute_K
    scanned past its fixpoint (436 and 422) and while
    self_intersection_check tested every arrow against every pair (626,
    235 and 118); read off the closure, it makes the closure's
    composites and no more."""
    calls = _count_composites(monkeypatch)
    check(make_injection(size, 3, tuple(range(size))), 3)
    assert len(calls) <= most


def test_self_intersection_tests_no_arrow_against_the_pairs(monkeypatch):
    """0 -> 5 equalizes every pair out of 5 at depth 3, 14,400 of them
    between automorphisms of 5.  Testing each of the 326 arrows into 5
    against the pairs took 4,682,194 factor calls; the closure scan takes
    15,127, and its settled closure leaves no arrow to test."""
    calls, real = [], presheaf.factor

    def counted(h, m):
        calls.append(None)
        return real(h, m)

    monkeypatch.setattr(presheaf, "factor", counted)
    verdict = self_intersection_check(make_injection(0, 5, ()), 3)
    assert verdict.status == "pass"
    assert verdict.witness["arrows_checked"] == 326
    assert len(calls) <= 15200


def _count_hom_reads(monkeypatch) -> list:
    """Record the (dom, cod) of every hom-set presheaf reads itself."""
    reads, read = [], presheaf.hom_set

    def counted(a, b):
        reads.append((a, b))
        return read(a, b)

    monkeypatch.setattr(presheaf, "hom_set", counted)
    return reads


@pytest.mark.parametrize("f, most", [
    (make_injection(2, 3, (0, 1)), 4), (make_injection(0, 3, ()), 4),
    (identity(FinSet(3)), None), (make_injection(3, 3, (2, 0, 1)), None),
    (identity(T3), None)], ids=["2-3", "0-3", "id3", "perm3", "idT3"])
def test_compute_K_reads_hom_sets_only_up_to_its_fixpoint(
        monkeypatch, f, most):
    """At depth 3 the full scan reads hom(3, x) for every test object x,
    sizes 0 to 6.  The closure of 2 -> 3 and of 0 -> 3 is settled by size
    4, so the scan stops there; an iso is settled before the scan and
    reads no hom-set."""
    reads = _count_hom_reads(monkeypatch)
    res = compute_K(f, 3)
    if most is None:
        assert reads == []
        assert res.steps == () and res.k == f.cod
    else:
        assert reads == [(f.cod, FinSet(n)) for n in range(most + 1)]


def _sheaf_check(q, depth):
    return sheaf_check_quotient(make_atom(q.cod), q, depth)


def _local_iso_check(q, depth):
    return local_iso_check(atom_identity(make_atom(q.cod)), [q.dom, q.cod],
                           depth)


@pytest.mark.parametrize("check", [self_intersection_check, compute_K,
                                   _sheaf_check, _local_iso_check],
                         ids=lambda check: check.__name__)
@pytest.mark.parametrize("arrow, depth", [
    (make_injection(1, 3, (0,)), -4), (make_injection(1, 2, (0,)), -1),
    (enumerate_embeddings(T1, T3)[0], -3)], ids=["1-3", "1-2", "T1-T3"])
def test_checkers_refuse_a_negative_depth(check, arrow, depth):
    with pytest.raises(SiteError, match="depth must be a natural number"):
        check(arrow, depth)


@pytest.mark.parametrize("build", [unordered_pairs_fragment,
                                   ordered_pairs_fragment],
                         ids=lambda build: build.__name__)
def test_pair_fragments_refuse_a_negative_size(build):
    """A negative size listed no object, and decompose of that empty
    fragment returned no atom: a vacuous result."""
    with pytest.raises(SiteError,
                       match="^bound must be a natural number, got -1$"):
        build(-1)


def test_equalized_pairs_is_the_brute_force_pair_scan():
    monos = [make_injection(0, 2, ()), make_injection(1, 3, (2,)),
             make_injection(2, 3, (0, 2)), identity(FinSet(2)),
             enumerate_embeddings(T1, T3)[0], identity(T3)]
    for m in monos:
        objects = checker_objects(m.site, 2, (m.dom, m.cod))
        scan = [(alpha, beta) for alpha, betas in _equalized_pairs(m, objects)
                for beta in betas]
        brute = [(alpha, beta) for x in objects
                 for alpha in hom_set(m.cod, x) for beta in hom_set(m.cod, x)
                 if compose(m, alpha) == compose(m, beta)]
        assert scan == brute


def test_compute_K_quotient_counts_match_the_source_representable():
    res = compute_K(make_injection(1, 2, (0,)), 3)
    atom = make_atom(res.k, res.group.generators)
    for x in (FinSet(i) for i in range(5)):
        assert len(quotient_classes(atom, x)) == len(hom_set(FinSet(1), x))


def test_local_iso_on_tree_quotient():
    tree_atom = make_atom(T3, aut_group(T3).generators)
    m = AtomMap(tree_atom, make_atom(T1), enumerate_embeddings(T1, T3)[0],
                "derived")
    verdict = local_iso_check(m, backend("itree").objects_up_to(2), 3)
    assert verdict.status == "pass"
    assert verdict.witness == {"objects": 13, "deferred_lifts": 1}


def test_local_iso_fails_on_collapse():
    ordered = make_atom(FinSet(2))
    unordered = make_atom(FinSet(2), (SWAP,))
    (m,) = atom_hom(ordered, unordered)
    verdict = local_iso_check(m, backend("finsetinj").objects_up_to(3), 3)
    assert verdict.status == "fail"
    assert verdict.witness["reason"] == "classes collapse"
    assert verdict.witness["object"] == "2"


def test_local_iso_identity():
    atom = make_atom(FinSet(2), (SWAP,))
    verdict = local_iso_check(atom_identity(atom),
                              backend("finsetinj").objects_up_to(3), 2)
    assert verdict.status == "pass"


def test_checker_objects_bounds():
    sizes = [o.size for o in checker_objects("finsetinj", 3, [FinSet(2)])]
    assert sizes == [0, 1, 2, 3, 4, 5]
    trees = checker_objects("itree", 2, [T3])
    assert all(t.site == "itree" for t in trees)
    assert T3 in trees
    for site, seed in (("finsetinj", FinSet(2)), ("itree", T3)):
        with pytest.raises(SiteError, match="depth must be a natural"):
            checker_objects(site, -1, [seed])


def _pair_bound_misses(shared, tgt, depth):
    """Parallel pairs alpha, beta: tgt => X that some mono m: shared -> tgt
    equalizes, with X from the checker pool two depths up, that factor
    through no checker object P: no alpha', beta': tgt -> P and e: P -> X
    with alpha';e = alpha and beta';e = beta."""
    be = backend(tgt.site)
    seeds = (shared, tgt)
    pool = be.checker_objects(depth, seeds)
    misses = []
    for x in be.checker_objects(depth + 2, seeds):
        through = [{compose(a, e) for a in hom_set(tgt, p)}
                   for p in pool for e in hom_set(p, x)]
        arrows = hom_set(tgt, x)
        for m in hom_set(shared, tgt):
            for alpha, beta in itertools.product(arrows, arrows):
                if compose(m, alpha) != compose(m, beta):
                    continue
                if not any(alpha in s and beta in s for s in through):
                    misses.append((m, alpha, beta))
    return misses


_TI = build(tail("i"))


@pytest.mark.parametrize("shared, tgt", [
    *((FinSet(s), FinSet(t)) for t in range(3) for s in range(t + 1)),
    (T1, T1), (T1, T3), (T3, T3), (_TI, _TI),
], ids=lambda x: object_key(x))
def test_pair_bound_covers_every_equalized_pair(shared, tgt):
    be = backend(tgt.site)
    depth = next(d for d in range(4)
                 if be.pairs_covered(d, (shared, tgt), tgt, shared))
    assert _pair_bound_misses(shared, tgt, depth) == []


@pytest.mark.parametrize("tgt, least", [
    (_TI, 2),
    (build(node(node(leaf(), leaf()), tail("i"))), 4),
], ids=["tails-clause", "node-clause"])
def test_tree_pair_bound_is_pinned_at_its_boundary(tgt, least):
    """The least depth at which the tree pair bound, as written, covers a
    pair out of T(i).  Into T(i) the tails clause decides it (2 * tails
    <= depth); into the tree of 5 explicit nodes and 1 tail the node
    clause does (2 * nodes - 1 + tails <= 2 * depth + 3).  This pins the
    arithmetic, not its tightness: _pair_bound_misses finds no miss for
    T(i) -> T(i) at depth 1, so the tails clause may be loose there."""
    be = backend("itree")
    assert next(d for d in range(8)
                if be.pairs_covered(d, (_TI, tgt), tgt, _TI)) == least


@pytest.mark.parametrize("shared", [T1, T3], ids=object_key)
def test_pair_bound_says_no_when_the_mono_leaves_a_tail_free(shared):
    """Equalized pairs out of T(i) can follow its free tail to any depth
    before they split, so no pool covers them: here some already miss the
    pool at depth 2."""
    be = backend("itree")
    assert not any(be.pairs_covered(d, (shared, _TI), _TI, shared)
                   for d in range(4))
    assert _pair_bound_misses(shared, _TI, 2) != []


@pytest.mark.parametrize("depth", [2, 3])
def test_tree_checkers_are_unknown_when_the_mono_leaves_a_tail_free(depth):
    """Among the monos of enumerate_trees(1, 5, ("i",)), the five from L,
    (L L) and (L (L L)) into T(i) gave a selfint fail and a computek pass at
    depths 2 and 3 while the pair bound wrongly said yes."""
    trees = enumerate_trees(1, 5, ("i",))
    free = [f for a in trees for b in trees for f in hom_set(a, b)
            if len(a.tail_ids) < len(b.tail_ids)]
    assert [object_key(f.dom) for f in free if f.cod == _TI] == [
        "L", "(L L)", "(L L)", "(L (L L))", "(L (L L))"]
    for f in free:
        assert self_intersection_check(f, depth).status == "unknown"
        assert compute_K(f, depth).verdict.status == "unknown"


def test_fragment_codec_round_trip():
    for frag in (UNORDERED, representable_fragment(FinSet(1),
                                                   [FinSet(i) for i in range(3)])):
        again = decode_fragment(encode_fragment(frag))
        assert [object_key(o) for o in again.objects] == \
            [object_key(o) for o in frag.objects]
        for x in frag.objects:
            assert again.elements_at(x) == frag.elements_at(x)
