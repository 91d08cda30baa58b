"""Site-condition audits: bounded verification of amalgamation,
regular-mono witnesses, zig-zag completion, rank descent, group
finiteness, and the atom-chain stabilization helper."""

import hashlib
import json
import pathlib

import pytest

from atomkit import (
    AuditReport,
    CheckVerdict,
    FinSet,
    SiteError,
    Span,
    amalgamate,
    atom_chain,
    audit_c1,
    audit_c2prime,
    audit_c3,
    audit_c4,
    aut_group,
    backend,
    build,
    canonical_json,
    compose,
    enumerate_embeddings,
    extend_parallel_pair,
    hom_set,
    identity,
    leaf,
    make_atom,
    make_injection,
    morphism_key,
    node,
    object_key,
    pullback,
    rank,
    tail,
    tree_stats,
)
from atomkit import audit, cli, itree
from atomkit.audit import c2prime_chain, verify_chain
from atomkit.core import backend_of
from atomkit.finsetinj import FinSetInjBackend

T1 = build(leaf())
T3 = build(node(leaf(), leaf()))


def test_audit_objects_counts():
    assert [o.size for o in backend("finsetinj").objects_up_to(3)] \
        == [0, 1, 2, 3]
    trees = backend("itree").objects_up_to(2)
    assert len(trees) == 13
    with pytest.raises(SiteError):
        backend("nosuch").objects_up_to(2)


def test_c3_chain_steps_between_isomorphic_trees_are_repeats():
    padded_tail = build(node(leaf(), tail("i")))
    report = audit_c3("itree", chains=[[padded_tail, build(tail("i"))]])
    (row,) = report.to_json()["verdicts"]
    assert row["status"] == "pass"
    assert row["witness"]["steps"] == ["repeat"]


def test_c3_chain_step_onto_a_proper_subtree_drops_the_rank():
    report = audit_c3("itree", chains=[[T3, T1]])
    (row,) = report.to_json()["verdicts"]
    assert row["status"] == "pass"
    assert row["witness"]["steps"] == ["drop"]


def test_c3_chain_step_up_to_a_larger_tree_is_not_a_subobject():
    report = audit_c3("itree", chains=[[T1, T3]])
    (row,) = report.to_json()["verdicts"]
    assert row["status"] == "fail"
    assert row["witness"]["steps"] == ["not a subobject"]


def test_c3_chain_fails_a_proper_step_whose_rank_does_not_drop(monkeypatch):
    monkeypatch.setattr(audit, "rank", lambda obj: rank(T1))
    report = audit_c3("itree", chains=[[T3, T1]])
    (row,) = report.to_json()["verdicts"]
    assert row["status"] == "fail"
    assert row["witness"]["steps"] == ["rank does not drop"]


def test_finsetinj_audits_all_pass():
    for fn, instances in ((audit_c1, 176), (audit_c2prime, 4192),
                          (audit_c3, 14), (audit_c4, 4)):
        report = fn("finsetinj", 3)
        assert report.passed
        counts = report.counts()
        assert counts == {"pass": instances, "fail": 0, "unknown": 0}


def test_itree_audits_all_pass():
    for fn, instances in ((audit_c1, 2154), (audit_c2prime, 7937),
                          (audit_c3, 90), (audit_c4, 13)):
        report = fn("itree", 2)
        assert report.passed
        counts = report.counts()
        assert counts == {"pass": instances, "fail": 0, "unknown": 0}


def test_audit_reports_replay_identically():
    first = audit_c3("itree", 2).to_json()
    second = audit_c3("itree", 2).to_json()
    assert first == second
    assert first["condition"] == "C3"
    assert first["bound"] == 2
    statuses = {row["status"] for row in first["verdicts"]}
    assert statuses == {"pass"}


def test_zigzag_shortcut_lengths():
    two = identity(FinSet(2))
    sq = pullback(two, two)
    u = make_injection(2, 3, (0, 1))
    w, chain = c2prime_chain(sq, u, u)
    assert len(chain) == 1 and verify_chain(sq, u, u, w, chain)

    p0 = make_injection(1, 2, (0,))
    sq = pullback(p0, p0)
    v = make_injection(2, 3, (0, 2))
    w, chain = c2prime_chain(sq, u, v)
    assert len(chain) == 2 and verify_chain(sq, u, v, w, chain)


def test_zigzag_general_injection_case_uses_four_links():
    p0 = make_injection(1, 3, (0,))
    p1 = make_injection(1, 3, (1,))
    sq = pullback(p0, p1)
    assert sq.apex == FinSet(0)
    u = identity(FinSet(3))
    v = make_injection(3, 3, (1, 0, 2))
    assert compose(p0, u) != compose(p0, v)
    assert compose(p1, u) != compose(p1, v)
    w, chain = c2prime_chain(sq, u, v)
    assert len(chain) == 4
    assert verify_chain(sq, u, v, w, chain)


def test_zigzag_tree_case_uses_three_links():
    z = build(node(node(leaf(), leaf()), node(leaf(), leaf())))
    t5 = build(node(node(leaf(), leaf()), leaf()))
    embs = enumerate_embeddings(t5, z)
    f = embs[0]
    g = next(e for e in embs if e.explicit_images[1] != f.explicit_images[1])
    u = identity(z)
    v = next(a for a in enumerate_embeddings(z, z)
             if a.explicit_images == ((0, 0), (0, 1), (0, 3), (0, 2),
                                      (0, 4), (0, 6), (0, 5)))
    sq = pullback(f, g)
    assert compose(f, u) != compose(f, v)
    assert compose(g, u) != compose(g, v)
    w, chain = c2prime_chain(sq, u, v)
    assert len(chain) == 3
    assert verify_chain(sq, u, v, w, chain)


def test_extend_parallel_pair_squares_commute():
    f = make_injection(2, 3, (0, 1))
    alpha = make_injection(2, 4, (0, 3))
    beta = make_injection(2, 4, (3, 0))
    fp, ap, bp = extend_parallel_pair(f, alpha, beta)
    assert compose(alpha, fp) == compose(f, ap)
    assert compose(beta, fp) == compose(f, bp)


def test_atom_chain_reaches_the_stable_tree_atom():
    t3 = build(node(leaf(), leaf()))
    chain = atom_chain(make_atom(t3))
    assert [a.describe() for a in chain] == [("(L L)", "triv"), ("(L L)", "Aut")]
    assert atom_chain(chain[-1]) == [chain[-1]]


def test_atom_chain_steps_descend():
    t5 = build(node(node(leaf(), leaf()), leaf()))
    for start in (make_atom(t5), make_atom(FinSet(2))):
        chain = atom_chain(start)
        for cur, nxt in zip(chain, chain[1:]):
            if cur.base == nxt.base:
                assert len(nxt.group.elements) > len(cur.group.elements)
            else:
                assert rank(nxt.base) < rank(cur.base)


def test_atom_chain_respects_the_rank_budget():
    for base in backend("itree").objects_up_to(2):
        stats = tree_stats(base)
        budget = stats.branch_count + stats.f_count + len(aut_group(base).elements)
        chain = atom_chain(make_atom(base))
        assert len(chain) - 1 <= budget


def test_the_hom_set_memo_lives_for_one_audit_call(monkeypatch):
    """hom_set and compose are memoised for one call: a second call makes
    the same calls again, and within one call no hom-set and no composite
    is computed twice.  Building a pullback square composes nothing: its
    commutativity check compares image tables (core.commutes)."""
    calls, composites, square_checks, building = [], [], [], []
    real_enumerate = itree.enumerate_embeddings
    real_then = itree.TreeEmbedding.then
    real_pullback = audit.pullback

    def enumerate_counted(x, y):
        calls.append((x, y))
        return real_enumerate(x, y)

    def then_counted(f, g):
        (square_checks if building else composites).append((f, g))
        return real_then(f, g)

    def pullback_marked(f, g):
        building.append(True)
        try:
            return real_pullback(f, g)
        finally:
            building.pop()

    monkeypatch.setattr(itree, "enumerate_embeddings", enumerate_counted)
    monkeypatch.setattr(itree.TreeEmbedding, "then", then_counted)
    monkeypatch.setattr(audit, "pullback", pullback_marked)
    audit_c2prime("itree", 1)
    first, first_composites = len(calls), len(composites)
    first_checks = len(square_checks)
    audit_c2prime("itree", 1)
    pool = backend("itree").objects_up_to(1)
    assert 0 < first <= len(pool) ** 2
    assert len(calls) == 2 * first
    assert len(set(calls)) == first
    assert 0 < first_composites and len(composites) == 2 * first_composites
    assert len(set(composites)) == first_composites
    assert first_checks == 0 and square_checks == []


def _reference_chain(square, u, v) -> tuple:
    """c2prime_chain as a plain function of core compose and identity."""
    f, g = square.left, square.right
    meet = compose(square.to_left, f)
    assert compose(meet, u) == compose(meet, v)
    if u == v:
        return identity(u.cod), (u,)
    if compose(f, u) == compose(f, v) or compose(g, u) == compose(g, v):
        return identity(u.cod), (u, v)
    return backend_of(f.cod).zigzag(square, u, v)


def _reference_verify(square, u, v, w, chain) -> bool:
    f, g = square.left, square.right
    if chain[0] != compose(u, w) or chain[-1] != compose(v, w):
        return False
    return all(compose(f, k1) == compose(f, k2)
               or compose(g, k1) == compose(g, k2)
               for k1, k2 in zip(chain, chain[1:]))


def _reference_c2prime(site: str, bound: int) -> AuditReport:
    """The C2' audit as the plain loop: no memo, and every pair (u, v)
    tested for agreement on the square's meet."""
    objects = backend(site).objects_up_to(bound)
    rows = []
    for z in objects:
        legs = [m for x in objects for m in hom_set(x, z)]
        for f in legs:
            for g in legs:
                square = pullback(f, g)
                meet = compose(square.to_left, f)
                for a in objects:
                    arrows = hom_set(z, a)
                    for u in arrows:
                        for v in arrows:
                            if compose(meet, u) != compose(meet, v):
                                continue
                            key = "zigzag|%s|%s|%s|%s" % (
                                morphism_key(f), morphism_key(g),
                                morphism_key(u), morphism_key(v))
                            w, chain = _reference_chain(square, u, v)
                            good = _reference_verify(square, u, v, w, chain)
                            rows.append((key, CheckVerdict(
                                "pass" if good else "fail",
                                {"chain_length": len(chain),
                                 "target": object_key(w.cod)}, bound)))
    return AuditReport("C2prime", bound, tuple(rows))


@pytest.mark.parametrize("site, bound", [("itree", 1), ("finsetinj", 2),
                                         ("itree", 2), ("finsetinj", 3)])
def test_c2prime_report_matches_the_plain_loop(site, bound):
    assert audit_c2prime(site, bound).to_json() \
        == _reference_c2prime(site, bound).to_json()


def _fail_rows(report: AuditReport) -> list:
    return [(key, v.witness) for key, v in report.verdicts
            if v.status == "fail"]


def test_a_zigzag_link_on_neither_leg_fails_the_same_rows(monkeypatch):
    """Dropping the middle links leaves the one link (u;w, v;w), which
    agrees on neither leg whenever the zigzag is needed: w is a mono."""
    real = FinSetInjBackend.zigzag

    def broken(self, square, u, v):
        w, chain = real(self, square, u, v)
        return w, (chain[0], chain[-1])

    monkeypatch.setattr(FinSetInjBackend, "zigzag", broken)
    report = audit_c2prime("finsetinj", 3)
    fails = _fail_rows(report)
    assert fails and all(w["chain_length"] == 2 for _k, w in fails)
    assert fails == _fail_rows(_reference_c2prime("finsetinj", 3))
    assert report.counts()["pass"] > 0


def test_a_broken_identity_fails_the_same_rows(monkeypatch):
    """The planted identity on 3 swaps 0 and 1, so u;id == u only for
    the arrows u into 3 whose image misses both: rows of one hom-set
    pass or fail by u and by v."""
    real = FinSetInjBackend.identity

    def broken(self, obj):
        if obj == FinSet(3):
            return make_injection(3, 3, (1, 0, 2))
        return real(self, obj)

    monkeypatch.setattr(FinSetInjBackend, "identity", broken)
    report = audit_c2prime("finsetinj", 3)
    fails = _fail_rows(report)
    assert fails and all(w["target"] == "3" for _k, w in fails)
    assert fails == _fail_rows(_reference_c2prime("finsetinj", 3))
    assert report.counts()["pass"] > 0


def _grouping(meet, arrows) -> list:
    """For each arrow a, the index of the first a' with meet;a' == meet;a."""
    first: dict = {}
    return [first.setdefault(compose(meet, a), n)
            for n, a in enumerate(arrows)]


@pytest.mark.parametrize("site, bound", [("itree", 2), ("finsetinj", 3)])
def test_swapped_squares_group_every_hom_set_alike(site, bound):
    """The C2' audit reads the rows of (g, f) off the meet of (f, g)."""
    objects = backend(site).objects_up_to(bound)
    for z in objects:
        legs = [m for x in objects for m in hom_set(x, z)]
        outs = [hom_set(z, a) for a in objects]
        for i, f in enumerate(legs):
            for g in legs[i + 1:]:
                meets = [compose(sq.to_left, sq.left)
                         for sq in (pullback(f, g), pullback(g, f))]
                assert meets[0].cod == meets[1].cod == z
                for arrows in outs:
                    assert _grouping(meets[0], arrows) \
                        == _grouping(meets[1], arrows)


def _factors(h, m) -> bool:
    """Whether h = w;m for some arrow w, by a scan of hom(dom h, dom m)."""
    return any(compose(w, m) == h for w in hom_set(h.dom, m.dom))


@pytest.mark.parametrize("site, bound, pullbacks", [("itree", 2, 66),
                                                    ("finsetinj", 3, 44)])
def test_c2prime_builds_pullbacks_only_for_legs_that_do_not_nest(
        monkeypatch, site, bound, pullbacks):
    calls = []
    real = audit.pullback

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(audit, "pullback", counted)
    audit_c2prime(site, bound)
    assert len(calls) == pullbacks
    assert not any(_factors(f, g) or _factors(g, f) for f, g in calls)


@pytest.mark.parametrize("site, bound", [("itree", 2), ("finsetinj", 3)])
def test_a_leg_another_factors_through_groups_like_the_meet(site, bound):
    """The C2' audit takes that leg as the meet of a nested leg pair."""
    objects = backend(site).objects_up_to(bound)
    nested = 0
    for z in objects:
        legs = [m for x in objects for m in hom_set(x, z)]
        outs = [hom_set(z, a) for a in objects]
        for i, f in enumerate(legs):
            for g in legs[i:]:
                for inner, outer in ((f, g), (g, f)):
                    if not _factors(inner, outer):
                        continue
                    nested += 1
                    square = pullback(f, g)
                    meet = compose(square.to_left, f)
                    for arrows in outs:
                        assert _grouping(inner, arrows) \
                            == _grouping(meet, arrows)
    assert nested > 0


def _reference_c1(site: str, bound: int) -> AuditReport:
    """The C1 audit as the plain loop: no memo, and a fresh verdict on
    every row."""
    objects = backend(site).objects_up_to(bound)
    rows = []
    for a in objects:
        for b in objects:
            for f in hom_set(a, b):
                for x in objects:
                    for g in hom_set(a, x):
                        cone = amalgamate(Span(f, g))
                        rows.append(("span|%s|%s" % (morphism_key(f),
                                                     morphism_key(g)),
                                     CheckVerdict("pass", {
                                         "cocone": object_key(cone.obj)},
                                         bound)))
    for a in objects:
        for b in objects:
            for m in hom_set(a, b):
                ok, witness = backend_of(m).regular_mono(m)
                rows.append(("regmono|%s" % morphism_key(m), CheckVerdict(
                    "pass" if ok else "fail", witness, bound)))
    return AuditReport("C1", bound, tuple(rows))


@pytest.mark.parametrize("site, bound", [("itree", 2), ("finsetinj", 3)])
def test_c1_report_matches_the_plain_loop(site, bound):
    assert audit_c1(site, bound).to_json() \
        == _reference_c1(site, bound).to_json()


@pytest.mark.parametrize("audit_fn, prefix", [(audit_c1, "span|"),
                                              (audit_c2prime, "zigzag|")])
def test_equal_rows_of_one_audit_call_share_one_verdict(audit_fn, prefix):
    """Span rows of C1 with one cocone, and C2' rows with one status,
    chain length and target, carry one CheckVerdict object; a second call
    builds its own."""
    first, second = audit_fn("itree", 2), audit_fn("itree", 2)
    ids = []
    for report in (first, second):
        by_value: dict = {}
        for key, v in report.verdicts:
            if key.startswith(prefix):
                by_value.setdefault((v.status, canonical_json(v.witness)),
                                    set()).add(id(v))
        assert all(len(objs) == 1 for objs in by_value.values())
        ids.append(set().union(*by_value.values()))
    assert len(ids[0]) < len(first.verdicts)
    assert not ids[0] & ids[1]


def test_c3_ranks_each_object_once(monkeypatch):
    calls = []
    real = itree.ITreeBackend.rank

    def counted(self, obj):
        calls.append(obj)
        return real(self, obj)

    monkeypatch.setattr(itree.ITreeBackend, "rank", counted)
    audit_c3("itree", 2)
    assert sorted(map(object_key, calls)) == sorted(
        map(object_key, backend("itree").objects_up_to(2)))


def test_c1_formats_each_arrow_key_once(monkeypatch):
    """One morphism_key call per arrow of the pool, although every arrow
    shows up in many span rows and in its regular-mono row."""
    calls = []
    real = audit.morphism_key

    def counted(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(audit, "morphism_key", counted)
    report = audit_c1("itree", 2)
    pool = backend("itree").objects_up_to(2)
    arrows = [f for a in pool for b in pool for f in hom_set(a, b)]
    assert sorted(map(real, calls)) == sorted(map(real, arrows))
    assert len(report.verdicts) > 2 * len(arrows)


DIGESTS = json.loads(pathlib.Path(__file__).with_name(
    "audit_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("condition", ["c1", "c2prime"])
def test_tree_audits_print_the_recorded_reports(condition, capsys):
    """The stdout of `atomkit audit --site itree --bound 2`, byte for
    byte, as recorded in audit_digests.json (CI checks bound 3)."""
    assert cli.main(["audit", "--condition", condition, "--site", "itree",
                     "--bound", "2"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == \
        DIGESTS["itree"][condition]["2"]


@pytest.mark.parametrize("site, bound", [("itree", "2"), ("finsetinj", "6")])
def test_c3_audits_print_the_recorded_reports(site, bound, capsys):
    """Every C3 row asks is_iso, which reads an inverse off factor; the
    stdout of `atomkit audit --condition c3` is byte for byte the one
    recorded in audit_digests.json (CI checks itree bound 3)."""
    assert cli.main(["audit", "--condition", "c3", "--site", site,
                     "--bound", bound]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[site]["c3"][bound]


@pytest.mark.parametrize("site", ["finsetinj", "itree"])
@pytest.mark.parametrize("run", [audit_c1, audit_c2prime, audit_c3, audit_c4],
                         ids=lambda run: run.__name__)
def test_audits_refuse_a_negative_bound(run, site):
    with pytest.raises(SiteError, match="bound must be a natural number"):
        run(site, -1)
