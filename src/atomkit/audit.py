"""Bounded audits of the site conditions and the parallel-pair extension.

Each audit enumerates every instance of its condition up to a bound and
returns a report pairing instance keys with verdicts.  Instance keys
embed the full arrow data, so a failing row can be replayed verbatim;
reruns produce bit-identical reports.

A bound b covers the objects the site's objects_up_to(b) lists.
"""

from __future__ import annotations

from .atoms import FormalAtom, coequalize_representables, make_atom
from .core import (Span, SiteError, Value, amalgamate, aut_group, backend,
                   backend_of, commutes, compose, hom_set, identity, is_iso,
                   morphism_key, object_key, pullback, rank)
from .presheaf import CheckVerdict

MAX_CHAIN_STEPS = 32  # steps before atom_chain gives up


def _pool(site: str, bound: int) -> list:
    """The objects an audit at this bound covers; refuses a negative one."""
    if bound < 0:
        raise SiteError("bound must be a natural number, got %d" % bound)
    return backend(site).objects_up_to(bound)


class AuditReport(Value):
    """The (instance key, verdict) rows of one audit, in loop order.

    Rows with equal verdicts may share one CheckVerdict, and so one
    witness dict: audit_c1 builds one per cocone key and audit_c2prime
    one per (status, chain length, target).  Witnesses are read-only;
    to_json hands them out as they are.
    """

    _fields = ("condition", "bound", "verdicts")

    @property
    def passed(self) -> bool:
        return all(v.status == "pass" for _k, v in self.verdicts)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "unknown": 0}
        for _k, v in self.verdicts:
            out[v.status] += 1
        return out

    def to_json(self) -> dict:
        return {"condition": self.condition, "bound": self.bound,
                "instances": len(self.verdicts), "counts": self.counts(),
                "verdicts": [{"instance": k, "status": v.status,
                              "witness": v.witness}
                             for k, v in self.verdicts]}


class _Memo:
    """hom_set, compose and identity, each memoised in a dict of its own
    for the audit call that made the memo: the memo lives as long as that
    call, so nothing outlives it.  Arrows are values that hash and compare
    by value, and composition is a function of them, so an argument seen
    before gets back the value computed the first time."""

    def __init__(self):
        self._homs: dict = {}
        self._composites: dict = {}
        self._identities: dict = {}

    def homs(self, a, b) -> list:
        if (a, b) not in self._homs:
            self._homs[a, b] = hom_set(a, b)
        return self._homs[a, b]

    def compose(self, f, g):
        fg = self._composites.get((f, g))
        if fg is None:
            fg = self._composites[f, g] = compose(f, g)
        return fg

    def identity(self, obj):
        if obj not in self._identities:
            self._identities[obj] = identity(obj)
        return self._identities[obj]


# ---------------------------------------------------------------------------
# C1: amalgamation and regular monomorphisms

def _regular_mono_row(m, bound: int = 0) -> CheckVerdict:
    ok, witness = backend_of(m).regular_mono(m)
    return CheckVerdict("pass" if ok else "fail", witness, bound)


def audit_c1(site: str, bound: int) -> AuditReport:
    """Every span within bound amalgamates; every mono is regular.

    A span row passes exactly when amalgamate returns: amalgamate checks
    that its cocone commutes and raises SiteError when it does not.
    """
    objects = _pool(site, bound)
    homs = {(a, b): [(f, morphism_key(f)) for f in hom_set(a, b)]
            for a in objects for b in objects}  # each arrow with its key
    rows = []
    passes: dict = {}  # cocone key -> its one verdict in this report
    for a in objects:
        for b in objects:
            for f, fkey in homs[a, b]:
                for x in objects:
                    for g, gkey in homs[a, x]:
                        key = "span|%s|%s" % (fkey, gkey)
                        cocone = object_key(amalgamate(Span(f, g)).obj)
                        verdict = passes.get(cocone)
                        if verdict is None:
                            verdict = passes[cocone] = CheckVerdict(
                                "pass", {"cocone": cocone}, bound)
                        rows.append((key, verdict))
    for a in objects:
        for b in objects:
            for m, mkey in homs[a, b]:
                rows.append(("regmono|" + mkey, _regular_mono_row(m, bound)))
    return AuditReport("C1", bound, tuple(rows))


# ---------------------------------------------------------------------------
# C2': zig-zag completion over pullbacks

def c2prime_chain(square, u, v, *, memo: _Memo | None = None) -> tuple:
    """A morphism w out of the ambient object and the zig-zag chain
    u;w = k_0, ..., k_n = v;w with consecutive entries agreeing on one
    leg of the square.

    After the trivial shortcuts the site's zigzag builds the chain.  An
    audit passes its memo, so composites it has computed are not
    recomputed; every check runs either way.
    """
    memo = _Memo() if memo is None else memo
    f, g = square.left, square.right
    z = f.cod
    if u.dom != z or v.dom != z or u.cod != v.cod:
        raise SiteError("the pair must be parallel out of the ambient object")
    meet = memo.compose(square.to_left, f)
    if memo.compose(meet, u) != memo.compose(meet, v):
        raise SiteError("the pair does not agree on the intersection")
    if u == v:
        return memo.identity(u.cod), (u,)
    if (memo.compose(f, u) == memo.compose(f, v)
            or memo.compose(g, u) == memo.compose(g, v)):
        return memo.identity(u.cod), (u, v)
    return backend_of(z).zigzag(square, u, v)


def verify_chain(square, u, v, w, chain, *, memo: _Memo | None = None) -> bool:
    memo = _Memo() if memo is None else memo
    f, g = square.left, square.right
    if chain[0] != memo.compose(u, w) or chain[-1] != memo.compose(v, w):
        return False
    for k1, k2 in zip(chain, chain[1:]):
        if (memo.compose(f, k1) != memo.compose(f, k2)
                and memo.compose(g, k1) != memo.compose(g, k2)):
            return False
    return True


class _ClassTables(dict):
    """The class tables of the arrows h into one ambient object z, each
    built on first use.

    arrows lists the arrows out of z in hom-set order, one hom-set after
    another; groups holds the range of each hom-set in that list.  The
    table of h is (cls, agree): cls[n] is the index of the first arrow a
    with h;a == h;arrows[n], one memo composite per arrow, and agree[n]
    lists, in hom-set order, the arrows of the n-th arrow's hom-set that
    share its class.
    """

    def __init__(self, arrows: list, groups: list, memo: _Memo):
        super().__init__()
        self.arrows, self.groups, self.memo = arrows, groups, memo

    def __missing__(self, h) -> tuple:
        first: dict = {}
        cls = [first.setdefault(self.memo.compose(h, a), n)
               for n, a in enumerate(self.arrows)]
        agree = []
        for grp in self.groups:
            members: dict = {}
            for n in grp:
                members.setdefault(cls[n], []).append(n)
            agree += [members[cls[n]] for n in grp]
        self[h] = cls, agree
        return cls, agree


def audit_c2prime(site: str, bound: int) -> AuditReport:
    """For every pullback square and agreeing pair within bound, build
    and verify a zig-zag chain.

    The rows are those of the plain loop: for each ambient object z,
    each ordered pair of legs (f, g) into z with meet m = to_left;f,
    each hom-set out of z and each u, v in it with m;u == m;v, in
    hom-set order.  One memo serves the whole call.  For each z the
    arrows out of z are listed once, and every arrow h into z that the
    loop meets (each leg, each distinct meet) gets one class table (see
    _ClassTables).  Each test of c2prime_chain and verify_chain becomes
    a comparison of indices:

    - u and v are parallel and agree on the meet exactly when v is in
      the agree list of u in the meet's table;
    - u == v when they have the same index;
    - the length-2 chain (u, v) links when cls[u] == cls[v] in the table
      of f or in that of g;
    - u;id == u is composed once per arrow u out of z, and decides the
      rows of length 1 and 2, whose w is the identity on the target.

    Only rows that need the site's zigzag call c2prime_chain and
    verify_chain, which run every check on the square.

    A pair of nested legs needs no pullback.  below[j] is the set of
    arrows w;g with w out of a listed object into the domain of the j-th
    leg g; every leg's domain is listed, so f is in it exactly when f
    factors through g.  Every arrow of both sites is mono.  If f = w;g,
    the square (id, w) is a pullback of (f, g): a cone a;f == b;g gives
    b;g == a;w;g, so b = a;w as g is mono, and a is its one factor.  So
    the site's square has an iso s as to_left, and its meet s;f groups
    every hom-set out of z as f does: s;f;u == s;f;v exactly when
    f;u == f;v.  The audit takes f as the meet; when g = w;f instead, it
    takes g, by the same argument with the legs swapped.  Every row of
    such a pair agrees on the leg that is the meet, so it has length 1
    or 2 and needs no square.

    One pullback is computed per unordered pair of legs: the rows of
    (g, f) reuse the meet of (f, g).  Both squares are pullbacks of the
    same cospan with the legs swapped, so with primes marking the
    projections of (g, f), the unique iso s from the apex of (g, f) to
    the apex of (f, g) with s;to_left = to_right' and s;to_right =
    to_left' gives to_left';g = s;to_right;g = s;to_left;f: the meets
    differ by the iso s.  As s is invertible, s;m;u == s;m;v
    exactly when m;u == m;v, so both meets group every hom-set out of z
    the same way.  The (g, f) square is built only when one of its rows
    needs the zigzag, and c2prime_chain then checks the agreement on its
    own meet.
    """
    objects = _pool(site, bound)
    memo = _Memo()
    rows = []
    verdicts: dict = {}  # (good, length, target) -> its one verdict
    for z in objects:
        arrows, groups = [], []
        for a in objects:
            hom = memo.homs(z, a)
            groups.append(range(len(arrows), len(arrows) + len(hom)))
            arrows += hom
        keys = ["|" + morphism_key(u) for u in arrows]
        unit, targets = [], []
        for u in arrows:
            ident = memo.identity(u.cod)
            unit.append(memo.compose(u, ident) == u)
            targets.append(object_key(ident.cod))
        tables = _ClassTables(arrows, groups, memo)
        legs = [m for x in objects for m in memo.homs(x, z)]
        leg_keys = [morphism_key(f) for f in legs]
        below = [{memo.compose(w, g) for y in objects
                  for w in memo.homs(y, g.dom)} for g in legs]
        meets: dict = {}
        for i, f in enumerate(legs):
            cf = tables[f][0]
            for j, g in enumerate(legs):
                cg = tables[g][0]
                square = None
                if i > j:
                    meet = meets.pop((i, j))
                elif f in below[j]:
                    meet = meets[j, i] = f
                elif g in below[i]:
                    meet = meets[j, i] = g
                else:
                    square = pullback(f, g)
                    meet = meets[j, i] = memo.compose(square.to_left, f)
                agree = tables[meet][1]
                prefix = "zigzag|%s|%s" % (leg_keys[i], leg_keys[j])
                for n, u in enumerate(arrows):
                    for k in agree[n]:
                        target = targets[n]
                        if k == n:
                            length, good = 1, unit[n]
                        elif cf[n] == cf[k] or cg[n] == cg[k]:
                            length, good = 2, unit[n] and unit[k]
                        else:
                            if square is None:
                                square = pullback(f, g)
                            v = arrows[k]
                            w, chain = c2prime_chain(square, u, v, memo=memo)
                            good = verify_chain(square, u, v, w, chain,
                                                memo=memo)
                            length, target = len(chain), object_key(w.cod)
                        verdict = verdicts.get((good, length, target))
                        if verdict is None:
                            verdict = verdicts[good, length, target] = \
                                CheckVerdict("pass" if good else "fail",
                                             {"chain_length": length,
                                              "target": target}, bound)
                        rows.append((prefix + keys[n] + keys[k], verdict))
    return AuditReport("C2prime", bound, tuple(rows))


# ---------------------------------------------------------------------------
# C3: well-foundedness via the rank

def audit_c3(site: str, bound: int = 0, chains=None) -> AuditReport:
    """Rank strictly decreases along proper subobject steps.

    With explicit chains, verify each consecutive step embeds and drops
    the rank unless the objects are isomorphic.  Otherwise enumerate every
    non-invertible mono within bound as a two-term chain.
    """
    rows = []
    if chains is not None:
        for idx, chain in enumerate(chains):
            steps = []
            good = True
            for below, above in zip(chain[1:], chain):
                arrows = hom_set(below, above)
                if any(is_iso(m) for m in arrows):
                    steps.append("repeat")
                    continue
                if not arrows:
                    good = False
                    steps.append("not a subobject")
                    break
                if not rank(below) < rank(above):
                    good = False
                    steps.append("rank does not drop")
                    break
                steps.append("drop")
            key = "chain|%d|%s" % (idx, ">".join(object_key(c) for c in chain))
            rows.append((key, CheckVerdict(
                "pass" if good else "fail",
                {"length": len(chain), "steps": steps}, bound)))
        return AuditReport("C3", bound, tuple(rows))
    objects = _pool(site, bound)
    ranks = [rank(x) for x in objects]
    for s, rs in zip(objects, ranks):
        for t, rt in zip(objects, ranks):
            for m in hom_set(s, t):
                if is_iso(m):
                    continue
                rows.append(("mono|%s" % morphism_key(m), CheckVerdict(
                    "pass" if rs < rt else "fail",
                    {"below": list(rs.components),
                     "above": list(rt.components)}, bound)))
    return AuditReport("C3", bound, tuple(rows))


# ---------------------------------------------------------------------------
# C4: automorphism groups are finite, hence Noetherian

def audit_c4(site: str, bound: int) -> AuditReport:
    rows = []
    for x in _pool(site, bound):
        grp = aut_group(x)
        closed = all(compose(s, t) in grp
                     for s in grp.elements for t in grp.elements)
        rows.append(("aut|%s" % object_key(x), CheckVerdict(
            "pass" if closed else "fail", {"order": grp.order}, bound)))
    return AuditReport("C4", bound, tuple(rows))


AUDITS = {"c1": audit_c1, "c2prime": audit_c2prime, "c3": audit_c3,
          "c4": audit_c4}


# ---------------------------------------------------------------------------
# parallel-pair extension

def extend_parallel_pair(f, alpha, beta):
    """Turn a pair alpha, beta: A => X into a pair out of B across
    f: A -> B, with f': X -> Y satisfying alpha;f' = f;alpha' and
    beta;f' = f;beta'.

    One amalgamation handles an equal pair; otherwise amalgamate f with
    alpha, then f with beta pushed into that cocone.
    """
    if f.dom != alpha.dom or f.dom != beta.dom or alpha.cod != beta.cod:
        raise SiteError("the pair must share the mono's domain and a target")
    if alpha == beta:
        cone = amalgamate(Span(f, alpha))
        return cone.from_right, cone.from_left, cone.from_left
    first = amalgamate(Span(f, alpha))
    u, v = first.from_left, first.from_right
    second = amalgamate(Span(f, compose(beta, v)))
    fprime = compose(v, second.from_right)
    alphaprime = compose(u, second.from_right)
    betaprime = second.from_left
    if not (commutes(alpha, fprime, f, alphaprime)
            and commutes(beta, fprime, f, betaprime)):
        raise SiteError("extension squares failed to commute")
    return fprime, alphaprime, betaprime


# ---------------------------------------------------------------------------
# atom chains for the stabilization check

def _next_atom(cur: FormalAtom):
    """One canonical descent step, or None when the atom is stable.

    Base step: the first parallel pair (smallest domain first) whose
    coequalizer moves the base.  Group step: adjoin the first missing
    automorphism.
    """
    base = cur.base
    for d in backend_of(base).chain_domains(base):
        arrows = hom_set(d, base)
        for i, alpha in enumerate(arrows):
            for beta in arrows[i + 1:]:
                trace = coequalize_representables(alpha, beta)
                if trace.result.base != base:
                    return trace.result
    full = aut_group(base)
    if cur.group.order < full.order:
        extra = next(s for s in full.elements if s not in cur.group)
        return make_atom(base, cur.group.elements + (extra,))
    return None


def atom_chain(start: FormalAtom) -> list[FormalAtom]:
    """Repeated coequalizer/quotient steps from an atom until stable.

    Base steps strictly drop the base rank, group steps strictly grow
    the group, so the chain stabilizes; the MAX_CHAIN_STEPS guard only
    catches bugs.
    """
    chain = [start]
    for _ in range(MAX_CHAIN_STEPS):
        nxt = _next_atom(chain[-1])
        if nxt is None:
            return chain
        chain.append(nxt)
    raise SiteError("atom chain failed to stabilize within %d steps"
                    % MAX_CHAIN_STEPS)
