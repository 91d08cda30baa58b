"""Set-valued fragments on a site and the bounded condition checkers.

A fragment is a finite window of a covariant set-valued functor: a list
of objects, an ordered finite element set per object, and the action of
each listed arrow as an injective index map.  It holds the objects and
arrows themselves; their keys appear only in its payload.  Fragments
feed supports, stabilizers and the atom decomposition, and provide
evaluation contexts for the checkers.

The checkers quantify over "all objects X", which no desk-scale run can
do, so each takes a depth and enumerates the test objects the site's
checker_objects lists for it; each backend documents its bound there
and in pairs_covered.  Verdicts are three-valued.  Positive evidence (a pair
excluding a candidate, an explicit factorization) certifies regardless
of the bound; negative conclusions are certified only when every pair
that could matter provably fits inside the bound, and otherwise come
back unknown.
"""

from __future__ import annotations

import itertools

from .atoms import AtomMap, FormalAtom, class_rep, make_atom
from .core import (AutGroup, SiteError, Value, aut_group, backend, backend_of,
                   compose, decode_object, encode_object, factor, hom_set,
                   identity, inline_cached_property, is_identity, is_int,
                   is_iso, morphism_key, object_key, pullback, rank,
                   subgroup_generated)


class ClosureError(SiteError):
    """The fragment does not list an object or arrow the operation needs."""


class CheckVerdict(Value):
    """Outcome of a bounded check.

    status is "pass", "fail" or "unknown"; fail witnesses replay: running
    the same instance at the same depth reproduces the violation.
    Equality and hashing ignore the witness.
    """

    _fields = ("status", "witness", "depth_used")
    _compare = ("status", "depth_used")

    def _check(self):
        if self.status not in ("pass", "fail", "unknown"):
            raise SiteError("verdict status must be pass, fail or unknown")

    def __bool__(self) -> bool:
        return self.status == "pass"


# ---------------------------------------------------------------------------
# fragments

class PresheafFragment(Value):
    """Finitely many objects with element lists and arrow actions.

    elements pairs each listed object, in listed order, with its ordered
    element names; action pairs each listed arrow, in hom-set order over
    the pairs of listed objects, with its row: the index map between the
    element lists of its endpoints.  Actions must be injective and
    functorial on every composable listed pair whose composite is
    listed.  fragment_from_tables alone reads payload keys, and
    encode_fragment alone writes them.
    The tables built on first use, which equality ignores, are _rows
    listed arrow -> row, _els object -> names and _ranked the objects
    in rank order.
    """

    _fields = ("site", "objects", "elements", "action")

    @inline_cached_property
    def _rows(self) -> dict:
        return dict(self.action)

    @inline_cached_property
    def _els(self) -> dict:
        return dict(self.elements)

    @inline_cached_property
    def _ranked(self) -> tuple:
        return _by_rank(self.objects)

    def _check(self) -> None:
        """Check that the tables pair each object and arrow once and that
        no object is listed twice, then each row's shape, injectivity and
        identity, then functoriality on the composable listed pairs only
        (f, g with cod f = dom g): f in listed order, then each g that
        starts where f ends, the composite looked up by value.  Raises a
        site error naming the first violation."""
        rows, els, objects = self._rows, self._els, self.objects
        if len(els) != len(self.elements) or len(rows) != len(self.action):
            raise SiteError("duplicate object or arrow key in fragment")
        if len(set(objects)) != len(objects):
            twice = next(x for i, x in enumerate(objects) if x in objects[:i])
            raise SiteError("fragment lists object %s twice"
                            % object_key(twice))
        for f, row in rows.items():
            na, nb = len(els[f.dom]), len(els[f.cod])
            if len(row) != na or any(not 0 <= i < nb for i in row):
                raise SiteError("action table for %s has the wrong shape"
                                % morphism_key(f))
            if len(set(row)) != len(row):
                raise SiteError("action table for %s is not injective"
                                % morphism_key(f))
            if is_identity(f) and row != tuple(range(na)):
                raise SiteError("identity arrow must act as the identity")
        starting = {}  # object -> the listed arrows out of it, in order
        for g, row_g in rows.items():
            starting.setdefault(g.dom, []).append((g, row_g))
        for f, row_f in rows.items():
            for g, row_g in starting.get(f.cod, ()):
                row_fg = rows.get(compose(f, g))
                if row_fg is not None and \
                        row_fg != tuple(map(row_g.__getitem__, row_f)):
                    raise SiteError("fragment action is not functorial on "
                                    "%s then %s" % (morphism_key(f),
                                                    morphism_key(g)))

    # -- access --------------------------------------------------------------

    def object_for(self, key: str):
        for obj in self.objects:
            if object_key(obj) == key:
                return obj
        raise ClosureError("fragment does not list object %s" % key)

    def elements_at(self, obj) -> tuple[str, ...]:
        names = self._els.get(obj)
        if names is None:
            raise ClosureError("fragment does not list object %s"
                               % object_key(obj))
        return names

    def act_row(self, f) -> tuple[int, ...]:
        row = self._rows.get(f)
        if row is None:
            raise ClosureError("fragment does not list the arrow %s"
                               % morphism_key(f))
        return row

    def act(self, f, name: str) -> str:
        src = self.elements_at(f.dom)
        return self.elements_at(f.cod)[self.act_row(f)[src.index(name)]]

    def image_names(self, f) -> tuple[str, ...]:
        tgt = self.elements_at(f.cod)
        return tuple(tgt[i] for i in self.act_row(f))


def fragment_from_tables(site: str, objects, elements: dict, action: dict) \
        -> PresheafFragment:
    """The fragment whose tables map object keys to element names and
    arrow keys to rows: the one reader of fragment keys.  It formats the
    key of each listed object, and of each arrow between them in listed
    order, once; an action key left over names an unknown arrow."""
    objects = tuple(objects)
    by_key = {}
    for obj in objects:
        key = object_key(obj)
        if key in by_key:
            raise SiteError("fragment lists object %s twice" % key)
        by_key[key] = obj
    if set(elements) != set(by_key):
        raise SiteError("fragment element table does not match its objects")
    for key, names in sorted(elements.items()):
        if len(set(names)) != len(names):
            raise SiteError("duplicate element name at %s" % key)
    act = dict(action)
    rows = []  # (listed arrow, its row), in listed order
    for a in objects:
        for b in objects:
            for f in hom_set(a, b):
                row = act.pop(morphism_key(f), None)
                if row is not None:
                    rows.append((f, tuple(row)))
    if act:
        raise SiteError("fragment action for unknown arrow %s" % min(act))
    return PresheafFragment(site, objects, tuple(
        (obj, tuple(elements[key])) for key, obj in by_key.items()),
        tuple(rows))


def assert_pullback_closed(frag: PresheafFragment) -> None:
    """Verify the fragment objects contain every pullback apex among its
    arrows and that element sets intersect accordingly.

    Raises a closure error naming the first missing apex, or a site error
    when an intersection of element images is strictly larger than the
    image from the apex.
    """
    ending = {}  # object -> the listed arrows into it, in order
    for g in frag._rows:
        ending.setdefault(g.cod, []).append(g)
    for f in frag._rows:
        for g in ending[f.cod]:
            square = pullback(f, g)
            if square.apex not in frag._els:
                raise ClosureError("fragment misses the pullback apex %s of "
                                   "%s and %s" % (object_key(square.apex),
                                                  morphism_key(f),
                                                  morphism_key(g)))
            through = set(frag.image_names(compose(square.to_left, f)))
            meet = set(frag.image_names(f)) & set(frag.image_names(g))
            if through != meet:
                raise SiteError("fragment does not preserve the pullback of "
                                "%s and %s" % (morphism_key(f),
                                               morphism_key(g)))


# ---------------------------------------------------------------------------
# builders

def quotient_classes(atom: FormalAtom, x) -> list:
    """Canonical representatives of Hom(base, x) modulo the atom group,
    each once, in the hom-set order of the first arrow of its class."""
    return list(dict.fromkeys(class_rep(atom.group, f)
                              for f in hom_set(atom.base, x)))


def _tabulate(site: str, objects, values, name, act) -> PresheafFragment:
    """The fragment with elements name(e) for e in values(x) at each
    object x, where an arrow f: a -> b sends e to act(f, e), a member of
    values(b)."""
    objects = tuple(objects)
    vals = {x: values(x) for x in objects}
    action = []
    for a, source in vals.items():
        for b, target in vals.items():
            index = {e: i for i, e in enumerate(target)}
            action += [(f, tuple(index[act(f, e)] for e in source))
                       for f in hom_set(a, b)]
    return PresheafFragment(site, objects, tuple(
        (x, tuple(map(name, v))) for x, v in vals.items()), tuple(action))


def representable_fragment(base, objects) -> PresheafFragment:
    """The functor Hom(base, -) tabulated on the given objects."""
    return _tabulate(base.site, objects, lambda x: hom_set(base, x),
                     morphism_key, lambda f, u: compose(u, f))


def quotient_fragment(atom: FormalAtom, objects) -> PresheafFragment:
    """The quotient Hom(base, -)/G tabulated on the given objects."""
    return _tabulate(atom.site, objects, lambda x: quotient_classes(atom, x),
                     morphism_key,
                     lambda f, u: class_rep(atom.group, compose(u, f)))


def unordered_pairs_fragment(max_size: int = 3) -> PresheafFragment:
    """Nonempty subsets of size at most two of each finite set."""
    return _tabulate("finsetinj", object_pool("finsetinj", max_size),
                     lambda x: [s for k in (1, 2) for s in
                                itertools.combinations(range(x.size), k)],
                     lambda s: "{%s}" % ",".join(map(str, s)),
                     lambda f, s: tuple(sorted(f(i) for i in s)))


def ordered_pairs_fragment(max_size: int = 3) -> PresheafFragment:
    """All pairs (a, b) of each finite set, acted on coordinatewise."""
    return _tabulate("finsetinj", object_pool("finsetinj", max_size),
                     lambda x: [(i, j) for i in range(x.size)
                                for j in range(x.size)],
                     lambda p: "(%d,%d)" % p,
                     lambda f, p: (f(p[0]), f(p[1])))


def encode_fragment(frag: PresheafFragment) -> dict:
    """The payload of a fragment: the one writer of fragment keys."""
    return {"site": frag.site,
            "objects": [encode_object(x) for x in frag.objects],
            "elements": {object_key(x): list(v) for x, v in frag.elements},
            "action": {morphism_key(f): list(v) for f, v in frag.action}}


def _table_of(table, ok) -> bool:
    """Whether a payload table is a JSON object of lists whose items pass ok."""
    return isinstance(table, dict) and all(
        isinstance(row, list) and all(map(ok, row)) for row in table.values())


def decode_fragment(data: dict) -> PresheafFragment:
    if not isinstance(data, dict):
        raise SiteError("fragment payload must be a JSON object")
    for key in ("objects", "elements", "action"):
        if key not in data:
            raise SiteError("fragment payload needs a %r field" % key)
    if not isinstance(data["objects"], list):
        raise SiteError("fragment 'objects' must be a list")
    if not _table_of(data["elements"], lambda v: isinstance(v, str)):
        raise SiteError("fragment 'elements' must map keys to lists of names")
    if not _table_of(data["action"], is_int):
        raise SiteError("fragment 'action' must map keys to lists of integers")
    objects = tuple(decode_object(row, data.get("site"))
                    for row in data["objects"])
    if not objects:
        raise SiteError("fragment payload lists no objects")
    return fragment_from_tables(objects[0].site, objects,
                                data["elements"], data["action"])


# ---------------------------------------------------------------------------
# supports, stabilizers, decomposition

def _by_rank(objects) -> tuple:
    """The objects in ascending (rank, object key) order."""
    return tuple(sorted(objects, key=lambda o: (rank(o), object_key(o))))


def support_element(frag: PresheafFragment, x, p: str):
    """The least listed subobject of x whose elements contain p, as
    (y, m, q) with m: y -> x sending q to p.  Minimality is in rank;
    fragments that preserve pullbacks have a unique minimum, which the
    scan in (rank, object key) order picks out deterministically."""
    names = frag.elements_at(x)
    if p not in names:
        raise SiteError("element %r does not live at %s" % (p, object_key(x)))
    i = names.index(p)
    for y in frag._ranked:
        for m in hom_set(y, x):
            row = frag.act_row(m)
            if i in row:
                return y, m, frag.elements_at(y)[row.index(i)]
    raise ClosureError("no listed subobject of %s carries %r"
                       % (object_key(x), p))


def stabilizer(frag: PresheafFragment, x, p: str) -> AutGroup:
    """Automorphisms of x fixing p; requires p to have full support."""
    y, m, _q = support_element(frag, x, p)
    if not is_iso(m):
        raise SiteError("element %r is supported on the proper subobject %s"
                        % (p, object_key(y)))
    fixing = [s for s in aut_group(x).elements if frag.act(s, p) == p]
    return subgroup_generated(x, fixing)


class AtomComponent(Value):
    _fields = ("atom", "members")


class Decomposition(Value):
    _fields = ("components",)

    def describe(self) -> list[tuple[str, str]]:
        return [c.atom.describe() for c in self.components]


def decompose(frag: PresheafFragment) -> Decomposition:
    """Split the fragment into one formal atom per orbit of elements with
    full support, assign every element to its component, and verify the
    component hom-class counts reconstruct every element count.  Each
    element's support is found once, in descending rank order."""
    atoms = []  # per orbit: its object and the stabilizer of its least name
    orbit_at = {}  # (object, full-support name) -> atom position
    supported = {}  # (object, name) -> (support object, preimage name)
    for x in reversed(frag._ranked):
        names = frag.elements_at(x)
        auts = aut_group(x).elements
        for i, p in enumerate(names):
            y, m, q = support_element(frag, x, p)
            supported[(x, p)] = (y, q)
            if (x, p) in orbit_at or not is_iso(m):
                continue
            rows = [frag.act_row(s) for s in auts]
            orbit = sorted({names[row[i]] for row in rows})
            least = names.index(orbit[0])
            for name in orbit:
                orbit_at[(x, name)] = len(atoms)
            atoms.append(make_atom(x, [s for s, row in zip(auts, rows)
                                       if row[least] == least]))

    members: list[list[tuple]] = [[] for _ in atoms]  # (object, name)
    for x in frag.objects:
        for p in frag.elements_at(x):
            y, q = supported[(x, p)]
            seat = orbit_at.get((y, q))
            if seat is None:
                raise ClosureError("support element %r at %s belongs to no "
                                   "component" % (q, object_key(y)))
            members[seat].append((x, p))

    for x in frag.objects:
        total = sum(len(quotient_classes(atom, x)) for atom in atoms)
        if total != len(frag.elements_at(x)):
            raise SiteError("decomposition does not reconstruct the element "
                            "count at %s" % object_key(x))

    return Decomposition(tuple(AtomComponent(atom, tuple(mem))
                               for atom, mem in zip(atoms, members)))


# ---------------------------------------------------------------------------
# bounded test-object enumeration and pair coverage

def object_pool(site: str, bound: int) -> list:
    """The site's objects_up_to(bound): every audit and pair fragment
    starts here, so a negative bound never passes vacuously."""
    if bound < 0:
        raise SiteError("bound must be a natural number, got %d" % bound)
    return backend(site).objects_up_to(bound)


def checker_objects(site: str, depth: int, seeds) -> list:
    """Deterministic test objects for a checker run, as the site bounds
    them; every checker starts here, so a negative depth never passes."""
    if depth < 0:
        raise SiteError("depth must be a natural number, got %d" % depth)
    return backend(site).checker_objects(depth, tuple(seeds))


def _equalized_pairs(m, objects):
    """Every pair alpha, beta: cod(m) => x with m;alpha = m;beta, for x in
    objects, as (alpha, the betas that agree with it), both in hom-set
    order; alpha is one of its own betas."""
    for x in objects:
        arrows = hom_set(m.cod, x)
        through = [compose(m, a) for a in arrows]
        agree: dict = {}
        for a, ma in zip(arrows, through):
            agree.setdefault(ma, []).append(a)
        for a, ma in zip(arrows, through):
            yield a, agree[ma]


# ---------------------------------------------------------------------------
# the checkers

def sheaf_check_quotient(atom: FormalAtom, q, depth: int) -> CheckVerdict:
    """Sheaf condition of Hom(base,-)/G at the one-arrow cover q: S -> T.

    Restriction along q must be injective on classes, and every class
    over T that no parallel pair out of T separates must come from a
    class over S.  A class [f] is separated by (alpha, beta) when
    q;alpha = q;beta yet no group element sigma gives
    f;alpha = sigma;f;beta.

    The classes over T that do not descend are kept open, in
    quotient_classes order, through one pass over the pairs: each pair
    drops the open classes it separates, and the pass stops once none is
    open.  The witness is the first class still open after the last
    pair.  This gives the verdict and witness of testing one class at a
    time against the pairs in order: a separated class stays separated,
    each class meets the pairs in the same order up to its first
    separator, and the first class that no pair separates is the first
    one left open.
    """
    if atom.site != type(q.dom).site:
        raise SiteError("the cover lives on a different site than the atom")
    s_obj, t_obj = q.dom, q.cod
    seeds = (atom.base, s_obj, t_obj)
    objects = checker_objects(atom.site, depth, seeds)
    group = atom.group.elements
    s_classes = quotient_classes(atom, s_obj)
    t_classes = quotient_classes(atom, t_obj)

    descended = {}  # class over T -> the class over S restricting to it
    for s in s_classes:
        image = class_rep(atom.group, compose(s, q))
        if image in descended:
            return CheckVerdict("fail", {
                "reason": "restriction not injective",
                "class_a": morphism_key(descended[image]),
                "class_b": morphism_key(s),
                "cover": morphism_key(q)}, depth)
        descended[image] = s

    covered = backend(atom.site).pairs_covered(depth, seeds, t_obj, s_obj)
    kept = [f for f in t_classes if f not in descended]  # open classes
    for alpha, betas in _equalized_pairs(q, objects) if kept else ():
        still = []  # the kept classes this pair does not separate
        for f in kept:
            fa = compose(f, alpha)
            for beta in betas:
                fb = compose(f, beta)
                if not any(fa == compose(s, fb) for s in group):
                    break
            else:
                still.append(f)
        kept = still
        if not kept:
            break
    if kept:
        witness = {"reason": "compatible class does not descend",
                   "class": morphism_key(kept[0]),
                   "classes_over_cover_source": len(s_classes),
                   "cover": morphism_key(q)}
        return CheckVerdict("fail" if covered else "unknown", witness, depth)
    return CheckVerdict("pass", {
        "classes": len(t_classes), "descended": len(descended),
        "certificate": "all non-descending classes separated"}, depth)


def self_intersection_check(f, depth: int) -> CheckVerdict:
    """Whether every arrow compatible with all pairs f equalizes factors
    through f.

    An arrow u: y -> cod(f) escapes the condition when some pair
    (alpha, beta) with f;alpha = f;beta admits no v with u;beta =
    v;alpha: when u;beta does not factor through alpha.  fail reports
    the first u that neither factors through f nor escapes, when the pair
    bound is exhaustive; unknown otherwise.

    The check is read off the closure j: k -> B of compute_K, on the
    same listed objects: a listed u is compatible exactly when u
    factors through j.
    - If u = w;j, u is compatible: at the end of the scan j satisfies
      every pair (see _closure), j;beta = j';alpha, so u;beta =
      w;j';alpha.
    - If u is compatible, u factors through j, by induction on the
      steps.  u factors through the identity of B.  Say u = w;j before
      the step that pulls j;beta back along alpha.  u is compatible, so
      u;beta = v;alpha for some v, and w;j;beta = v;alpha makes (w, v)
      a cone over that cospan from y.  The pullback is universal, so
      (w, v) factors through its apex, and u through the new j.
    So fail reports the first listed u that factors through j but not
    through f.  A settled closure (j = w;f) leaves none: every u = w';j
    is w';w;f.  Then the check passes, and only counts the arrows.
    """
    a_obj, b_obj = f.dom, f.cod
    objects = checker_objects(f.site, depth, (a_obj, b_obj))
    covered = backend_of(f).pairs_covered(depth, (a_obj, b_obj), b_obj, a_obj)
    j, _steps, settled = _closure(f, objects)

    checked = 0
    for y in objects:
        arrows = hom_set(y, b_obj)
        if settled:
            checked += len(arrows)
            continue
        for u in arrows:
            checked += 1
            if factor(u, f) is not None or factor(u, j) is None:
                continue
            witness = {"reason": "compatible arrow does not factor",
                       "u": morphism_key(u), "through": morphism_key(f)}
            return CheckVerdict("fail" if covered else "unknown",
                                witness, depth)
    return CheckVerdict("pass", {"arrows_checked": checked,
                                 "pair_bound_exhaustive": covered}, depth)


class KResult(Value):
    """Iterated-pullback closure of a monomorphism.

    k receives the domain of f via unit and includes into the codomain
    via j; group collects the automorphisms of k fixing unit.  The
    verdict records whether the final no-more-pairs conclusion was
    reached with an exhaustive pair bound.
    """

    _fields = ("k", "j", "unit", "group", "steps", "verdict")


def _closure(f, objects):
    """Close the mono f: A -> B under the pairs it equalizes, listed on
    objects: (j, steps, settled), with j: k -> B the inclusion of the
    closure, steps its pullback squares in order and settled whether j
    factors through f.

    Starting from k = B and j the identity, whenever a pair alpha, beta:
    B => X with f;alpha = f;beta admits no j' with j;beta = j';alpha,
    that is when j;beta does not factor through alpha, replace k by the
    pullback of j;beta along alpha.  One pass over the pairs, in checker
    order, takes the same steps as rescanning from the first pair after
    every step would: a pair that (k, j) satisfies stays satisfied when k
    shrinks (precompose its j' with the inclusion), and the step taken
    for a pair satisfies it (the pullback leg into B is its j').

    Two shortcuts skip only pairs that take no step.  A class of agreeing
    betas that is alpha alone needs no test: j;alpha factors through
    alpha by j.  Otherwise the class's set {j;beta} is kept until j
    changes, and when each member factors through alpha no beta of the
    class can step, so the ordered scan over the class, which steps at
    its first beta with j;beta not factoring through alpha, runs only
    when it will step.  The classes are the fibres of alpha -> f;alpha on
    each hom-set out of B, so they are disjoint and the first member
    names one.

    The scan stops at the fixpoint: once j factors through f, no later
    pair can step.  Say j = w;f.  For every pair with f;alpha = f;beta,
    j;beta = w;f;beta = w;f;alpha = j;alpha, which factors through alpha
    by j.  So j is tested against f before the scan and after each step,
    and the scan ends as soon as j factors; an iso f draws no pair.  The
    scan up to the stop is the full scan's, so j and the steps are
    exactly those of the full scan.
    """
    j = identity(f.cod)
    steps = []
    through_j = {}  # first beta of a class -> {j;beta : beta in the class}
    settled = factor(j, f) is not None
    for alpha, betas in () if settled else _equalized_pairs(f, objects):
        if len(betas) == 1:
            continue
        jb = through_j.get(betas[0])
        if jb is None:
            jb = through_j[betas[0]] = {compose(j, beta) for beta in betas}
        if all(factor(jbeta, alpha) is not None for jbeta in jb):
            continue
        for beta in betas:
            jbeta = compose(j, beta)
            if factor(jbeta, alpha) is None:
                square = pullback(jbeta, alpha)
                steps.append(square)
                j = compose(square.to_left, j)
                through_j.clear()
                settled = factor(j, f) is not None
        if settled:
            break
    return j, tuple(steps), settled


def compute_K(f, depth: int) -> KResult:
    """Close a mono f: A -> B under the pairs it equalizes (see _closure)
    and add the corestriction of f to the closure k and the group of
    automorphisms of k fixing it."""
    a_obj, b_obj = f.dom, f.cod
    objects = checker_objects(f.site, depth, (a_obj, b_obj))
    covered = backend_of(f).pairs_covered(depth, (a_obj, b_obj), b_obj, a_obj)
    j, steps, _settled = _closure(f, objects)
    k = j.dom
    unit = factor(f, j)
    if unit is None:
        raise SiteError("the mono does not factor through its own closure")
    fixing = [s for s in aut_group(k).elements if compose(unit, s) == unit]
    verdict = CheckVerdict(
        "pass" if covered else "unknown",
        {"steps": len(steps), "pair_bound_exhaustive": covered}, depth)
    return KResult(k, j, unit, subgroup_generated(k, fixing), steps, verdict)


def local_iso_check(m: AtomMap, context, depth: int) -> CheckVerdict:
    """Bounded evidence that a map of formal quotients inverts after
    sheafification.

    context is a family of objects.  On every context object the induced
    map of classes must be injective, and every target class [h] over x
    must lift to the source after composing with some arrow w: x -> x2
    found within depth: the class of h;w must be the class of rep;u for
    some u: src.base -> x2.  Those classes depend on x2 alone, so each
    lift object's set of them is built once, when first needed.
    """
    src, tgt = m.source, m.target
    objects = _by_rank(context)
    lift_objects = checker_objects(src.site, depth,
                                   (src.base, tgt.base) + objects)
    images = {}  # lift object x2 -> {[rep;u] : u in Hom(src.base, x2)}

    def images_at(x2) -> set:
        if x2 not in images:
            images[x2] = {class_rep(tgt.group, compose(m.rep, u))
                          for u in hom_set(src.base, x2)}
        return images[x2]

    lifts = 0
    for x in objects:
        seen = {}  # target class -> the source class sent onto it
        for u in quotient_classes(src, x):
            image = class_rep(tgt.group, compose(m.rep, u))
            if image in seen:
                return CheckVerdict("fail", {
                    "reason": "classes collapse",
                    "object": object_key(x),
                    "class_a": morphism_key(seen[image]),
                    "class_b": morphism_key(u)}, depth)
            seen[image] = u
        for h in quotient_classes(tgt, x):
            if h in seen:  # a class representative is its own class_rep
                continue
            if not any(class_rep(tgt.group, compose(h, w)) in images_at(x2)
                       for x2 in lift_objects for w in hom_set(x, x2)):
                return CheckVerdict("unknown", {
                    "reason": "no lift found within depth",
                    "object": object_key(x),
                    "class": morphism_key(h)}, depth)
            lifts += 1
    return CheckVerdict("pass", {"objects": len(objects),
                                 "deferred_lifts": lifts}, depth)
