"""Atoms presented as formal quotients of site objects.

An atom is a pair (n, G) with G a subgroup of Aut(n); it stands for the
quotient of the representable at n by the G-action.  A map of atoms
(n, G) -> (m, H) runs against the site direction: it is represented by
a site arrow f: m -> n, two representatives being equal when they agree
up to precomposition with H.  Validity of a representative depends on a
quantifier direction, selectable per map:

    derived: every sigma in G satisfies f;sigma = gamma;f for some
             gamma in H, so H-classes of representatives are G-stable
    paper:   every gamma in H satisfies gamma;f = f;sigma for some
             sigma in G

The two agree on groups that are full symmetric or trivial on both
sides in many small cases but differ in general; "derived" is the
default because it is the one under which identity maps always exist.
"""

from __future__ import annotations

from .core import (AutGroup, PullbackSquare, SiteError, Value, compose,
                   decode_morphism, decode_object, encode_morphism,
                   encode_object, factor, group_name, hom_set, identity,
                   is_iso, object_key, pullback, sort_key, subgroup_generated)

VARIANTS = ("derived", "paper")
MAX_COEQ_STEPS = 64  # pullback steps before coequalize_representables gives up


class FormalAtom(Value):
    _fields = ("base", "group")

    def _check(self):
        if self.group.obj != self.base:
            raise SiteError("atom group must consist of automorphisms of the base")

    @property
    def site(self) -> str:
        return type(self.base).site

    def describe(self) -> tuple[str, str]:
        return (object_key(self.base), group_name(self.group))


def make_atom(base, generators=()) -> FormalAtom:
    return FormalAtom(base, subgroup_generated(base, tuple(generators)))


def rep_is_valid(source: FormalAtom, target: FormalAtom, rep,
                 variant: str = "derived") -> bool:
    """Whether a site arrow target.base -> source.base represents a map."""
    if variant not in VARIANTS:
        raise SiteError("unknown atom map variant %r" % variant)
    gs, hs = source.group.elements, target.group.elements
    if variant == "derived":  # rep is mono: one h at most has h;rep == rep;s
        return all(factor(compose(rep, s), rep) in target.group for s in gs)
    return all(any(compose(h, rep) == compose(rep, s) for s in gs)
               for h in hs)


def _canonical_rep(source: FormalAtom, target: FormalAtom, rep, variant: str):
    """Class minimum; the class is an orbit on the side the variant quotients.

    Under "derived" two representatives agree when they differ by a
    target-group automorphism up front; under "paper" when they differ
    by a source-group automorphism behind.
    """
    if variant == "derived":
        return class_rep(target.group, rep)
    return min((compose(rep, s) for s in source.group.elements), key=sort_key)


def class_rep(group: AutGroup, f):
    """Least member of the orbit of f under precomposition by the group."""
    return min((compose(s, f) for s in group.elements), key=sort_key)


class AtomMap(Value):
    """A map of atoms; the stored representative is the class minimum."""

    _fields = ("source", "target", "rep", "variant")
    _compare = ("source", "target", "rep")

    def __init__(self, source: FormalAtom, target: FormalAtom, rep,
                 variant: str = "derived"):
        if rep.dom != target.base or rep.cod != source.base:
            raise SiteError("atom map representative must run target base -> "
                            "source base")
        if not rep_is_valid(source, target, rep, variant):
            raise SiteError("arrow does not represent a map of atoms "
                            "(variant %r)" % variant)
        self._set_fields(source, target,
                         _canonical_rep(source, target, rep, variant), variant)


def atom_identity(atom: FormalAtom, variant: str = "derived") -> AtomMap:
    return AtomMap(atom, atom, identity(atom.base), variant)


def atom_hom(source: FormalAtom, target: FormalAtom,
             variant: str = "derived") -> list[AtomMap]:
    """All maps source -> target, one per canonical representative, in
    sort_key order of the representatives."""
    reps = {_canonical_rep(source, target, f, variant)
            for f in hom_set(target.base, source.base)
            if rep_is_valid(source, target, f, variant)}
    return [AtomMap(source, target, rep, variant)
            for rep in sorted(reps, key=sort_key)]


def atom_compose(f: AtomMap, g: AtomMap) -> AtomMap:
    """f then g; the representative composes in the opposite order."""
    if f.target != g.source:
        raise SiteError("atom maps do not compose: middle atoms differ")
    if f.variant != g.variant:
        raise SiteError("atom maps do not compose: variants differ")
    return AtomMap(f.source, g.target, compose(g.rep, f.rep), f.variant)


def atom_iso_formal(a: FormalAtom, b: FormalAtom,
                    variant: str = "derived"):
    """An inverse pair of maps between the two formal quotients, or None.

    This is isomorphism in the formal category of quotients; on the tree
    site it is strictly finer than agreement after sheafification, which
    local_iso_check probes instead.
    """
    if a.base.site != b.base.site:
        raise SiteError("atoms live on different sites")
    ia, ib = atom_identity(a, variant), atom_identity(b, variant)
    for f in atom_hom(a, b, variant):
        for g in atom_hom(b, a, variant):
            if atom_compose(f, g) == ia and atom_compose(g, f) == ib:
                return f, g
    return None


def encode_atom(atom: FormalAtom) -> dict:
    return {"base": encode_object(atom.base),
            "generators": [encode_morphism(g) for g in atom.group.generators]}


def decode_atom(data: dict, site: str | None = None) -> FormalAtom:
    if not isinstance(data, dict):
        raise SiteError("atom payload must be a JSON object")
    if "base" not in data:
        raise SiteError("atom payload needs a 'base' field")
    base = decode_object(data["base"], site)
    rows = data.get("generators", [])
    if not isinstance(rows, list):
        raise SiteError("atom 'generators' must be a list")
    return make_atom(base, (decode_morphism(row, base.site) for row in rows))


# ---------------------------------------------------------------------------
# coequalizers of parallel pairs of representables

class CoeqTrace(Value):
    """The run of the pullback iteration and its resulting atom.

    sigma is the mismatch of the final invertible pair, first then the
    inverse of second.  quotient_rep runs result.base -> alpha.dom and
    represents the quotient map from the atom at the pair's domain onto
    the result.
    """

    _fields = ("alpha", "beta", "steps", "result", "sigma", "quotient_rep")


def coequalize_representables(alpha, beta) -> CoeqTrace:
    """Coequalize the pair of atom maps represented by alpha and beta.

    The pair is replaced by the legs of its pullback until both arrows
    are invertible; gluing along an invertible pair is a quotient by
    the cyclic group the mismatch generates.  Each replacement strictly
    drops the rank of the domain, so the loop always finishes; the
    MAX_COEQ_STEPS guard only catches bugs.
    """
    if alpha.dom != beta.dom or alpha.cod != beta.cod:
        raise SiteError("coequalizer needs a parallel pair")
    p, q = alpha, beta
    steps: list[PullbackSquare] = []
    while not (is_iso(p) and is_iso(q)):
        if len(steps) >= MAX_COEQ_STEPS:
            raise SiteError("coequalizer iteration exceeded %d steps"
                            % MAX_COEQ_STEPS)
        square = pullback(p, q)
        steps.append(square)
        p, q = square.to_left, square.to_right
    sigma = factor(p, q)  # p then the inverse of q
    base = p.dom
    result = make_atom(base, (sigma,))
    rep = identity(base)
    for square in reversed(steps):
        rep = compose(rep, square.to_left)
    return CoeqTrace(alpha, beta, tuple(steps), result, sigma, rep)
