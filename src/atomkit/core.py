"""Shared machinery for the site backends.

Objects and morphisms are immutable values.  Each backend implements
Site and registers itself under its tag ("finsetinj", "itree"); all
downstream code (atoms, presheaf checks, audits, the CLI) dispatches
through the functions here and the Site methods, never naming a site.

Composition is diagrammatic throughout the package: compose(f, g) means
"f then g", so f.cod must equal g.dom.
"""

from __future__ import annotations

import json
from functools import cached_property, total_ordering
from operator import attrgetter
from typing import Iterable, Protocol


class SiteError(ValueError):
    """Raised when a payload or a pair of payloads violates a site invariant."""


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in _fields, in constructor order, and the
    fields that equality and hashing compare in _compare (all of them
    unless it says otherwise).  Value.__init__ takes one value per field,
    in that order, and sets each once; after that the instance refuses
    assignment and deletion.  Two instances of one class are equal when
    their compared fields are, and an instance hashes as the tuple of its
    compared fields, hash(x) == hash((x.a, x.b)): the iteration order of
    a set of values, and so every output that lists one, rests on that
    hash.  cached_property and the tree builder's stored indices write to
    the instance dict directly, which the guard does not block.

    A subclass writes an __init__ only to check or derive fields, then
    calls Value.__init__ (FinSet, RankValue, FormalAtom, AtomMap,
    CheckVerdict, PresheafFragment), or for a measured hot path.
    Injection sets its three fields by hand: a checkers pass builds about
    243,000, and the generic loop takes about 1.6 us per value against
    1.0 us (Python 3.11.7).  FinitaryTree, TreeEmbedding, Span, Cospan,
    Cocone and PullbackSquare, which one audit builds by the thousand,
    set theirs in one self.__dict__.update(...), about 500 ns for four
    fields.  That gives each a dict object of its own, which trees and
    embeddings mostly have anyway (their cached properties live there),
    while the four core results are short-lived.  object.__setattr__
    keeps the values in compact inline storage: a CheckVerdict takes 105
    bytes that way, 248 with its own dict.

    The classes hashed and compared most (FinSet, Injection, FinitaryTree,
    TreeEmbedding) spell out __eq__ and __hash__ with the same meaning:
    the generic pair costs 1.4 to 2.5 times as much per call.
    """

    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields
        get = attrgetter(*cls._compare)
        # attrgetter of one name returns the bare value, and hash((3,)) is
        # not hash(3): a one-field class still compares and hashes a 1-tuple.
        cls._values = staticmethod(
            get if len(cls._compare) > 1 else (lambda x: (get(x),)))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, got %d" % (
                type(self).__qualname__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


@total_ordering
class RankValue(Value):
    """Lexicographically ordered tuple of naturals measuring well-foundedness."""

    _fields = ("components",)

    def __init__(self, components: tuple[int, ...]):
        super().__init__(components)
        if any(c < 0 for c in components):
            raise SiteError("rank components must be naturals: %r" % (components,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.components < other.components
        return NotImplemented


class Span(Value):
    """Two morphisms out of a common object: left: X -> A, right: X -> B."""

    _fields = ("left", "right")

    def __init__(self, left, right):
        self.__dict__.update(left=left, right=right)
        if left.dom != right.dom:
            raise SiteError("span legs must share their domain")

    @property
    def apex(self):
        return self.left.dom


class Cospan(Value):
    """Two morphisms into a common object: left: A -> Z, right: B -> Z."""

    _fields = ("left", "right")

    def __init__(self, left, right):
        self.__dict__.update(left=left, right=right)
        if left.cod != right.cod:
            raise SiteError("cospan legs must share their codomain")

    @property
    def target(self):
        return self.left.cod


class PullbackSquare(Value):
    """A cospan (left, right) together with its limit.

    apex is the pullback object, to_left: apex -> dom(left) and
    to_right: apex -> dom(right) are the projections.  The square
    commutes: to_left;left == to_right;right.
    """

    _fields = ("left", "right", "apex", "to_left", "to_right")

    def __init__(self, left, right, apex, to_left, to_right):
        self.__dict__.update(left=left, right=right, apex=apex,
                             to_left=to_left, to_right=to_right)
        if not commutes(to_left, left, to_right, right):
            raise SiteError("pullback square does not commute")


class Cocone(Value):
    """An object C with legs from_left: A -> C, from_right: B -> C over a span."""

    _fields = ("obj", "from_left", "from_right")

    def __init__(self, obj, from_left, from_right):
        self.__dict__.update(obj=obj, from_left=from_left,
                             from_right=from_right)
        if from_left.cod != obj or from_right.cod != obj:
            raise SiteError("cocone legs must land in the cocone object")


class AutGroup(Value):
    """A subgroup of Aut(obj), stored as the full sorted element tuple.

    Equality and hashing ignore the generating set, two values with the
    same closure are the same group.  The constructor trusts its
    arguments; aut_group and subgroup_generated (which checks its
    generators) build every group.
    """

    _fields = ("obj", "elements", "generators")
    _compare = ("obj", "elements")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def members(self) -> frozenset:
        """The elements as a set, for membership tests; not a field, so
        equality and hashing ignore it."""
        return frozenset(self.elements)

    def __contains__(self, f) -> bool:
        return f in self.members


# ---------------------------------------------------------------------------
# backend registry

class Site(Protocol):
    """What a site backend provides (declaration only, never checked).
    Its objects and morphisms carry the tag as their site attribute; the
    marker fields identify untagged object and morphism payloads;
    objects_up_to(bound) lists the audit pool in canonical order;
    pairs_covered must return False when no finite pool covers the
    equalized pairs, since a checker's fail rests on it; factor(h, m)
    returns the one w with w;m == h, or None (every arrow is mono)."""

    tag: str
    object_marker: str
    morphism_marker: str

    def identity(self, obj): ...
    def hom_set(self, a, b) -> list: ...
    def factor(self, h, m): ...
    def rank(self, obj) -> RankValue: ...
    def pullback(self, f, g) -> PullbackSquare: ...
    def amalgamate(self, span: Span) -> Cocone: ...
    def objects_up_to(self, bound: int) -> list: ...
    def chain_domains(self, base) -> list: ...
    def checker_objects(self, depth: int, seeds) -> list: ...
    def pairs_covered(self, depth: int, seeds, tgt, shared) -> bool: ...
    def regular_mono(self, m) -> tuple[bool, dict]: ...
    def zigzag(self, square: PullbackSquare, u, v) -> tuple: ...
    def full_group_name(self, obj) -> str: ...
    def encode_object(self, obj) -> dict: ...
    def decode_object(self, data: dict): ...
    def encode_morphism(self, f) -> dict: ...
    def decode_morphism(self, data: dict): ...
    def object_key(self, obj) -> str: ...
    def morphism_key(self, f) -> str: ...


BACKENDS: dict[str, Site] = {}


def register_backend(be: Site) -> None:
    BACKENDS[be.tag] = be


def backend(tag: str) -> Site:
    try:
        return BACKENDS[tag]
    except (KeyError, TypeError):
        raise SiteError("unknown site tag %r" % (tag,)) from None


def backend_of(x) -> Site:
    return backend(x.site)


# ---------------------------------------------------------------------------
# generic operations

def compose(f, g):
    """Diagrammatic composite, f then g."""
    if f.cod != g.dom:
        raise SiteError("compose: cod of first factor differs from dom of second")
    return f.then(g)


def commutes(f, g, h, k) -> bool:
    """Whether f;g == h;k, with compose's endpoint checks, comparing the
    two composites entry by entry (then_equals) without building them."""
    if (f.cod, h.cod) != (g.dom, k.dom):  # tuples compare identity first
        raise SiteError("compose: cod of first factor differs from dom of second")
    return (f.dom, g.cod) == (h.dom, k.cod) and f.then_equals(g, h, k)


def identity(obj):
    return backend_of(obj).identity(obj)


def hom_set(a, b) -> list:
    """All morphisms a -> b in canonical order."""
    if a.site != b.site:
        raise SiteError("hom_set: objects live in different sites")
    return backend_of(a).hom_set(a, b)


def rank(obj) -> RankValue:
    return backend_of(obj).rank(obj)


def pullback(f, g) -> PullbackSquare:
    """Pullback of the cospan (f, g), apex in canonical form."""
    Cospan(f, g)
    return backend_of(f.dom).pullback(f, g)


def amalgamate(span: Span) -> Cocone:
    """A cocone completing the span, deterministic and small."""
    cone = backend_of(span.apex).amalgamate(span)
    if not commutes(span.left, cone.from_left, span.right, cone.from_right):
        raise SiteError("amalgamation produced a non-commuting cocone")
    return cone


def is_identity(f) -> bool:
    return f.dom == f.cod and f == identity(f.dom)


def factor(h, m):
    """The w with w;m == h (unique, as m is mono), or None."""
    if h.cod != m.cod:
        raise SiteError("factor: the arrows have different codomains")
    return backend_of(m).factor(h, m)


def is_iso(f) -> bool:
    """True when f has a two-sided inverse."""
    return inverse(f) is not None


def inverse(f):
    """The w with w;f == id(cod f) and f;w == id(dom f), else None."""
    w = factor(identity(f.cod), f)
    if w is not None and compose(f, w) == identity(f.dom):
        return w
    return None


def sort_key(f):
    return f.sort_key()


def aut_group(obj) -> AutGroup:
    """The full automorphism group of obj: all of hom_set(obj, obj), in
    its canonical order, which is sort_key order on both sites.

    Every endomorphism is invertible on both shipped sites, so no arrow
    needs an is_iso test (subgroup_generated relies on the same fact):

    - finsetinj: an injection of a finite set into itself is a bijection.
    - itree: an embedding f: X -> X preserves the root and the parent
      relation, so it maps each level of the denoted tree into the same
      level.  Every level is finite (the explicit nodes plus two nodes per
      tail) and f is injective, so f is a bijection on every level, hence
      on the denoted nodes.  Its inverse preserves the root and the parent
      relation too (f(x) = parent(f(y)) gives x = parent(y), as f is
      injective and preserves parents), so it sends branches onto branches;
      f preserves branch labels and is a bijection on branches, so the
      inverse preserves them as well.  The inverse is an embedding.
    """
    els = tuple(hom_set(obj, obj))
    return AutGroup(obj, els, els)


def subgroup_generated(obj, generators: Iterable) -> AutGroup:
    """Closure of the generators inside Aut(obj).

    Generators must be endomorphisms of obj; in both shipped sites every
    endomorphism is invertible and has finite order, so closing under
    composition alone yields a group.
    """
    gens = tuple(generators)
    for g in gens:
        if g.dom != obj or g.cod != obj:
            raise SiteError("generator is not an endomorphism of the base object")
    ident = identity(obj)
    elements = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b not in elements:
                    elements.add(b)
                    fresh.append(b)
        frontier = fresh
    return AutGroup(obj, tuple(sorted(elements, key=sort_key)), gens)


def group_name(group: AutGroup) -> str:
    """Short display name: triv, Sym{n} or Aut when full, else order{k}."""
    if group.order == 1:
        return "triv"
    full = aut_group(group.obj)
    if group.order == full.order:
        return backend_of(group.obj).full_group_name(group.obj)
    return "order%d" % group.order


# ---------------------------------------------------------------------------
# serialization helpers

def is_int(value) -> bool:
    """Whether a decoded JSON value is an integer; JSON booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def encode_object(obj) -> dict:
    return backend_of(obj).encode_object(obj)


def _payload_backend(data, site: str | None, marker: str, what: str) -> Site:
    """The backend of a payload: its 'site' field, else site, else the
    first backend (by tag) whose marker field the payload carries."""
    if not isinstance(data, dict):
        raise SiteError("%s payload must be a JSON object" % what)
    tag = data.get("site", site)
    if site is not None and tag != site:
        raise SiteError("field 'site': payload says %r, expected %r" % (tag, site))
    if tag is None:
        tag = next((t for t, be in sorted(BACKENDS.items())
                    if getattr(be, marker) in data), None)
    if tag is None:
        raise SiteError("%s payload carries no recognizable site tag" % what)
    return backend(tag)


def decode_object(data: dict, site: str | None = None):
    return _payload_backend(data, site, "object_marker",
                            "object").decode_object(data)


def encode_morphism(f) -> dict:
    return backend_of(f.dom).encode_morphism(f)


def decode_morphism(data: dict, site: str | None = None):
    return _payload_backend(data, site, "morphism_marker",
                            "morphism").decode_morphism(data)


def object_key(obj) -> str:
    """Deterministic string key for an object, used in fragment tables."""
    return backend_of(obj).object_key(obj)


def morphism_key(f) -> str:
    """Deterministic string key for a morphism, used in fragment tables."""
    return backend_of(f.dom).morphism_key(f)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
