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
from functools import cached_property
from typing import Iterable, Protocol


class SiteError(ValueError):
    """Raised when a payload or a pair of payloads violates a site invariant."""


class Value:
    """Base of the immutable value classes.

    A subclass names its fields in _fields, in constructor order, and the
    fields that equality and hashing compare in _compare (all of them
    unless it says otherwise); one whose fields must satisfy an invariant
    defines _check(self), which raises SiteError.  From those names
    __init_subclass__ compiles three methods once per class, at import:
    __init__(self, *values), also the class's _set_fields, stores one
    value per field with object.__setattr__, then calls _check; __eq__
    holds for two values of one class that are the same object or have
    equal compared fields; __hash__ hashes the tuple of compared fields
    on first use, hash(x) == hash((x.a, x.b)), which orders every set of
    values and so every output that lists one.  AtomMap writes an
    __init__ that derives fields, then calls _set_fields.

    An instance refuses assignment and deletion.  It stores values in
    three places only, each with object.__setattr__: the generated
    __init__ (its fields, compared or ignored), the generated __hash__
    (its hash, in _hash) and inline_cached_property (a table built on
    first use).  Nothing writes the instance dict: on CPython 3.11.7 an
    attribute load from a dict made from inline storage takes 33 ns
    against 21 ns.
    """

    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()
    _hash = None

    def __init_subclass__(cls):
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields
        name, fields = cls.__qualname__, cls._fields

        def row(who, names):
            return "(%s)" % "".join("%s.%s, " % (who, f) for f in names)

        lines = ["def __init__(self, *values):",
                 "    if len(values) != %d:" % len(fields),
                 "        raise TypeError(%r %% len(values))"
                 % ("%s takes %d fields, got %%d" % (name, len(fields))),
                 "    %s, = values" % ", ".join(fields)]
        lines += ["    _setattr(self, %r, %s)" % (f, f) for f in fields]
        if hasattr(cls, "_check"):
            lines.append("    self._check()")
        lines += ["def __eq__(self, other):",
                  "    if other.__class__ is self.__class__:",
                  "        return other is self or %s == %s"
                  % (row("self", cls._compare), row("other", cls._compare)),
                  "    return NotImplemented",
                  "def __hash__(self):",
                  "    h = self._hash",
                  "    if h is None:",
                  "        h = hash(%s)" % row("self", cls._compare),
                  "        _setattr(self, '_hash', h)",
                  "    return h"]
        methods = {"__name__": cls.__module__, "_setattr": object.__setattr__}
        exec(compile("\n".join(lines) + "\n", "<value methods of %s.%s>"
                     % (cls.__module__, name), "exec"), methods)
        for method in ("__init__", "__eq__", "__hash__"):
            methods[method].__qualname__ = "%s.%s" % (name, method)
            if method not in cls.__dict__:
                setattr(cls, method, methods[method])
        cls._set_fields = methods["__init__"]

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class inline_cached_property(cached_property):
    """A cached_property that stores with object.__setattr__, as fields
    and the hash are stored, not through the instance dict (see Value):
    a table built on first use, which equality ignores."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


class PullbackSquare(Value):
    """A cospan (left, right) together with its limit.

    apex is the pullback object, to_left: apex -> dom(left) and
    to_right: apex -> dom(right) are the projections.  The square
    commutes: to_left;left == to_right;right.
    """

    _fields = ("left", "right", "apex", "to_left", "to_right")

    def _check(self):
        if not commutes(self.to_left, self.left, self.to_right, self.right):
            raise SiteError("pullback square does not commute")


class Cocone(Value):
    """An object C with legs from_left: A -> C, from_right: B -> C over a span."""

    _fields = ("obj", "from_left", "from_right")

    def _check(self):
        # legs that land in the cocone's own object take no __eq__ call
        if (self.from_left.cod, self.from_right.cod) != (self.obj, self.obj):
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

    @inline_cached_property
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
    returns the one w with w;m == h, or None (every arrow is mono);
    rank(obj) is a tuple of naturals, ordered as tuples are, that drops
    along every proper subobject; amalgamate(f, g) gets legs out of one
    object, which core.amalgamate checks before it dispatches."""

    tag: str
    object_marker: str
    morphism_marker: str

    def identity(self, obj): ...
    def hom_set(self, a, b) -> list: ...
    def factor(self, h, m): ...
    def rank(self, obj) -> tuple: ...
    def pullback(self, f, g) -> PullbackSquare: ...
    def amalgamate(self, f, g) -> Cocone: ...
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


def rank(obj) -> tuple:
    return backend_of(obj).rank(obj)


def pullback(f, g) -> PullbackSquare:
    """Pullback of the cospan (f, g), apex in canonical form."""
    if f.cod != g.cod:
        raise SiteError("cospan legs must share their codomain")
    return backend_of(f.dom).pullback(f, g)


def amalgamate(f, g) -> Cocone:
    """A cocone completing the span (f, g), deterministic and small."""
    if (f.dom,) != (g.dom,):  # a tuple compares identity before __eq__
        raise SiteError("span legs must share their domain")
    cone = backend_of(f.dom).amalgamate(f, g)
    if not commutes(f, cone.from_left, g, cone.from_right):
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
