"""Finite sets with injective maps.

Objects are sizes n (elements 0..n-1), morphisms are injections stored
as value tuples.  hom_set(m, n) enumerates the n!/(n-m)! injections in
lexicographic payload order, which is the canonical order everywhere.
"""

from __future__ import annotations

import itertools

from .core import (Cocone, PullbackSquare, RankValue, SiteError, Span, Value,
                   amalgamate, compose, is_int, object_key, register_backend)


class FinSet(Value):
    _fields = ("size",)
    site = "finsetinj"

    def __init__(self, size: int):
        super().__init__(size)
        if size < 0:
            raise SiteError("object size must be a natural number")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.size,) == (other.size,)
        return NotImplemented

    def __hash__(self):
        return hash((self.size,))


class Injection(Value):
    """The injection dom -> cod sending i to map[i].  The constructor
    trusts its arguments; make_injection is the checked one."""

    _fields = ("dom", "cod", "map")
    site = "finsetinj"

    def __init__(self, dom: FinSet, cod: FinSet, map: tuple[int, ...]):
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "map", map)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dom, self.cod, self.map) == (other.dom, other.cod,
                                                      other.map)
        return NotImplemented

    def __hash__(self):
        return hash((self.dom, self.cod, self.map))

    def __call__(self, i: int) -> int:
        return self.map[i]

    def then(self, other: "Injection") -> "Injection":
        return Injection(self.dom, other.cod, tuple(other.map[v] for v in self.map))

    def then_equals(self, g: "Injection", h: "Injection",
                    k: "Injection") -> bool:
        """Whether self;g == h;k, given equal ends, map entry by entry."""
        gm, km = g.map, k.map
        return [gm[v] for v in self.map] == [km[w] for w in h.map]

    def sort_key(self):
        return (self.dom.size, self.cod.size, self.map)


def make_injection(dom_size: int, cod_size: int, values) -> Injection:
    """The injection with these values, checked in length, range and
    injectivity."""
    dom, cod, values = FinSet(dom_size), FinSet(cod_size), tuple(values)
    if len(values) != dom.size:
        raise SiteError("map length %d does not match domain size %d"
                        % (len(values), dom.size))
    if any(not 0 <= v < cod.size for v in values):
        raise SiteError("map value out of codomain range")
    if len(set(values)) != len(values):
        raise SiteError("map is not injective")
    return Injection(dom, cod, values)


def _top(seeds) -> int:
    return max((s.size for s in seeds), default=0)


class FinSetInjBackend:
    tag = "finsetinj"
    object_marker = "size"
    morphism_marker = "map"

    def identity(self, obj: FinSet) -> Injection:
        return Injection(obj, obj, tuple(range(obj.size)))

    def hom_set(self, a: FinSet, b: FinSet) -> list[Injection]:
        return [Injection(a, b, p)
                for p in itertools.permutations(range(b.size), a.size)]

    def factor(self, h: Injection, m: Injection) -> Injection | None:
        """w(i) is the position of h(i) in m.map, if every h(i) is in it."""
        try:
            return Injection(h.dom, m.dom, tuple(map(m.map.index, h.map)))
        except ValueError:
            return None

    def rank(self, obj: FinSet) -> RankValue:
        return RankValue((obj.size,))

    def pullback(self, f: Injection, g: Injection) -> PullbackSquare:
        # Intersection of the two images, listed ascending in the target.
        common = sorted(set(f.map) & set(g.map))
        apex = FinSet(len(common))
        to_left = Injection(apex, f.dom, tuple(f.map.index(z) for z in common))
        to_right = Injection(apex, g.dom, tuple(g.map.index(z) for z in common))
        return PullbackSquare(f, g, apex, to_left, to_right)

    def amalgamate(self, span: Span) -> Cocone:
        # Pushout: keep A's elements, append the B elements not glued to X.
        f, g = span.left, span.right
        glued = {g.map[i]: f.map[i] for i in range(span.apex.size)}
        obj = FinSet(f.cod.size + g.cod.size - len(glued))
        from_left = Injection(f.cod, obj, tuple(range(f.cod.size)))
        values = []
        nxt = f.cod.size
        for j in range(g.cod.size):
            if j in glued:
                values.append(glued[j])
            else:
                values.append(nxt)
                nxt += 1
        from_right = Injection(g.cod, obj, tuple(values))
        return Cocone(obj, from_left, from_right)

    def objects_up_to(self, bound: int) -> list[FinSet]:
        """The sets of size at most bound."""
        return [FinSet(k) for k in range(bound + 1)]

    def chain_domains(self, base: FinSet) -> list[FinSet]:
        return self.objects_up_to(base.size)

    def checker_objects(self, depth: int, seeds) -> list[FinSet]:
        """Sizes up to depth plus the largest seed size."""
        return self.objects_up_to(depth + _top(seeds))

    def pairs_covered(self, depth: int, seeds, tgt: FinSet,
                      shared: FinSet) -> bool:
        """Whether every parallel pair out of tgt agreeing on the image of
        shared factors through a checker object: such a pair restricts
        to the union of its two images, at most 2|tgt| - |shared| points."""
        return 2 * tgt.size - shared.size <= depth + _top(seeds)

    def regular_mono(self, m: Injection) -> tuple[bool, dict]:
        """The pushout legs of m along itself agree exactly on its image."""
        cone = amalgamate(Span(m, m))
        u, v = cone.from_left, cone.from_right
        agree = sorted(b for b in range(m.cod.size) if u(b) == v(b))
        image = sorted(m.map)
        if agree != image:
            return False, {"reason": "equalizer differs from image",
                           "equalizer": agree, "image": image}
        return True, {"doubled": object_key(cone.obj)}

    def zigzag(self, square: PullbackSquare, u: Injection,
               v: Injection) -> tuple:
        """Route everything off the left leg through fresh points; the outer
        links agree on the left leg, the middle one on the right leg."""
        f, z, a = square.left, square.left.cod, u.cod
        ap_size = a.size + z.size - f.dom.size
        w = make_injection(a.size, ap_size, tuple(range(a.size)))
        in_f = set(f.map)
        fresh = iter(range(a.size, ap_size))
        k1 = [u(i) if i in in_f else next(fresh) for i in range(z.size)]
        k2 = [v(i) if i in in_f else k1[i] for i in range(z.size)]
        chain = (compose(u, w), make_injection(z.size, ap_size, tuple(k1)),
                 make_injection(z.size, ap_size, tuple(k2)), compose(v, w))
        return w, chain

    def full_group_name(self, obj: FinSet) -> str:
        return "Sym%d" % obj.size

    # -- serialization ------------------------------------------------------

    def encode_object(self, obj: FinSet) -> dict:
        return {"site": "finsetinj", "size": obj.size}

    def decode_object(self, data: dict) -> FinSet:
        if "size" not in data:
            raise SiteError("finsetinj object payload needs a 'size' field")
        size = data["size"]
        if not is_int(size):
            raise SiteError("'size' must be an integer")
        return FinSet(size)

    def encode_morphism(self, f: Injection) -> dict:
        return {"dom": f.dom.size, "cod": f.cod.size, "map": list(f.map)}

    def decode_morphism(self, data: dict) -> Injection:
        for key in ("dom", "cod", "map"):
            if key not in data:
                raise SiteError("finsetinj morphism payload needs a %r field" % key)
        if not (is_int(data["dom"]) and is_int(data["cod"])):
            raise SiteError("'dom' and 'cod' must be integers")
        if not (isinstance(data["map"], list)
                and all(is_int(v) for v in data["map"])):
            raise SiteError("'map' must be a list of integers")
        return make_injection(data["dom"], data["cod"], data["map"])

    def object_key(self, obj: FinSet) -> str:
        return str(obj.size)

    def morphism_key(self, f: Injection) -> str:
        return "%d>%d:%s" % (f.dom.size, f.cod.size,
                             ",".join(str(v) for v in f.map))


register_backend(FinSetInjBackend())
