"""core.commutes, the check behind amalgamate and PullbackSquare: it
compares the composites f;g and h;k entry by entry without building
them.  It must agree with composing and comparing, and a cocone or a
square with one leg swapped for another arrow with the same ends must
still be a SiteError."""

import pytest

from atomkit import (Cocone, PullbackSquare, SiteError, amalgamate, backend,
                     compose, hom_set, pullback)
from atomkit.core import commutes

SITES = ["finsetinj", "itree"]
BOUNDS = {"finsetinj": 3, "itree": 2}


def _pool(site):
    return backend(site).objects_up_to(BOUNDS[site])


def _cocones(site):
    """Every span (f, g) of the pool with its cocone."""
    pool = _pool(site)
    spans = [(f, g) for a in pool for b in pool for f in hom_set(a, b)
             for x in pool for g in hom_set(a, x)]
    return [(span, amalgamate(*span)) for span in spans]


def _squares(site):
    """The pullback square of every cospan of the pool."""
    pool = _pool(site)
    return [pullback(f, g) for z in pool for x in pool
            for f in hom_set(x, z) for y in pool for g in hom_set(y, z)]


def _others(f) -> list:
    """The arrows with the ends of f, other than f."""
    return [h for h in hom_set(f.dom, f.cod) if h != f]


def _composed(f, g, h, k) -> bool:
    return compose(f, g) == compose(h, k)


def _cocone_checks(span, cone) -> list:
    """The check of the cocone, then each check with one leg swapped."""
    (f, u), g, v = span, cone.from_left, cone.from_right
    return ([(f, g, u, v)] + [(f, other, u, v) for other in _others(g)]
            + [(f, g, u, other) for other in _others(v)])


def _square_checks(sq) -> list:
    p, f, q, g = sq.to_left, sq.left, sq.to_right, sq.right
    return ([(p, f, q, g)] + [(other, f, q, g) for other in _others(p)]
            + [(p, f, other, g) for other in _others(q)])


@pytest.mark.parametrize("site", SITES)
def test_the_table_check_agrees_with_composing(site):
    """On every cocone and square of the pool, and on each of them with
    one leg swapped for every other arrow with the same ends."""
    checks = [c for span, cone in _cocones(site)
              for c in _cocone_checks(span, cone)]
    checks += [c for sq in _squares(site) for c in _square_checks(sq)]
    got = [commutes(*c) for c in checks]
    assert got == [_composed(*c) for c in checks]
    assert True in got and False in got


def test_the_table_check_keeps_the_endpoint_checks():
    for site in SITES:
        span, cone = next((s, c) for s, c in _cocones(site)
                          if s[0].cod != s[1].cod)
        with pytest.raises(SiteError, match="cod of first factor"):
            commutes(span[0], cone.from_right, span[1], cone.from_left)


@pytest.mark.parametrize("site", SITES)
def test_a_cocone_with_a_swapped_leg_is_a_site_error(site, monkeypatch):
    be = backend(site)
    planted = 0
    for span, cone in _cocones(site):
        for f, g, u, v in _cocone_checks(span, cone)[1:]:
            if _composed(f, g, u, v):
                continue
            monkeypatch.setattr(be, "amalgamate",
                                lambda _f, _g, bad=Cocone(cone.obj, g, v): bad)
            with pytest.raises(SiteError, match="non-commuting cocone"):
                amalgamate(*span)
            monkeypatch.undo()
            planted += 1
    assert planted > 0


@pytest.mark.parametrize("site", SITES)
def test_a_square_with_a_swapped_projection_is_a_site_error(site):
    planted = 0
    for sq in _squares(site):
        for p, f, q, g in _square_checks(sq)[1:]:
            if _composed(p, f, q, g):
                continue
            with pytest.raises(SiteError, match="does not commute"):
                PullbackSquare(f, g, sq.apex, p, q)
            planted += 1
    assert planted > 0
