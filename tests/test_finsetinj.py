"""The finite-sets-with-injections backend."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from atomkit import (
    FinSet,
    SiteError,
    Span,
    amalgamate,
    aut_group,
    backend,
    compose,
    hom_set,
    is_iso,
    make_injection,
    pullback,
)


def test_make_injection_validates():
    assert make_injection(1, 2, (0,)).map == (0,)
    assert make_injection(0, 3, ()).map == ()
    with pytest.raises(SiteError, match="^map is not injective$"):
        make_injection(2, 2, (1, 1))
    with pytest.raises(SiteError, match="^map value out of codomain range$"):
        make_injection(1, 2, (2,))
    with pytest.raises(SiteError, match="^map length 1 does not match "
                                        "domain size 2$"):
        make_injection(2, 2, (3,))
    with pytest.raises(SiteError, match="natural number"):
        make_injection(-1, 2, ())


def test_hom_set_counts_are_falling_factorials():
    for m in range(6):
        for n in range(6):
            want = math.perm(n, m)
            assert len(hom_set(FinSet(m), FinSet(n))) == want


def test_aut_orders_are_factorials():
    for n in range(6):
        assert len(aut_group(FinSet(n)).elements) == math.factorial(n)


def test_objects_up_to():
    assert backend("finsetinj").objects_up_to(3) == [FinSet(i) for i in range(4)]


def test_pullback_is_image_intersection():
    objs = [FinSet(i) for i in range(4)]
    for a, b in itertools.product(objs[:3], objs[:3]):
        for f in hom_set(a, FinSet(3)):
            for g in hom_set(b, FinSet(3)):
                sq = pullback(f, g)
                meet = set(f.map) & set(g.map)
                assert sq.apex.size == len(meet)
                assert set(compose(sq.to_left, f).map) == meet
                assert compose(sq.to_left, f) == compose(sq.to_right, g)


def test_amalgamate_size_and_joint_surjectivity():
    objs = [FinSet(i) for i in range(3)]
    for x, a, b in itertools.product(objs, objs, objs):
        for f in hom_set(x, a):
            for g in hom_set(x, b):
                cone = amalgamate(Span(f, g))
                assert cone.obj.size == a.size + b.size - x.size
                assert compose(f, cone.from_left) == compose(g, cone.from_right)
                covered = set(cone.from_left.map) | set(cone.from_right.map)
                assert covered == set(range(cone.obj.size))


@given(st.data())
def test_composition_stays_injective(data):
    n1 = data.draw(st.integers(0, 4))
    n2 = data.draw(st.integers(n1, 5))
    n3 = data.draw(st.integers(n2, 6))
    f = data.draw(st.permutations(range(n2))).__getitem__
    g = data.draw(st.permutations(range(n3))).__getitem__
    ff = make_injection(n1, n2, tuple(f(i) for i in range(n1)))
    gg = make_injection(n2, n3, tuple(g(i) for i in range(n2)))
    h = compose(ff, gg)
    assert h.dom == FinSet(n1) and h.cod == FinSet(n3)
    assert len(set(h.map)) == n1
    assert all(h(i) == gg(ff(i)) for i in range(n1))


def test_every_endomorphism_is_invertible():
    for n in range(4):
        for f in hom_set(FinSet(n), FinSet(n)):
            assert is_iso(f)
