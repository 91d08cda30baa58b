"""Site dispatch stays in the backends: every backend implements the
whole Site protocol, generic modules never name a site, untagged
payloads still find their backend, and no module keeps a cache that
outlives a call."""

import pathlib
import re
import sys

import pytest

from atomkit import (FinSet, SiteError, audit_c1, audit_c2prime, build,
                     compute_K, decode_morphism, decode_object,
                     encode_morphism, encode_object, enumerate_embeddings,
                     leaf, make_injection, node, self_intersection_check, tail)
from atomkit.core import BACKENDS, Site

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "atomkit"
GENERIC = ("core", "atoms", "audit", "presheaf")


def _members() -> set:
    methods = {n for n in vars(Site) if not n.startswith("_")}
    return methods | set(Site.__annotations__)


def test_every_backend_implements_every_site_member():
    members = _members()
    assert {"tag", "hom_set", "checker_objects", "zigzag"} <= members
    assert sorted(BACKENDS) == ["finsetinj", "itree"]
    for tag, be in BACKENDS.items():
        missing = sorted(m for m in members if not hasattr(be, m))
        assert missing == [], (tag, missing)
        assert be.tag == tag


def test_no_function_local_package_imports():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        hits = re.findall(r"^[ \t]+from \.", text, re.MULTILINE)
        assert hits == [], path.name


def test_trees_are_materialized_in_one_place():
    calls = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()
             if re.search(r"(?<!^class )\bFinitaryTree\(", line)]
    assert len(calls) == 1 and calls[0][0] == "itree.py", calls


def _module_containers() -> dict:
    """The size of every dict, set and list bound at module level in an
    atomkit module."""
    return {(name, attr): len(value)
            for name, mod in sorted(sys.modules.items())
            if name == "atomkit" or name.startswith("atomkit.")
            for attr, value in vars(mod).items()
            if isinstance(value, (dict, set, list)) and not attr.startswith("__")}


def test_no_module_keeps_a_global_cache():
    """Caches live in one call (the audits' hom-set memo) or on one value
    (its stored hash, a tree's index fields, an inline_cached_property
    table), so memory does not grow with the calls a process has made."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\blru_cache\b|\bfunctools\.cache\b|"
                             r"^\s*@cache\b|import .*\bcache\b", text,
                             re.MULTILINE), path.name
    before = _module_containers()
    assert ("atomkit.core", "BACKENDS") in before
    audit_c1("itree", 1)
    audit_c2prime("itree", 1)
    mono = enumerate_embeddings(build(leaf()), build(node(leaf(), leaf())))[0]
    self_intersection_check(mono, 1)
    compute_K(make_injection(1, 2, (0,)), 1)
    assert _module_containers() == before


def test_generic_modules_never_compare_a_site_with_a_literal():
    pattern = re.compile(r'(site|tag)\)? ?[!=]= ?"')
    for name in GENERIC:
        text = (SRC / (name + ".py")).read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if pattern.search(ln)]
        assert lines == [], name


def _untagged(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "site"}


@pytest.mark.parametrize("obj", [
    FinSet(0), FinSet(3),
    build(leaf()), build(tail("i")), build(node(leaf(), tail("j"))),
])
def test_untagged_object_payloads_find_their_site(obj):
    data = _untagged(encode_object(obj))
    assert "site" not in data
    assert decode_object(data) == obj
    assert decode_object(data, obj.site) == obj


T3 = build(node(leaf(), leaf()))


@pytest.mark.parametrize("f", [
    make_injection(0, 2, ()), make_injection(2, 3, (2, 0)),
    enumerate_embeddings(build(leaf()), T3)[0], enumerate_embeddings(T3, T3)[1],
])
def test_untagged_morphism_payloads_find_their_site(f):
    data = _untagged(encode_morphism(f))
    assert "site" not in data
    assert decode_morphism(data) == f
    assert decode_morphism(data, f.site) == f


@pytest.mark.parametrize("bad", [[], [1, 2], [{"size": 2}], "x", 3, None])
def test_payloads_that_are_not_objects_are_site_errors(bad):
    with pytest.raises(SiteError, match="JSON object"):
        decode_object(bad)
    with pytest.raises(SiteError, match="JSON object"):
        decode_morphism(bad)


def test_unrecognizable_payloads_keep_their_messages():
    with pytest.raises(SiteError, match="object payload carries no "
                                        "recognizable site tag"):
        decode_object({"map": [0]})
    with pytest.raises(SiteError, match="morphism payload carries no "
                                        "recognizable site tag"):
        decode_morphism({"size": 1})
    with pytest.raises(SiteError, match="payload says 'itree', expected "
                                        "'finsetinj'"):
        decode_object({"site": "itree", "size": 1}, "finsetinj")
    with pytest.raises(SiteError, match="unknown site tag"):
        decode_object({"site": ["itree"], "size": 1})
