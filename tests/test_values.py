"""The value classes are plain immutable classes on core.Value: equal
values compare and hash alike, hashes are those of the tuple of compared
fields (so set and dict order, and every digest, match the field
tuples), the fields marked as ignored stay out of equality, no field can
be assigned or deleted, and every constructor still checks what it
checked.  Importing the CLI pulls in neither dataclasses nor inspect,
because every CLI call pays for its imports."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from atomkit import (AtomComponent, AtomMap, AuditReport, AutGroup,
                     CheckVerdict, CoeqTrace, Cocone, Cospan, Decomposition,
                     FinitaryTree, FinSet, FormalAtom, Injection, KResult,
                     PresheafFragment, PullbackSquare, RankValue, SiteError,
                     Span, TreeEmbedding, amalgamate, atom_identity,
                     audit_c4, aut_group, build, coequalize_representables,
                     compute_K, decompose, enumerate_embeddings, identity,
                     leaf, make_atom, make_injection, node, pullback,
                     subgroup_generated, tail, unordered_pairs_fragment)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _f():
    return make_injection(1, 2, (0,))


def _g():
    return make_injection(1, 2, (1,))


def _tree():
    return build(node(leaf(), tail("i")))


# class -> (a fresh instance, the fields equality and hashing compare)
VALUES = {
    RankValue: (lambda: RankValue((1, 2)), ("components",)),
    Span: (lambda: Span(_f(), _g()), ("left", "right")),
    Cospan: (lambda: Cospan(_f(), _g()), ("left", "right")),
    PullbackSquare: (lambda: pullback(_f(), _g()),
                     ("left", "right", "apex", "to_left", "to_right")),
    Cocone: (lambda: amalgamate(Span(_f(), _g())),
             ("obj", "from_left", "from_right")),
    AutGroup: (lambda: aut_group(FinSet(2)), ("obj", "elements")),
    FormalAtom: (lambda: make_atom(FinSet(2)), ("base", "group")),
    AtomMap: (lambda: atom_identity(make_atom(FinSet(2))),
              ("source", "target", "rep")),
    CoeqTrace: (lambda: coequalize_representables(_f(), _g()),
                ("alpha", "beta", "steps", "result", "sigma",
                 "quotient_rep")),
    CheckVerdict: (lambda: CheckVerdict("pass", {"n": 1}, 2),
                   ("status", "depth_used")),
    PresheafFragment: (lambda: unordered_pairs_fragment(2),
                       ("site", "objects", "elements", "action")),
    AtomComponent: (lambda: decompose(unordered_pairs_fragment(2))
                    .components[0], ("atom", "members")),
    Decomposition: (lambda: decompose(unordered_pairs_fragment(2)),
                    ("components",)),
    KResult: (lambda: compute_K(_f(), 1),
              ("k", "j", "unit", "group", "steps", "verdict")),
    AuditReport: (lambda: audit_c4("finsetinj", 1),
                  ("condition", "bound", "verdicts")),
    FinSet: (lambda: FinSet(3), ("size",)),
    Injection: (lambda: make_injection(2, 3, (2, 0)), ("dom", "cod", "map")),
    FinitaryTree: (_tree, ("kinds", "children", "labels")),
    TreeEmbedding: (lambda: enumerate_embeddings(build(leaf()), _tree())[0],
                    ("dom", "cod", "explicit_images", "tail_routes")),
}


def test_every_value_class_is_covered():
    assert len(VALUES) == 19


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_equal_values_compare_and_hash_as_their_field_tuple(cls):
    make, compared = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in compared))
    assert a != tuple(getattr(a, n) for n in compared)
    assert len({a, b}) == 1
    assert repr(a).startswith(cls.__name__ + "(" + compared[0] + "=")


GENERIC = [cls for cls in VALUES if "__init__" not in vars(cls)]


def test_only_the_plain_records_use_the_generic_constructor():
    assert sorted(cls.__name__ for cls in GENERIC) == [
        "AtomComponent", "AuditReport", "AutGroup", "CoeqTrace",
        "Decomposition", "KResult"]


@pytest.mark.parametrize("cls", GENERIC, ids=lambda c: c.__name__)
def test_the_generic_constructor_takes_one_value_per_field(cls):
    value = VALUES[cls][0]()
    fields = tuple(getattr(value, name) for name in cls._fields)
    rebuilt = cls(*fields)
    assert rebuilt == value
    assert all(getattr(rebuilt, name) is field
               for name, field in zip(cls._fields, fields))
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match="^%s takes %d fields, got %d$"
                           % (cls.__name__, len(fields), len(wrong))):
            cls(*wrong)


def test_one_field_values_hash_a_one_tuple():
    assert hash(FinSet(3)) == hash((3,)) != hash(3)
    assert hash(RankValue((4,))) == hash(((4,),))


def test_values_that_differ_in_a_compared_field_differ():
    assert FinSet(2) != FinSet(3)
    assert _f() != _g()
    assert CheckVerdict("pass", {}) != CheckVerdict("fail", {})
    assert CheckVerdict("pass", {}, 1) != CheckVerdict("pass", {}, 2)
    assert aut_group(FinSet(2)) != aut_group(FinSet(3))
    assert build(leaf()) != _tree()


def test_fields_marked_as_ignored_stay_out_of_equality():
    swap = make_injection(2, 2, (1, 0))
    full = aut_group(FinSet(2))
    generated = subgroup_generated(FinSet(2), [swap])
    assert full.generators != generated.generators
    assert full == generated and hash(full) == hash(generated)
    atom = make_atom(FinSet(2))
    derived, paper = atom_identity(atom), atom_identity(atom, "paper")
    assert derived.variant != paper.variant
    assert derived == paper and hash(derived) == hash(paper)
    one, two = CheckVerdict("fail", {"u": "a"}, 1), CheckVerdict("fail", {}, 1)
    assert one == two and hash(one) == hash(two)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    make, compared = VALUES[cls]
    value = make()
    for name in compared + ("fresh_attribute",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in compared:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


def test_ranks_order_like_their_components():
    pool = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (2,), (1, 1, 1)]
    for x in pool:
        for y in pool:
            a, b = RankValue(x), RankValue(y)
            assert ((a < b), (a <= b), (a > b), (a >= b), (a == b)) == \
                ((x < y), (x <= y), (x > y), (x >= y), (x == y)), (x, y)
    ranks = [RankValue(c) for c in reversed(pool)]
    assert [r.components for r in sorted(ranks)] == sorted(pool)
    with pytest.raises(TypeError):
        RankValue((1,)) < (1,)


def test_every_constructor_check_still_raises():
    f, g = _f(), _g()
    one = identity(FinSet(1))
    cases = [
        (lambda: FinSet(-1), "natural number"),
        (lambda: RankValue((1, -1)), "rank components must be naturals"),
        (lambda: Span(f, identity(FinSet(2))), "share their domain"),
        (lambda: Cospan(f, make_injection(1, 3, (0,))),
         "share their codomain"),
        (lambda: Cocone(FinSet(3), f, g), "land in the cocone object"),
        (lambda: PullbackSquare(f, g, FinSet(1), one, one),
         "does not commute"),
        (lambda: CheckVerdict("maybe", {}), "pass, fail or unknown"),
        (lambda: FormalAtom(FinSet(2), aut_group(FinSet(3))),
         "automorphisms of the base"),
        (lambda: AtomMap(make_atom(FinSet(2)), make_atom(FinSet(1)), one),
         "target base -> source base"),
        (lambda: AtomMap(FormalAtom(FinSet(2), aut_group(FinSet(2))),
                         make_atom(FinSet(1)), f),
         "does not represent a map of atoms"),
        (lambda: PresheafFragment("finsetinj", (FinSet(1),),
                                  (("1", ("a",)), ("1", ("a",))), ()),
         "duplicate object or arrow key"),
    ]
    for build_value, message in cases:
        with pytest.raises(SiteError, match=message):
            build_value()


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "atomkit").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import) dataclasses\b", text,
                             re.MULTILINE), path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, atomkit.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
