"""The value classes are plain immutable classes on core.Value: equal
values compare and hash alike, hashes are those of the tuple of compared
fields (so set and dict order, and every digest, match the field
tuples), the fields marked as ignored stay out of equality, no field can
be assigned or deleted, and every constructor still checks what it
checked.  Every class's __eq__ and __hash__ are generated, and so is
every __init__ but that of AtomMap; the hash is stored on first use, and
no module writes an instance dict.  Importing the CLI pulls in neither
dataclasses nor inspect, because every CLI call pays for its imports."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from atomkit import (AtomComponent, AtomMap, AuditReport, AutGroup,
                     CheckVerdict, CoeqTrace, Cocone, Decomposition,
                     FinitaryTree, FinSet, FormalAtom, Injection, KResult,
                     PresheafFragment, PullbackSquare, SiteError,
                     TreeEmbedding, amalgamate, atom_identity,
                     audit_c4, aut_group, build, coequalize_representables,
                     compute_K, decompose, enumerate_embeddings, identity,
                     leaf, make_atom, make_injection, node, pullback,
                     subgroup_generated, tail, unordered_pairs_fragment)
from atomkit.core import Value

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _f():
    return make_injection(1, 2, (0,))


def _g():
    return make_injection(1, 2, (1,))


def _tree():
    return build(node(leaf(), tail("i")))


# class -> (a fresh instance, the fields equality and hashing compare)
VALUES = {
    PullbackSquare: (lambda: pullback(_f(), _g()),
                     ("left", "right", "apex", "to_left", "to_right")),
    Cocone: (lambda: amalgamate(_f(), _g()),
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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    assert len(VALUES) == 16
    assert set(VALUES) == {cls for cls in _subclasses(Value)
                           if cls.__module__.startswith("atomkit.")}


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


def _written(cls, method):
    """Whether cls wrote method itself: Value compiles the methods it
    generates from a file name that names the class."""
    return vars(cls)[method].__code__.co_filename != \
        "<value methods of %s.%s>" % (cls.__module__, cls.__qualname__)


GENERIC = [cls for cls in VALUES if not _written(cls, "__init__")]


def test_only_the_plain_records_use_the_generic_constructor():
    assert len(GENERIC) == 15
    assert [cls.__name__ for cls in VALUES if cls not in GENERIC] == [
        "AtomMap"]
    assert all(cls.__init__ is cls._set_fields for cls in GENERIC)


def test_no_value_class_writes_eq_or_hash():
    assert [cls for cls in VALUES
            if _written(cls, "__eq__") or _written(cls, "__hash__")] == []


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_every_value_stores_the_hash_of_its_compared_fields(cls):
    make, compared = VALUES[cls]
    value = make()
    first = hash(value)
    stored = object.__getattribute__(value, "_hash")
    assert stored == first == hash(tuple(getattr(value, n) for n in compared))
    assert hash(value) == first


def test_no_module_writes_an_instance_dict():
    """Values store through object.__setattr__ only (see core.Value): the
    one __dict__ in the package is the class dict __init_subclass__ reads."""
    uses = [(path.name, line.strip())
            for path in sorted((SRC / "atomkit").glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "__dict__" in line or re.search(r"\bvars\(", line)]
    assert uses == [("core.py", 'if "_compare" not in cls.__dict__:'),
                    ("core.py", "if method not in cls.__dict__:")]


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


def test_values_that_differ_in_a_compared_field_differ():
    assert FinSet(2) != FinSet(3)
    assert _f() != _g()
    assert CheckVerdict("pass", {}, 0) != CheckVerdict("fail", {}, 0)
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


def test_every_constructor_check_still_raises():
    f, g = _f(), _g()
    one = identity(FinSet(1))
    cases = [
        (lambda: FinSet(-1), "natural number"),
        (lambda: pullback(f, make_injection(1, 3, (0,))),
         "share their codomain"),
        (lambda: Cocone(FinSet(3), f, g), "land in the cocone object"),
        (lambda: PullbackSquare(f, g, FinSet(1), one, one),
         "does not commute"),
        (lambda: CheckVerdict("maybe", {}, 0), "pass, fail or unknown"),
        (lambda: FormalAtom(FinSet(2), aut_group(FinSet(3))),
         "automorphisms of the base"),
        (lambda: AtomMap(make_atom(FinSet(2)), make_atom(FinSet(1)), one),
         "target base -> source base"),
        (lambda: AtomMap(FormalAtom(FinSet(2), aut_group(FinSet(2))),
                         make_atom(FinSet(1)), f),
         "does not represent a map of atoms"),
        (lambda: PresheafFragment("finsetinj", (FinSet(1),),
                                  ((FinSet(1), ("a",)), (FinSet(1), ("a",))),
                                  ()),
         "duplicate object or arrow key"),
        (lambda: PresheafFragment("finsetinj", (FinSet(1), FinSet(1)),
                                  ((FinSet(1), ("a",)),), ()),
         "lists object 1 twice"),
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
