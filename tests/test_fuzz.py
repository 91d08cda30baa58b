"""Mutated payloads through every decoder and through cli.main.

Each case starts from a valid payload and applies one to three
mutations: replace a value (with a constant or with any part of any
seed payload), delete a key, or bump an integer by one.  A decoder must
return or raise SiteError or KeyError; the CLI must exit 0, 1 or 2,
never print a traceback, and print nothing to stdout on exit 2.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from atomkit import (SiteError, build, decode_atom, decode_fragment,
                     decode_morphism, decode_object, encode_atom,
                     encode_fragment, encode_morphism, encode_object,
                     identity_embedding, leaf, make_atom, make_injection,
                     node, tail, unordered_pairs_fragment)
from atomkit import cli
from atomkit.finsetinj import FinSet

T3 = build(node(leaf(), leaf()))
TI = build(node(tail("i"), leaf()))
SWAP = make_injection(2, 2, (1, 0))
POINT = make_injection(1, 2, (0,))

SEEDS = {
    "object": [encode_object(FinSet(2)), encode_object(T3),
               encode_object(TI)],
    "morphism": [encode_morphism(SWAP), encode_morphism(POINT),
                 encode_morphism(identity_embedding(TI))],
    "atom": [encode_atom(make_atom(FinSet(2), (SWAP,))),
             encode_atom(make_atom(T3))],
    "fragment": [encode_fragment(unordered_pairs_fragment(2))],
    "atom map": [{"source": encode_atom(make_atom(FinSet(2))),
                  "target": encode_atom(make_atom(FinSet(1))),
                  "rep": encode_morphism(POINT)}],
}
DECODERS = (decode_object, decode_morphism, decode_atom,
            lambda data, site: decode_fragment(data),
            lambda data, site: cli._decode_atom_map(data, site, "derived"))
SITES = (None, "finsetinj", "itree")
# One command per payload kind, each cheap on any small payload.
COMMANDS = {"object": ("tree", "stats"),
            "morphism": ("presheaf", "selfint", "--depth", "0"),
            "atom": ("atoms", "make"), "fragment": ("presheaf", "decompose"),
            "atom map": ("presheaf", "localiso", "--depth", "0")}


def _parts(value, path=()):
    """Every (path, value) inside a JSON value, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _parts(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _parts(item, path + (i,))


CONSTANTS = [None, True, False, 0, 1, -1, 2.5, "", "x", "i", "n", "t",
             "leaf", "tail", "internal", "finsetinj", "itree", [], [0],
             [0, 0], {}, {"id": 0}]
REPLACEMENTS = CONSTANTS + [part for kind in SEEDS.values()
                            for seed in kind for _p, part in _parts(seed)]


def _holder(payload, path):
    """The dict or list that holds the value at path (path non-empty)."""
    for step in path[:-1]:
        payload = payload[step]
    return payload


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(sorted(SEEDS)))
    payload = copy.deepcopy(draw(st.sampled_from(SEEDS[kind])))
    for _ in range(draw(st.integers(1, 3))):
        parts = list(_parts(payload))
        how = draw(st.sampled_from(("replace", "delete", "bump")))
        keys = [p for p, _v in parts if p and isinstance(p[-1], str)]
        ints = [(p, v) for p, v in parts
                if isinstance(v, int) and not isinstance(v, bool)]
        if how == "delete" and keys:
            path = draw(st.sampled_from(keys))
            del _holder(payload, path)[path[-1]]
            continue
        if how == "bump" and ints:
            path, value = draw(st.sampled_from(ints))
            value += draw(st.sampled_from((-1, 1)))
        else:  # a replacement, also when there is nothing to delete or bump
            path, _v = draw(st.sampled_from(parts))
            value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if path:
            _holder(payload, path)[path[-1]] = value
        else:
            payload = value
    return kind, payload


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated(), st.sampled_from(SITES))
def test_decoders_return_or_raise_a_usage_error(case, site):
    _kind, payload = case
    for decode in DECODERS:
        try:
            decode(copy.deepcopy(payload), site)
        except (SiteError, KeyError):
            pass


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_cli_exits_0_1_or_2_without_a_traceback(tmp_path, case):
    kind, payload = case
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    words = COMMANDS[kind]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(words[:2]) + [str(path)] + list(words[2:]))
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
