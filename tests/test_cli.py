"""Command-line surface: JSON-only standard output, deterministic bytes,
and the documented exit-code policy (0 pass, 1 fail verdict, 2 usage,
3 internal error)."""

import json
import pathlib

import pytest

from atomkit import (
    FinSet,
    Span,
    amalgamate,
    atom_compose,
    atom_hom,
    atom_iso_formal,
    aut_group,
    backend,
    build,
    c2prime_chain,
    canonical_json,
    decode_atom,
    decode_fragment,
    decode_morphism,
    decode_object,
    encode_atom,
    encode_fragment,
    encode_morphism,
    encode_object,
    enumerate_embeddings,
    hom_set,
    identity,
    leaf,
    local_iso_check,
    make_atom,
    make_injection,
    morphism_key,
    node,
    object_key,
    pullback,
    self_intersection_check,
    stabilizer,
    support_element,
    tail,
    tree_stats,
    unordered_pairs_fragment,
)
from atomkit import cli, itree
from atomkit.audit import _regular_mono_row, verify_chain
from atomkit.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

T1 = build(leaf())
T3 = build(node(leaf(), leaf()))


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def unordered_file(tmp_path):
    return _write(tmp_path, "unordered.json",
                  encode_fragment(unordered_pairs_fragment(3)))


def test_decompose_matches_the_schanuel_invariants(unordered_file, capsys):
    assert main(["presheaf", "decompose", "--site", "finsetinj",
                 unordered_file]) == 0
    assert capsys.readouterr().out == '[["2","Sym2"],["1","triv"]]\n'


def test_output_bytes_are_deterministic(unordered_file, capsys):
    main(["presheaf", "decompose", unordered_file])
    first = capsys.readouterr().out
    main(["presheaf", "decompose", unordered_file])
    assert capsys.readouterr().out == first


def test_out_flag_writes_the_same_payload(unordered_file, tmp_path, capsys):
    out = tmp_path / "result.json"
    main(["presheaf", "decompose", "--out", str(out), unordered_file])
    printed = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == printed


def test_coeq_collapses_the_two_points(tmp_path, capsys):
    p0 = _write(tmp_path, "pt0.json", encode_morphism(make_injection(1, 2, (0,))))
    p1 = _write(tmp_path, "pt1.json", encode_morphism(make_injection(1, 2, (1,))))
    assert main(["coeq", "--site", "finsetinj", p0, p1]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == ["0", "triv"]
    assert payload["pullback_steps"] == 2


def test_tree_stats(tmp_path, capsys):
    f = _write(tmp_path, "t3.json", encode_object(T3))
    assert main(["tree", "stats", f]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"aut_order": 2, "branch_count": 0, "f_count": 3,
                       "key": "(L L)", "rank": [0, 3]}


def test_tree_embeddings_count(tmp_path, capsys):
    f = _write(tmp_path, "t3.json", encode_object(T3))
    assert main(["tree", "embeddings", f, f]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_tree_validate_rejects_foreign_payloads(tmp_path, capsys):
    f = _write(tmp_path, "pt0.json", encode_morphism(make_injection(1, 2, (0,))))
    assert main(["tree", "validate", f]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False


def test_audit_c3_all_pass(capsys):
    assert main(["audit", "--condition", "c3", "--site", "itree",
                 "--bound", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"pass": 90, "fail": 0, "unknown": 0}


def test_sheafcheck_failure_exits_one(tmp_path, capsys):
    atom = _write(tmp_path, "atom.json",
                  encode_atom(make_atom(T3, aut_group(T3).generators)))
    cover = _write(tmp_path, "cover.json",
                   encode_morphism(enumerate_embeddings(T1, T3)[0]))
    assert main(["presheaf", "sheafcheck", "--depth", "2", atom, cover]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fail"
    assert payload["witness"]["reason"] == "compatible class does not descend"


def test_atoms_hom_variant_flag(tmp_path, capsys):
    src = _write(tmp_path, "ordered.json", encode_atom(make_atom(FinSet(2))))
    swap = make_injection(2, 2, (1, 0))
    tgt = _write(tmp_path, "unordered.json",
                 encode_atom(make_atom(FinSet(2), (swap,))))
    assert main(["atoms", "hom", src, tgt]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert main(["atoms", "hom", "--variant", "paper", src, tgt]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_audit_requires_a_site(capsys):
    assert main(["audit", "--condition", "c1"]) == 2
    assert capsys.readouterr().out == ""


def test_unreadable_file_is_a_usage_error(capsys):
    assert main(["tree", "stats", "/nonexistent/nothing.json"]) == 2


def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    """--out is written before stdout, so nothing is printed."""
    out = tmp_path / "missing" / "x.json"
    assert main(["tree", "stats", "--out", str(out),
                 str(DATA / "t3.json")]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: cannot write %s: No such file or " \
        "directory\n" % out
    assert not out.exists()


def test_backend_mismatch_is_a_usage_error(tmp_path, capsys):
    f = _write(tmp_path, "t3.json", encode_object(T3))
    assert main(["presheaf", "decompose", "--site", "finsetinj", f]) == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_shipped_sample_payloads_stay_valid(capsys):
    assert main(["presheaf", "decompose", str(DATA / "unordered.json")]) == 0
    assert capsys.readouterr().out == '[["2","Sym2"],["1","triv"]]\n'
    assert main(["coeq", str(DATA / "pt0.json"), str(DATA / "pt1.json")]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == ["0", "triv"]
    assert main(["tree", "stats", str(DATA / "tail_i.json")]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == [1, 0]


@pytest.mark.parametrize("command", [["tree", "stats"], ["tree", "regmono"],
                                     ["presheaf", "selfint"],
                                     ["presheaf", "computek"]])
@pytest.mark.parametrize("payload", [[], [1, 2], [{"size": 2}]])
def test_payloads_that_are_not_objects_are_usage_errors(tmp_path, capsys,
                                                        command, payload):
    f = _write(tmp_path, "bad.json", payload)
    assert main(command + [f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [["audit", "--condition", "c1", "--site",
                                    "finsetinj", "--bound", "-3"],
                                   ["audit", "--condition", "c4", "--site",
                                    "itree", "--bound", "x"],
                                   ["presheaf", "selfint", "--depth", "-5",
                                    str(DATA / "root_in_t3.json")]])
def test_negative_budgets_are_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(flags)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_zero_budget_is_accepted(capsys):
    assert main(["audit", "--condition", "c4", "--site", "finsetinj",
                 "--bound", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["instances"] == 1


@pytest.mark.parametrize("command", ["stats", "validate"])
def test_tree_only_commands_reject_set_payloads(tmp_path, capsys, command):
    f = _write(tmp_path, "two.json", encode_object(FinSet(2)))
    assert main(["tree", command, "--site", "finsetinj", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tree payload" in captured.err


def test_generic_tree_commands_still_take_sets(tmp_path, capsys):
    f = _write(tmp_path, "two.json", encode_object(FinSet(2)))
    assert main(["tree", "embeddings", "--site", "finsetinj", f, f]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


@pytest.mark.parametrize("command, payload", [
    (["atoms", "compose"], {"f": "source target rep", "g": 1}),
    (["atoms", "compose"], {"f": {"source": "base", "target": {}, "rep": {}},
                            "g": {}}),
    (["presheaf", "localiso"], {"source": "base", "target": {}, "rep": {}}),
    (["presheaf", "decompose"], {"objects": [{"size": 1}],
                                 "elements": ["x"], "action": {}}),
    (["presheaf", "decompose"], {"objects": 5, "elements": {},
                                 "action": {}}),
    (["presheaf", "decompose"], {"objects": [{"size": 1}],
                                 "elements": {"1": ["x"]},
                                 "action": {"1>1:0": [False]}}),
    (["atoms", "make"], {"base": {"size": True}}),
    (["presheaf", "selfint"], {"dom": 1, "cod": 1, "map": ["0"]}),
    (["presheaf", "selfint"], {"dom": 1, "cod": True, "map": [0]}),
    (["presheaf", "selfint"], {"dom": 1, "cod": 2, "map": [False]}),
    (["atoms", "make"], {"base": {"size": 2}, "generators": 5}),
])
def test_mistyped_payload_fields_are_usage_errors(tmp_path, capsys, command,
                                                  payload):
    f = _write(tmp_path, "bad.json", payload)
    assert main(command + [f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_tree_validate_exit_codes(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    for path in (str(tmp_path / "missing.json"), str(garbled)):
        assert main(["tree", "validate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    bogus = _write(tmp_path, "bogus.json",
                   {"root": 0, "nodes": [{"id": 0, "kind": "bogus"}]})
    assert main(["tree", "validate", bogus]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "valid": False, "reason": "node 0 has unknown kind 'bogus'"}


def _leaf_in_t3(**fields):
    payload = encode_morphism(enumerate_embeddings(T1, T3)[0])
    payload.update(fields)
    return payload


@pytest.mark.parametrize("command, payload", [
    (["tree", "stats"], {"root": 0, "nodes": [5]}),
    (["tree", "stats"], {"root": 0, "nodes": [{"id": [1], "kind": "leaf"}]}),
    (["tree", "stats"], {"root": 0, "nodes": [
        {"id": 0, "kind": "internal", "children": [[1], 2]},
        {"id": 1, "kind": "leaf"}, {"id": 2, "kind": "leaf"}]}),
    (["tree", "regmono"], _leaf_in_t3(explicit_images={"x": ["n", 0]})),
    (["tree", "regmono"], _leaf_in_t3(explicit_images=[["n", 0]])),
    (["tree", "regmono"], _leaf_in_t3(tail_routes={"0": 5})),
    (["tree", "regmono"], _leaf_in_t3(explicit_images={"0": ["n", [0]]})),
    (["tree", "regmono"], _leaf_in_t3(source="nodes root")),
    (["tree", "regmono"], _leaf_in_t3(explicit_images={"0": ["n", 0, 5, 6]})),
])
def test_misshapen_tree_payloads_are_usage_errors(tmp_path, capsys, command,
                                                  payload):
    f = _write(tmp_path, "bad.json", payload)
    assert main(command + [f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_trees_deeper_than_the_limit_are_usage_errors(tmp_path, capsys,
                                                      command):
    # 2,000 internal nodes in a chain, each over a leaf: 4,001 nodes.
    n = 2000
    nodes = [{"id": k, "kind": "internal",
              "children": [n + k, k + 1 if k + 1 < n else 2 * n]}
             for k in range(n)]
    nodes += [{"id": n + k, "kind": "leaf"} for k in range(n + 1)]
    f = _write(tmp_path, "chain.json", {"root": 0, "nodes": nodes})
    assert main(["tree", command, f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree is deeper than 256 levels\n"


def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("planted\nfault")

    monkeypatch.setattr(cli, "run_audit", broken)
    assert main(["audit", "--condition", "c3", "--site", "itree"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: planted fault\n"


# ---------------------------------------------------------------------------
# each command's success path prints the payload of the library calls

def _data(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def _expect(capsys, argv, payload, code=0):
    assert main(argv) == code
    assert capsys.readouterr().out == canonical_json(payload) + "\n"


def _verdict(verdict, **fields):
    return {**fields, "status": verdict.status, "witness": verdict.witness,
            "depth": verdict.depth_used}


ROOT_IN_T3 = str(DATA / "root_in_t3.json")
T3_MOD_AUT = str(DATA / "t3_mod_aut.json")
UNORDERED = str(DATA / "unordered.json")
SWAP = make_injection(2, 2, (1, 0))
ORDERED_2 = make_atom(FinSet(2))
UNORDERED_2 = make_atom(FinSet(2), (SWAP,))


def _atom_map_payload(m):
    return {"source": encode_atom(m.source), "target": encode_atom(m.target),
            "rep": encode_morphism(m.rep)}


def test_tree_validate_accepts_a_valid_tree(capsys):
    t = decode_object(_data("t3.json"))
    stats = tree_stats(t)
    _expect(capsys, ["tree", "validate", str(DATA / "t3.json")],
            {"valid": True, "key": object_key(t),
             "branch_count": stats.branch_count, "f_count": stats.f_count})


def test_tree_amalgamate(tmp_path, capsys):
    f = decode_morphism(_data("root_in_t3.json"))
    g = enumerate_embeddings(T1, build(tail("i")))[0]
    cone = amalgamate(Span(f, g))
    _expect(capsys, ["tree", "amalgamate", ROOT_IN_T3,
                     _write(tmp_path, "g.json", encode_morphism(g))],
            {"object": object_key(cone.obj),
             "from_left": morphism_key(cone.from_left),
             "from_right": morphism_key(cone.from_right)})


def test_tree_pullback(tmp_path, capsys):
    f = decode_morphism(_data("root_in_t3.json"))
    g = enumerate_embeddings(T3, T3)[1]
    square = pullback(f, g)
    _expect(capsys, ["tree", "pullback", ROOT_IN_T3,
                     _write(tmp_path, "g.json", encode_morphism(g))],
            {"apex": object_key(square.apex),
             "to_left": morphism_key(square.to_left),
             "to_right": morphism_key(square.to_right)})


def test_tree_regmono(capsys):
    m = decode_morphism(_data("root_in_t3.json"))
    verdict = _regular_mono_row(m)
    assert verdict.status == "pass"
    _expect(capsys, ["tree", "regmono", ROOT_IN_T3],
            _verdict(verdict, mono=morphism_key(m)))


def _perfect(depth):
    return leaf() if depth == 0 else node(_perfect(depth - 1),
                                          _perfect(depth - 1))


def test_tree_regmono_on_the_identity_of_a_large_tree(tmp_path, capsys,
                                                     monkeypatch):
    """The perfect binary tree of depth 5 has 63 nodes and 2^31
    automorphisms: its equalizer inclusion is compared with the identity
    without a scan of the embeddings between them."""
    def refuse(*_args):
        raise AssertionError("enumerate_embeddings called")

    monkeypatch.setattr(itree, "enumerate_embeddings", refuse)
    m = identity(build(_perfect(5)))
    f = _write(tmp_path, "id.json", encode_morphism(m))
    verdict = _regular_mono_row(m)
    assert verdict.status == "pass"
    _expect(capsys, ["tree", "regmono", f],
            _verdict(verdict, mono=morphism_key(m)))


def test_tree_c2prime_on_a_zigzag(tmp_path, capsys):
    z = build(node(tail("i"), node(leaf(), leaf())))
    target = build(node(tail("i"), node(tail("i"), tail("i"))))
    f = next(m for m in hom_set(build(tail("i")), z)
             if morphism_key(m) == "T(i)>(T(i) (L L)):0:0,0|0>1")
    g = hom_set(build(node(leaf(), node(leaf(), leaf()))), z)[0]
    u, v = (m for m in hom_set(z, target) if morphism_key(m) in (
        "(T(i) (L L))>(T(i) (T(i) T(i))):"
        "0:0,0;1:0,2;2:0,1;3:1,1,1,0;4:1,1,1,1|1>3",
        "(T(i) (L L))>(T(i) (T(i) T(i))):"
        "0:0,0;1:0,2;2:0,1;3:1,1,1,1;4:1,1,1,0|1>4"))
    square = pullback(f, g)
    w, chain = c2prime_chain(square, u, v)
    assert len(chain) == 3 and verify_chain(square, u, v, w, chain)
    files = [_write(tmp_path, "%s.json" % name, encode_morphism(m))
             for name, m in zip("fguv", (f, g, u, v))]
    _expect(capsys, ["tree", "c2prime"] + files,
            {"verified": True, "chain_length": 3, "w": morphism_key(w),
             "chain": [morphism_key(k) for k in chain],
             "target": object_key(w.cod)})


def test_atoms_make(capsys):
    atom = decode_atom(_data("t3_mod_aut.json"))
    _expect(capsys, ["atoms", "make", T3_MOD_AUT],
            {"atom": atom.describe(), "group_order": atom.group.order,
             "aut_order": aut_group(atom.base).order})


def test_atoms_compose(tmp_path, capsys):
    f = atom_hom(make_atom(FinSet(3)), ORDERED_2)[2]
    g = atom_hom(ORDERED_2, UNORDERED_2)[0]
    h = atom_compose(f, g)
    path = _write(tmp_path, "fg.json", {"f": _atom_map_payload(f),
                                        "g": _atom_map_payload(g)})
    _expect(capsys, ["atoms", "compose", "--site", "finsetinj", path],
            {"source": h.source.describe(), "target": h.target.describe(),
             "rep": morphism_key(h.rep), "variant": h.variant})


def test_atoms_iso_exits_zero_on_isomorphic_atoms(capsys):
    atom = decode_atom(_data("t3_mod_aut.json"))
    fwd, back = atom_iso_formal(atom, atom, "derived")
    _expect(capsys, ["atoms", "iso", T3_MOD_AUT, T3_MOD_AUT],
            {"isomorphic": True, "forward": morphism_key(fwd.rep),
             "backward": morphism_key(back.rep)})


def test_atoms_iso_exits_one_on_other_atoms(tmp_path, capsys):
    assert atom_iso_formal(ORDERED_2, UNORDERED_2, "derived") is None
    _expect(capsys, ["atoms", "iso",
                     _write(tmp_path, "a.json", encode_atom(ORDERED_2)),
                     _write(tmp_path, "b.json", encode_atom(UNORDERED_2))],
            {"isomorphic": False, "a": ORDERED_2.describe(),
             "b": UNORDERED_2.describe()}, 1)


def test_atoms_quotient(capsys):
    atom = decode_atom(_data("t3_mod_aut.json"))
    src = make_atom(atom.base, ())
    _expect(capsys, ["atoms", "quotient", T3_MOD_AUT],
            {"source": src.describe(), "target": atom.describe(),
             "rep": morphism_key(identity(atom.base)), "variant": "derived"})


def test_presheaf_support(capsys):
    frag = decode_fragment(_data("unordered.json"))
    y, m, name = support_element(frag, frag.object_for("2"), "{0}")
    _expect(capsys, ["presheaf", "support", UNORDERED, "2", "{0}"],
            {"object": object_key(y), "mono": morphism_key(m),
             "preimage": name, "full": object_key(y) == "2"})


def test_presheaf_stabilizer(capsys):
    frag = decode_fragment(_data("unordered.json"))
    grp = stabilizer(frag, frag.object_for("2"), "{0,1}")
    assert grp.order == 2
    _expect(capsys, ["presheaf", "stabilizer", UNORDERED, "2", "{0,1}"],
            {"order": grp.order, "group": "Sym2",
             "elements": [morphism_key(s) for s in grp.elements]})


def test_presheaf_selfint(capsys):
    m = decode_morphism(_data("root_in_t3.json"))
    verdict = self_intersection_check(m, 2)
    assert verdict.status == "fail"
    _expect(capsys, ["presheaf", "selfint", "--depth", "2", ROOT_IN_T3],
            _verdict(verdict), 1)


def test_presheaf_localiso(tmp_path, capsys):
    m = atom_hom(make_atom(FinSet(3)), ORDERED_2)[2]
    verdict = local_iso_check(m, backend("finsetinj").objects_up_to(2), 3)
    assert verdict.status == "pass"
    _expect(capsys, ["presheaf", "localiso", "--site", "finsetinj",
                     _write(tmp_path, "m.json", _atom_map_payload(m))],
            _verdict(verdict))
