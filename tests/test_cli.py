"""Command-line surface: JSON-only standard output, deterministic bytes,
and the documented exit-code policy (0 pass, 1 fail verdict, 2 usage,
3 internal error)."""

import json
import pathlib

import pytest

from atomkit import (
    FinSet,
    aut_group,
    build,
    encode_atom,
    encode_fragment,
    encode_morphism,
    encode_object,
    enumerate_embeddings,
    leaf,
    make_atom,
    make_injection,
    node,
    unordered_pairs_fragment,
)
from atomkit import cli
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
