"""Command-line front end.

One JSON object (or array) per invocation on standard output,
diagnostics on standard error.  Exit status: 0 for success or a pass
verdict, 1 for a fail or unknown verdict, 2 for unusable input, 3 for
an internal error (any other exception, reported on one line of
standard error without a traceback).

Each command is one row of the table in build_parser: its words, its
run function and its positional inputs, each with the reader that
decodes it.  main decodes the inputs in the listed order, so the first
unusable input is the one reported (exit 2), then calls
run(args, *inputs), which returns (payload, exit status), and emits the
payload once.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import (AtomMap, atom_compose, atom_hom, atom_iso_formal,
                    coequalize_representables, decode_atom, make_atom)
from .audit import AUDITS, _regular_mono_row, c2prime_chain, verify_chain
from .core import (BACKENDS, SiteError, amalgamate, aut_group, canonical_json,
                   decode_morphism, decode_object, group_name, hom_set,
                   identity, morphism_key, object_key, pullback)
from .itree import FinitaryTree, TreeTooDeep, tree_stats
from .presheaf import (compute_K, decode_fragment, decompose, local_iso_check,
                       object_pool, self_intersection_check,
                       sheaf_check_quotient, stabilizer, support_element)


def _emit(data, args) -> None:
    """Write --out first, so a path that cannot be written exits 2 with
    nothing on stdout."""
    text = canonical_json(data)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SiteError("cannot write %s: %s"
                            % (args.out, exc.strerror)) from exc
    print(text)


# ---------------------------------------------------------------------------
# input readers: reader(text, args) decodes one positional input

def _load(path: str, args=None) -> dict:
    """The raw payload: the JSON object a file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SiteError("cannot read %s: %s" % (path, exc.strerror)) from exc
    except json.JSONDecodeError as exc:
        raise SiteError("%s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise SiteError("%s does not hold a JSON object" % path)
    return data


def _object(path: str, args):
    return decode_object(_load(path), args.site)


def _morphism(path: str, args):
    return decode_morphism(_load(path), args.site)


def _atom(path: str, args):
    return decode_atom(_load(path), args.site)


def _fragment(path: str, args):
    return decode_fragment(_load(path))


def _atom_map(path: str, args) -> AtomMap:
    return _decode_atom_map(_load(path), args.site, args.variant)


def _text(text: str, args) -> str:
    return text


def _decode_atom_map(payload: dict, site: str, variant: str) -> AtomMap:
    if not isinstance(payload, dict):
        raise SiteError("atom map payload must be a JSON object")
    for fieldname in ("source", "target", "rep"):
        if fieldname not in payload:
            raise SiteError("atom map payload needs a %r field" % fieldname)
        if not isinstance(payload[fieldname], dict):
            raise SiteError("atom map field %r must be a JSON object"
                            % fieldname)
    source = decode_atom(payload["source"], site)
    target = decode_atom(payload["target"], site)
    rep = decode_morphism(payload["rep"], source.site)
    return AtomMap(source, target, rep, payload.get("variant", variant))


def _verdict(verdict, **fields) -> tuple:
    return ({**fields, "status": verdict.status, "witness": verdict.witness,
             "depth": verdict.depth_used},
            0 if verdict.status == "pass" else 1)


# ---------------------------------------------------------------------------
# tree subcommands (validate and stats need a tree; the rest are generic)

def _tree_stats(t):
    if not isinstance(t, FinitaryTree):
        raise SiteError("this command needs a tree payload, not a %s object"
                        % t.site)
    return tree_stats(t)


def run_tree_validate(args, data) -> tuple:
    try:
        t = decode_object(data, args.site)
    except TreeTooDeep:
        raise
    except SiteError as exc:
        return {"valid": False, "reason": str(exc)}, 1
    stats = _tree_stats(t)
    return {"valid": True, "key": object_key(t),
            "branch_count": stats.branch_count, "f_count": stats.f_count}, 0


def run_tree_stats(args, t) -> tuple:
    stats = _tree_stats(t)
    return {"key": object_key(t), "branch_count": stats.branch_count,
            "f_count": stats.f_count, "rank": list(stats),
            "aut_order": aut_group(t).order}, 0


def run_tree_embeddings(args, a, b) -> tuple:
    homs = hom_set(a, b)
    return {"count": len(homs),
            "embeddings": [morphism_key(f) for f in homs]}, 0


def run_tree_amalgamate(args, f, g) -> tuple:
    cone = amalgamate(f, g)
    return {"object": object_key(cone.obj),
            "from_left": morphism_key(cone.from_left),
            "from_right": morphism_key(cone.from_right)}, 0


def run_tree_pullback(args, f, g) -> tuple:
    square = pullback(f, g)
    return {"apex": object_key(square.apex),
            "to_left": morphism_key(square.to_left),
            "to_right": morphism_key(square.to_right)}, 0


def run_tree_regmono(args, m) -> tuple:
    return _verdict(_regular_mono_row(m), mono=morphism_key(m))


def run_tree_c2prime(args, f, g, u, v) -> tuple:
    square = pullback(f, g)
    w, chain = c2prime_chain(square, u, v)
    good = verify_chain(square, u, v, w, chain)
    return {"verified": good, "chain_length": len(chain),
            "w": morphism_key(w), "chain": [morphism_key(k) for k in chain],
            "target": object_key(w.cod)}, 0 if good else 1


# ---------------------------------------------------------------------------
# atoms subcommands

def run_atoms_make(args, atom) -> tuple:
    return {"atom": atom.describe(), "group_order": atom.group.order,
            "aut_order": aut_group(atom.base).order}, 0


def run_atoms_hom(args, a, b) -> tuple:
    maps = atom_hom(a, b, args.variant)
    return {"count": len(maps), "variant": args.variant,
            "reps": [morphism_key(m.rep) for m in maps]}, 0


def run_atoms_compose(args, payload) -> tuple:
    for fieldname in ("f", "g"):
        if fieldname not in payload:
            raise SiteError("composition payload needs a %r field" % fieldname)
    f = _decode_atom_map(payload["f"], args.site, args.variant)
    g = _decode_atom_map(payload["g"], args.site, args.variant)
    h = atom_compose(f, g)
    return {"source": h.source.describe(), "target": h.target.describe(),
            "rep": morphism_key(h.rep), "variant": h.variant}, 0


def run_atoms_iso(args, a, b) -> tuple:
    pair = atom_iso_formal(a, b, args.variant)
    if pair is None:
        return {"isomorphic": False, "a": a.describe(), "b": b.describe()}, 1
    fwd, back = pair
    return {"isomorphic": True, "forward": morphism_key(fwd.rep),
            "backward": morphism_key(back.rep)}, 0


def run_atoms_quotient(args, atom) -> tuple:
    src = make_atom(atom.base, ())
    quo = AtomMap(src, atom, identity(atom.base), args.variant)
    return {"source": src.describe(), "target": atom.describe(),
            "rep": morphism_key(quo.rep), "variant": quo.variant}, 0


# ---------------------------------------------------------------------------
# coequalizer

def run_coeq(args, alpha, beta) -> tuple:
    trace = coequalize_representables(alpha, beta)
    return {"pullback_steps": len(trace.steps),
            "apexes": [object_key(s.apex) for s in trace.steps],
            "result": trace.result.describe(),
            "sigma": morphism_key(trace.sigma),
            "quotient_rep": morphism_key(trace.quotient_rep)}, 0


# ---------------------------------------------------------------------------
# presheaf subcommands

def run_presheaf_support(args, frag, obj, element) -> tuple:
    y, m, name = support_element(frag, frag.object_for(obj), element)
    return {"object": object_key(y), "mono": morphism_key(m),
            "preimage": name, "full": object_key(y) == obj}, 0


def run_presheaf_stabilizer(args, frag, obj, element) -> tuple:
    grp = stabilizer(frag, frag.object_for(obj), element)
    return {"order": grp.order, "group": group_name(grp),
            "elements": [morphism_key(s) for s in grp.elements]}, 0


def run_presheaf_decompose(args, frag) -> tuple:
    return decompose(frag).describe(), 0


def run_presheaf_sheafcheck(args, atom, cover) -> tuple:
    return _verdict(sheaf_check_quotient(atom, cover, args.depth))


def run_presheaf_selfint(args, m) -> tuple:
    return _verdict(self_intersection_check(m, args.depth))


def run_presheaf_computek(args, m) -> tuple:
    res = compute_K(m, args.depth)
    return _verdict(res.verdict, k=object_key(res.k), j=morphism_key(res.j),
                    unit=morphism_key(res.unit), group=group_name(res.group),
                    group_order=res.group.order,
                    pullback_steps=len(res.steps))


def run_presheaf_localiso(args, m) -> tuple:
    context = object_pool(m.source.site, args.bound)
    return _verdict(local_iso_check(m, context, args.depth))


# ---------------------------------------------------------------------------
# audit

def run_audit(args) -> tuple:
    if args.site is None:
        raise SiteError("audit needs an explicit --site")
    report = AUDITS[args.condition](args.site, args.bound)
    return report.to_json(), 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser and dispatcher

def _natural(text: str) -> int:
    """argparse type for budgets: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


GROUP_HELP = {"tree": "tree objects and embeddings",
              "atoms": "formal atoms and their maps",
              "coeq": "coequalize a parallel pair",
              "presheaf": "fragments and checkers",
              "audit": "site condition audits"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomkit",
        description="atoms, presheaf fragments and site audits on two sites")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    legs = (("left", _morphism), ("right", _morphism))
    element = (("fragment", _fragment), ("object", _text), ("element", _text))
    for words, run, inputs in (
            (("tree", "validate"), run_tree_validate, (("file", _load),)),
            (("tree", "stats"), run_tree_stats, (("file", _object),)),
            (("tree", "embeddings"), run_tree_embeddings,
             (("dom", _object), ("cod", _object))),
            (("tree", "amalgamate"), run_tree_amalgamate, legs),
            (("tree", "pullback"), run_tree_pullback, legs),
            (("tree", "regmono"), run_tree_regmono, (("file", _morphism),)),
            (("tree", "c2prime"), run_tree_c2prime,
             legs + (("u", _morphism), ("v", _morphism))),
            (("atoms", "make"), run_atoms_make, (("file", _atom),)),
            (("atoms", "hom"), run_atoms_hom,
             (("source", _atom), ("target", _atom))),
            (("atoms", "compose"), run_atoms_compose, (("file", _load),)),
            (("atoms", "iso"), run_atoms_iso,
             (("source", _atom), ("target", _atom))),
            (("atoms", "quotient"), run_atoms_quotient, (("file", _atom),)),
            (("coeq",), run_coeq,
             (("alpha", _morphism), ("beta", _morphism))),
            (("presheaf", "support"), run_presheaf_support, element),
            (("presheaf", "stabilizer"), run_presheaf_stabilizer, element),
            (("presheaf", "decompose"), run_presheaf_decompose,
             (("fragment", _fragment),)),
            (("presheaf", "sheafcheck"), run_presheaf_sheafcheck,
             (("atom", _atom), ("cover", _morphism))),
            (("presheaf", "selfint"), run_presheaf_selfint,
             (("file", _morphism),)),
            (("presheaf", "computek"), run_presheaf_computek,
             (("file", _morphism),)),
            (("presheaf", "localiso"), run_presheaf_localiso,
             (("file", _atom_map),)),
            (("audit",), run_audit, ())):
        top = words[0]
        if len(words) == 1:
            p = sub.add_parser(top, help=GROUP_HELP[top])
        else:
            if top not in groups:
                group = sub.add_parser(top, help=GROUP_HELP[top])
                groups[top] = group.add_subparsers(dest="sub", required=True)
            p = groups[top].add_parser(words[1])
        for name, _read in inputs:
            p.add_argument(name)
        if top == "audit":
            p.add_argument("--condition", choices=sorted(AUDITS),
                           required=True)
        p.add_argument("--site", choices=sorted(BACKENDS),
                       default="itree" if top == "tree" else None)
        p.add_argument("--depth", type=_natural, default=3)
        p.add_argument("--bound", type=_natural, default=2)
        p.add_argument("--variant", choices=("derived", "paper"),
                       default="derived")
        p.add_argument("--out", default=None)
        p.set_defaults(run=run, inputs=inputs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs = [read(getattr(args, name), args)
                  for name, read in args.inputs]
        payload, status = args.run(args, *inputs)
        _emit(payload, args)
        return status
    except SiteError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except KeyError as exc:
        print("error: missing field %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__,
                                          " ".join(str(exc).splitlines())),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
