"""Command-line front end.

One JSON object (or array) per invocation on standard output,
diagnostics on standard error.  Exit status: 0 for success or a pass
verdict, 1 for a fail or unknown verdict, 2 for unusable input, 3 for
an internal error (any other exception, reported on one line of
standard error without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .atoms import (AtomMap, FormalAtom, atom_compose, atom_hom,
                    atom_iso_formal, coequalize_representables, decode_atom,
                    make_atom)
from .audit import AUDITS, _regular_mono_row, c2prime_chain, verify_chain
from .core import (BACKENDS, SiteError, Span, amalgamate, aut_group, backend,
                   canonical_json, decode_morphism, decode_object, group_name,
                   hom_set, identity, morphism_key, object_key, pullback)
from .itree import FinitaryTree, TreeTooDeep, tree_stats
from .presheaf import (compute_K, decode_fragment, decompose, local_iso_check,
                       self_intersection_check, sheaf_check_quotient,
                       stabilizer, support_element)


def _load(path: str) -> dict:
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


def _emit(data, args) -> None:
    text = canonical_json(data)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _object(path: str, site: str):
    return decode_object(_load(path), site)


def _morphism(path: str, site: str):
    return decode_morphism(_load(path), site)


def _verdict_payload(verdict) -> dict:
    return {"status": verdict.status, "witness": verdict.witness,
            "depth": verdict.depth_used}


def _verdict_exit(verdict) -> int:
    return 0 if verdict.status == "pass" else 1


# ---------------------------------------------------------------------------
# tree subcommands (validate and stats need a tree; the rest are generic)

def _tree_stats(t):
    if not isinstance(t, FinitaryTree):
        raise SiteError("this command needs a tree payload, not a %s object"
                        % t.site)
    return tree_stats(t)


def run_tree_validate(args) -> int:
    data = _load(args.file)
    try:
        t = decode_object(data, args.site)
    except TreeTooDeep:
        raise
    except SiteError as exc:
        _emit({"valid": False, "reason": str(exc)}, args)
        return 1
    stats = _tree_stats(t)
    _emit({"valid": True, "key": object_key(t),
           "branch_count": stats.branch_count, "f_count": stats.f_count},
          args)
    return 0


def run_tree_stats(args) -> int:
    t = _object(args.file, args.site)
    stats = _tree_stats(t)
    _emit({"key": object_key(t), "branch_count": stats.branch_count,
           "f_count": stats.f_count, "rank": list(stats.rank.components),
           "aut_order": aut_group(t).order}, args)
    return 0


def run_tree_embeddings(args) -> int:
    a = _object(args.dom, args.site)
    b = _object(args.cod, args.site)
    homs = hom_set(a, b)
    _emit({"count": len(homs), "embeddings": [morphism_key(f) for f in homs]},
          args)
    return 0


def run_tree_amalgamate(args) -> int:
    f = _morphism(args.left, args.site)
    g = _morphism(args.right, args.site)
    cone = amalgamate(Span(f, g))
    _emit({"object": object_key(cone.obj),
           "from_left": morphism_key(cone.from_left),
           "from_right": morphism_key(cone.from_right)}, args)
    return 0


def run_tree_pullback(args) -> int:
    f = _morphism(args.left, args.site)
    g = _morphism(args.right, args.site)
    square = pullback(f, g)
    _emit({"apex": object_key(square.apex),
           "to_left": morphism_key(square.to_left),
           "to_right": morphism_key(square.to_right)}, args)
    return 0


def run_tree_regmono(args) -> int:
    m = _morphism(args.file, args.site)
    verdict = _regular_mono_row(m)
    _emit({"mono": morphism_key(m), **_verdict_payload(verdict)}, args)
    return _verdict_exit(verdict)


def run_tree_c2prime(args) -> int:
    f = _morphism(args.left, args.site)
    g = _morphism(args.right, args.site)
    u = _morphism(args.u, args.site)
    v = _morphism(args.v, args.site)
    square = pullback(f, g)
    w, chain = c2prime_chain(square, u, v)
    good = verify_chain(square, u, v, w, chain)
    _emit({"verified": good, "chain_length": len(chain),
           "w": morphism_key(w), "chain": [morphism_key(k) for k in chain],
           "target": object_key(w.cod)}, args)
    return 0 if good else 1


# ---------------------------------------------------------------------------
# atoms subcommands

def _atom(path: str, site: str) -> FormalAtom:
    return decode_atom(_load(path), site)


def run_atoms_make(args) -> int:
    atom = _atom(args.file, args.site)
    _emit({"atom": atom.describe(), "group_order": atom.group.order,
           "aut_order": aut_group(atom.base).order}, args)
    return 0


def run_atoms_hom(args) -> int:
    a = _atom(args.source, args.site)
    b = _atom(args.target, args.site)
    maps = atom_hom(a, b, args.variant)
    _emit({"count": len(maps), "variant": args.variant,
           "reps": [morphism_key(m.rep) for m in maps]}, args)
    return 0


def run_atoms_compose(args) -> int:
    payload = _load(args.file)
    for fieldname in ("f", "g"):
        if fieldname not in payload:
            raise SiteError("composition payload needs a %r field" % fieldname)
    f = _decode_atom_map(payload["f"], args.site, args.variant)
    g = _decode_atom_map(payload["g"], args.site, args.variant)
    h = atom_compose(f, g)
    _emit({"source": h.source.describe(), "target": h.target.describe(),
           "rep": morphism_key(h.rep), "variant": h.variant}, args)
    return 0


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


def run_atoms_iso(args) -> int:
    a = _atom(args.source, args.site)
    b = _atom(args.target, args.site)
    pair = atom_iso_formal(a, b, args.variant)
    if pair is None:
        _emit({"isomorphic": False, "a": a.describe(), "b": b.describe()},
              args)
        return 1
    fwd, back = pair
    _emit({"isomorphic": True, "forward": morphism_key(fwd.rep),
           "backward": morphism_key(back.rep)}, args)
    return 0


def run_atoms_quotient(args) -> int:
    atom = _atom(args.file, args.site)
    src = make_atom(atom.base, ())
    quo = AtomMap(src, atom, identity(atom.base), args.variant)
    _emit({"source": src.describe(), "target": atom.describe(),
           "rep": morphism_key(quo.rep), "variant": quo.variant}, args)
    return 0


# ---------------------------------------------------------------------------
# coequalizer

def run_coeq(args) -> int:
    alpha = _morphism(args.alpha, args.site)
    beta = _morphism(args.beta, args.site)
    trace = coequalize_representables(alpha, beta)
    _emit({"pullback_steps": len(trace.steps),
           "apexes": [object_key(s.apex) for s in trace.steps],
           "result": trace.result.describe(),
           "sigma": morphism_key(trace.sigma),
           "quotient_rep": morphism_key(trace.quotient_rep)}, args)
    return 0


# ---------------------------------------------------------------------------
# presheaf subcommands

def run_presheaf_support(args) -> int:
    frag = decode_fragment(_load(args.fragment))
    x = frag.object_for(args.object)
    y, m, name = support_element(frag, x, args.element)
    _emit({"object": object_key(y), "mono": morphism_key(m),
           "preimage": name, "full": object_key(y) == args.object}, args)
    return 0


def run_presheaf_stabilizer(args) -> int:
    frag = decode_fragment(_load(args.fragment))
    x = frag.object_for(args.object)
    grp = stabilizer(frag, x, args.element)
    _emit({"order": grp.order, "group": group_name(grp),
           "elements": [morphism_key(s) for s in grp.elements]}, args)
    return 0


def run_presheaf_decompose(args) -> int:
    frag = decode_fragment(_load(args.fragment))
    _emit(decompose(frag).describe(), args)
    return 0


def run_presheaf_sheafcheck(args) -> int:
    atom = _atom(args.atom, args.site)
    cover = _morphism(args.cover, args.site)
    verdict = sheaf_check_quotient(atom, cover, args.depth)
    _emit(_verdict_payload(verdict), args)
    return _verdict_exit(verdict)


def run_presheaf_selfint(args) -> int:
    m = _morphism(args.file, args.site)
    verdict = self_intersection_check(m, args.depth)
    _emit(_verdict_payload(verdict), args)
    return _verdict_exit(verdict)


def run_presheaf_computek(args) -> int:
    m = _morphism(args.file, args.site)
    res = compute_K(m, args.depth)
    _emit({"k": object_key(res.k), "j": morphism_key(res.j),
           "unit": morphism_key(res.unit), "group": group_name(res.group),
           "group_order": res.group.order, "pullback_steps": len(res.steps),
           **_verdict_payload(res.verdict)}, args)
    return _verdict_exit(res.verdict)


def run_presheaf_localiso(args) -> int:
    payload = _load(args.file)
    m = _decode_atom_map(payload, args.site, args.variant)
    context = backend(m.source.site).objects_up_to(args.bound)
    verdict = local_iso_check(m, context, args.depth)
    _emit(_verdict_payload(verdict), args)
    return _verdict_exit(verdict)


# ---------------------------------------------------------------------------
# audit

def run_audit(args) -> int:
    if args.site is None:
        raise SiteError("audit needs an explicit --site")
    report = AUDITS[args.condition](args.site, args.bound)
    _emit(report.to_json(), args)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser

def _natural(text: str) -> int:
    """argparse type for budgets: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


def _add_common(p, site_default: str | None = None) -> None:
    p.add_argument("--site", choices=sorted(BACKENDS), default=site_default)
    p.add_argument("--depth", type=_natural, default=3)
    p.add_argument("--bound", type=_natural, default=2)
    p.add_argument("--variant", choices=("derived", "paper"),
                   default="derived")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomkit",
        description="atoms, presheaf fragments and site audits on two sites")
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="tree objects and embeddings")
    tsub = tree.add_subparsers(dest="sub", required=True)
    for name, run, files in (
            ("validate", run_tree_validate, ("file",)),
            ("stats", run_tree_stats, ("file",)),
            ("embeddings", run_tree_embeddings, ("dom", "cod")),
            ("amalgamate", run_tree_amalgamate, ("left", "right")),
            ("pullback", run_tree_pullback, ("left", "right")),
            ("regmono", run_tree_regmono, ("file",)),
            ("c2prime", run_tree_c2prime, ("left", "right", "u", "v"))):
        p = tsub.add_parser(name)
        for f in files:
            p.add_argument(f)
        _add_common(p, site_default="itree")
        p.set_defaults(run=run)

    atoms = sub.add_parser("atoms", help="formal atoms and their maps")
    asub = atoms.add_subparsers(dest="sub", required=True)
    for name, run, files in (
            ("make", run_atoms_make, ("file",)),
            ("hom", run_atoms_hom, ("source", "target")),
            ("compose", run_atoms_compose, ("file",)),
            ("iso", run_atoms_iso, ("source", "target")),
            ("quotient", run_atoms_quotient, ("file",))):
        p = asub.add_parser(name)
        for f in files:
            p.add_argument(f)
        _add_common(p)
        p.set_defaults(run=run)

    coeq = sub.add_parser("coeq", help="coequalize a parallel pair")
    coeq.add_argument("alpha")
    coeq.add_argument("beta")
    _add_common(coeq)
    coeq.set_defaults(run=run_coeq)

    presheaf = sub.add_parser("presheaf", help="fragments and checkers")
    psub = presheaf.add_subparsers(dest="sub", required=True)
    for name, run, files in (
            ("support", run_presheaf_support,
             ("fragment", "object", "element")),
            ("stabilizer", run_presheaf_stabilizer,
             ("fragment", "object", "element")),
            ("decompose", run_presheaf_decompose, ("fragment",)),
            ("sheafcheck", run_presheaf_sheafcheck, ("atom", "cover")),
            ("selfint", run_presheaf_selfint, ("file",)),
            ("computek", run_presheaf_computek, ("file",)),
            ("localiso", run_presheaf_localiso, ("file",))):
        p = psub.add_parser(name)
        for f in files:
            p.add_argument(f)
        _add_common(p)
        p.set_defaults(run=run)

    audit = sub.add_parser("audit", help="site condition audits")
    audit.add_argument("--condition", choices=sorted(AUDITS), required=True)
    _add_common(audit)
    audit.set_defaults(run=run_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
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
