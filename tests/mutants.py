"""Planted faults, and a runner that checks that tier-1 kills each one.

Each fault is (file, exact old text, new text, rule broken).  For each
fault the runner copies the repository to a temporary directory, applies
the fault there, and runs tier-1 with -x.  It prints which test killed
the fault, or that it survived.  It exits non-zero on any survivor that
EQUIVALENT does not list, with a reason, as changing no behaviour; on
any fault whose old text no longer occurs exactly once; and when pytest
neither passes nor names a failing test.

Run from anywhere (pytest does not collect this file):

    python3 tests/mutants.py          # every fault
    python3 tests/mutants.py 1 7      # the faults with these numbers
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAULTS = [
    ("src/atomkit/itree.py",
     "        if None in images or None in targets.values():",
     "        if None in images:",
     "itree factor: w exists only when m routes a tail onto every tail "
     "that h routes to"),
    ("src/atomkit/audit.py",
     "                elif g in below[i]:\n"
     "                    meet = meets[j, i] = g",
     "                elif g in below[i]:\n"
     "                    meet = meets[j, i] = f",
     "C2' nested legs: when g factors through f, g is the meet"),
    ("src/atomkit/itree.py",
     "len(shared.tail_ids) == tails and",
     "len(shared.tail_ids) >= tails - 1 and",
     "tree pair bound: no pool covers a mono that leaves a tail free"),
    ("src/atomkit/presheaf.py",
     "    for y in frag._ranked:\n        for m in hom_set(y, x):",
     "    for y in reversed(frag._ranked):\n        for m in hom_set(y, x):",
     "support_element: the support is the least subobject in rank"),
    ("src/atomkit/finsetinj.py",
     "2 * tgt.size - shared.size <= depth + _top(seeds)",
     "2 * tgt.size - shared.size <= depth + 1 + _top(seeds)",
     "finsetinj pair bound: a pair restricts to 2|tgt| - |shared| points"),
    ("src/atomkit/itree.py",
     "2 * tgt.n_nodes - 1 + tails <= 2 * depth + 3",
     "2 * tgt.n_nodes - 2 + tails <= 2 * depth + 3",
     "tree pair bound, node clause: a pair restricts to 2e - 1 explicit "
     "nodes plus one per tail"),
    ("src/atomkit/itree.py",
     "and 2 * tails <= depth\n",
     "and 2 * tails <= depth + 1\n",
     "tree pair bound, tails clause: a pair restricts to twice the tails"),
    ("src/atomkit/core.py",
     '"        h = hash(%s)" % row("self", cls._compare)',
     '"        h = hash(%s)" % row("self", cls._compare[:-1])',
     "Value.__hash__ hashes every compared field"),
    ("src/atomkit/core.py",
     '            lines.append("    self._check()")',
     "            pass",
     "Value.__init__ calls the class's _check"),
    ("src/atomkit/core.py",
     '% (row("self", cls._compare), row("other", cls._compare))',
     '% (row("self", cls._fields), row("other", cls._fields))',
     "Value.__eq__ compares _compare, not every field"),
    ("src/atomkit/core.py",
     "                  \"        _setattr(self, '_hash', h)\",\n",
     "",
     "Value.__hash__ stores the hash it computes"),
    ("src/atomkit/audit.py",
     "cls = [first.setdefault(self.memo.compose(h, a), n)",
     "cls = [first.setdefault(a, n)",
     "C2' class tables: the class of a is that of the composite h;a"),
    ("src/atomkit/audit.py",
     "elif cf[n] == cf[k] or cg[n] == cg[k]:",
     "elif cf[n] == cf[k]:",
     "C2' length-2 shortcut: (u, v) links when it agrees on either leg"),
    ("src/atomkit/presheaf.py",
     "        if len(betas) == 1:\n            continue",
     "        if len(betas) <= 2:\n            continue",
     "compute_K: only a class that is alpha alone needs no test"),
    ("src/atomkit/presheaf.py",
     "if all(factor(jbeta, alpha) is not None for jbeta in jb):",
     "if any(factor(jbeta, alpha) is not None for jbeta in jb):",
     "compute_K: a class is skipped only when every j;beta factors"),
    ("src/atomkit/finsetinj.py",
     "tuple(map(m.map.index, h.map))",
     "tuple(m.map.index(v) if v in m.map else 0 for v in h.map)",
     "finsetinj factor: w exists only when m's image holds h's image"),
    ("src/atomkit/itree.py",
     "            xa = next((c for c in denoted_children(X, xa) or ()\n"
     "                       if emb.image(c) == za), None)",
     "            xa = next((c for c in denoted_children(X, xa) or ()),"
     " None)",
     "preimage_fn: a node's preimage is the child emb sends onto it"),
    ("src/atomkit/presheaf.py",
     "    if act:\n        raise SiteError(\"fragment action for unknown arrow",
     "    if False:\n        raise SiteError(\"fragment action for unknown arrow",
     "fragment_from_tables: an action key that names no listed arrow is "
     "refused"),
    ("src/atomkit/presheaf.py",
     "                row_fg = rows.get(compose(f, g))\n",
     "                row_fg = rows.get(compose(f, g)) if is_identity(g) "
     "else None\n",
     "fragment _check: functoriality looks up the row of every listed "
     "composite f;g"),
    ("src/atomkit/presheaf.py",
     "        yield from drawn\n",
     "",
     "_replayed: every call replays the items drawn so far"),
    ("src/atomkit/itree.py",
     "if tails <= max_tails and (size == 1 or nested[1] == INTERNAL)}",
     "if tails <= max_tails}",
     "enumerate_trees: a node over a tail and a leaf is not canonical"),
    ("src/atomkit/itree.py",
     "                out += ((cont, rel, 0), (off, rel, 1))",
     "                out += ((cont, rel, 1), (off, rel, 0))",
     "comb_layouts: side 0 is the comb's branch, side 1 its hanging leaf"),
    ("src/atomkit/itree.py",
     "        if kind == TAIL and ta is not None:\n"
     "            sa[ta] = fid\n",
     "        if kind == TAIL and ta is not None:\n",
     "_overlay: a tail emitted at a host comb records the host tail it "
     "routes along"),
    ("src/atomkit/itree.py",
     "                    for b in h.explicit_images]\n"
     "                and [(t, g.route(s)) for t, s, _e in self.tail_routes]\n"
     "                == [(t, k.route(s)) for t, s, _e in h.tail_routes])",
     "                    for b in h.explicit_images])",
     "TreeEmbedding.then_equals: equal composites route every tail alike"),
    ("src/atomkit/itree.py",
     "            if emb.image(xc[0]) != ch[0]:\n"
     "                xc = xc[::-1]\n",
     "",
     "regular_mono_witness: each child of p walks with the child of xp "
     "that emb sends onto it"),
    ("src/atomkit/audit.py",
     "                        verdict = passes.get(cocone)\n",
     "                        verdict = next(iter(passes.values()), None)\n",
     "C1 verdict sharing: span rows share a verdict only with rows of the "
     "same cocone key"),
    ("src/atomkit/audit.py",
     "length, good = 2, unit[n] and unit[k]",
     "length, good = 2, unit[n]",
     "C2' unit shortcut: a length-2 row needs u;id == u and v;id == v"),
    ("src/atomkit/presheaf.py",
     "    for x in reversed(frag._ranked):\n        names = frag.elements_at(x)",
     "    for x in frag._ranked:\n        names = frag.elements_at(x)",
     "decompose: atoms take their seats in descending rank order"),
    ("src/atomkit/itree.py",
     "        for t, other in ((a, b), (b, a)):",
     "        for t, other in ((a, b),):",
     "canonical_form (_nest): a node over a tail and a leaf collapses "
     "whichever child the tail is"),
    ("src/atomkit/itree.py",
     "        elif ch is None or e1.image(ch[0]) != e2.image(ch[0]):",
     "        elif ch is None or e1.image(p) != e2.image(p):",
     "equalizer_of: the descent compares a child, as the node it stands "
     "on already agrees"),
    ("src/atomkit/core.py",
     "    if (f.dom,) != (g.dom,):  # a tuple compares identity before __eq__\n"
     "        raise SiteError(\"span legs must share their domain\")\n",
     "",
     "amalgamate: the legs of a span share their domain"),
]

# rule -> why the fault changes no behaviour; a fault listed here may
# survive.  Never list a fault here to get a passing run without a proof.
EQUIVALENT: dict[str, str] = {}

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info", "build",
                                ".bench_work")


def run_fault(number: int) -> tuple[str, str]:
    """(outcome, detail) for one fault.  The outcome is killed (detail:
    the first failing test), survived, stale (the old text does not occur
    exactly once) or broken (pytest neither passed nor named a failure)."""
    path, old, new, _rule = FAULTS[number - 1]
    with tempfile.TemporaryDirectory(prefix="atomkit-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale", "old text occurs %d times in %s" % (
                text.count(old), path)
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                 "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=900)
        except subprocess.TimeoutExpired:
            return "killed", "timeout"
    if proc.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if failed:
        return "killed", failed.group(1)
    return "broken", "pytest exited %d" % proc.returncode


def main(argv: list[str]) -> int:
    numbers = [int(a) for a in argv] or range(1, len(FAULTS) + 1)
    bad = 0
    for number in numbers:
        rule = FAULTS[number - 1][3]
        outcome, detail = run_fault(number)
        if outcome == "survived" and rule in EQUIVALENT:
            outcome, detail = "equivalent", EQUIVALENT[rule]
        elif outcome != "killed":
            bad += 1
        print("[%d] %s: %s%s" % (number, outcome, rule,
                                 " -- " + detail if detail else ""),
              flush=True)
    print("%d of %d faults not killed" % (bad, len(numbers)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
