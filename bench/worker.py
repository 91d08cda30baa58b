"""One benchmark child process: a pass, a cli set-up, or the oracle check.

    python3 bench/worker.py --workload W --seed N --out RESULT.json
        [--trace SPANS] | [--setup-dir DIR] | [--check]

Run from the checkout root with PYTHONPATH=src.  Each mode writes one
JSON object to RESULT.json.

pass (audit-itree, checkers-finsetinj): time ``import atomkit`` and the
building of the seed's ops (set-up), then run every op once, each
serialised with canonical_json inside its timer (the timed phase).  With
--trace, the span tracer is installed for the timed phase only and its
spans are written to SPANS.

--setup-dir (cli-small): time ``import atomkit`` and the writing of the
seed's payload files into DIR; return the plan of CLI invocations.

--check: compare library counts with the independent oracles of
tests/oracles.py, on samples drawn from the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_atomkit() -> None:
    import atomkit
    expected = os.path.join(ROOT, "src", "atomkit", "__init__.py")
    if os.path.realpath(atomkit.__file__) != os.path.realpath(expected):
        raise SystemExit("atomkit was imported from %s, not from %s"
                         % (atomkit.__file__, expected))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_pass(workload: str, seed: int, spans_path: str | None) -> dict:
    t0 = time.perf_counter()
    _import_atomkit()
    import atomkit as ak
    import workloads
    ops = workloads.ops(workload, seed)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    clock = time.perf_counter
    done = []
    try:
        start = clock()
        for op in ops:
            t = clock()
            payload, rows = op.run()
            text = ak.canonical_json(payload)
            done.append((op.key, clock() - t, text, rows))
        pass_s = clock() - start
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.dump(spans_path)
    return {"setup_s": setup_s, "pass_s": pass_s,
            "ops": [[key, sec, digest(text), rows]
                    for key, sec, text, rows in done]}


def run_setup(seed: int, directory: str) -> dict:
    t0 = time.perf_counter()
    _import_atomkit()
    import workloads
    plan = workloads.cli_plan(seed, directory)
    return {"setup_s": time.perf_counter() - t0, "plan": plan}


def run_check(workload: str, seed: int) -> dict:
    """Oracle comparisons, outside any timed phase.

    audit-itree: hom-set counts of seeded tree pairs from the audit pool.
    checkers-finsetinj: atom-hom counts between seeded pairs of the atoms
    the seed's sheaf checks use.  cli-small: the expected ``count`` of
    every tree-embeddings and atoms-hom op in the seed's plan, which the
    caller compares with the printed counts.
    """
    _import_atomkit()
    import atomkit as ak
    import workloads
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from oracles import count_embeddings_by_filter, count_natural_maps

    rng = random.Random(seed)
    set_objects = [ak.FinSet(i) for i in range(5)]
    mismatches, compared, expected = [], 0, {}

    def compare(label, got, want):
        nonlocal compared
        compared += 1
        if got != want:
            mismatches.append("%s: library %d, oracle %d" % (label, got, want))

    if workload == "audit-itree":
        pool = ak.enumerate_trees(workloads.AUDIT_BOUND,
                                  2 * workloads.AUDIT_BOUND + 1, ("i", "j"))
        for _ in range(24):
            x, y = rng.choice(pool), rng.choice(pool)
            compare("hom %s -> %s" % (ak.object_key(x), ak.object_key(y)),
                    len(ak.hom_set(x, y)), count_embeddings_by_filter(x, y))
    elif workload == "checkers-finsetinj":
        atoms = workloads.checker_atoms(seed)
        for _ in range(24):
            a, b = rng.choice(atoms), rng.choice(atoms)
            compare("atom hom %s -> %s" % (a.describe(), b.describe()),
                    len(ak.atom_hom(a, b)),
                    count_natural_maps(a, b, set_objects))
    else:
        pools = workloads.CliPools()
        names = {k: len(v) for k, v in workloads.templates(pools).items()}
        for name, index in workloads.cli_picks(seed, names):
            key = "%s:%d" % (name, index)
            found = workloads.cli_oracle_inputs(key, pools)
            if found is None:
                continue
            kind, (a, b) = found
            if kind == "tree-embeddings":
                expected[key] = count_embeddings_by_filter(a, b)
            else:
                expected[key] = count_natural_maps(a, b, set_objects)
            compared += 1
    return {"compared": compared, "mismatches": mismatches,
            "expected_counts": expected}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", metavar="SPANS")
    mode.add_argument("--setup-dir")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.check:
        result = run_check(args.workload, args.seed)
    elif args.setup_dir:
        result = run_setup(args.seed, args.setup_dir)
    else:
        result = run_pass(args.workload, args.seed, args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
