"""Record the output digest of every op any seed can draw.

    PYTHONPATH=src python3 bench/record.py

Run from the root of the checkout.  Rewrites bench/digests.json, which
run.py compares every op's output with.  Re-record only when an output
change is intended, and say why in CHANGES.md.

Fails when a well-formed cli-small input does not exit 0 or 1 without
a traceback.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads
import worker
from atomkit import canonical_json

OUT = os.path.join(run.HERE, "digests.json")


def in_process(ops) -> dict:
    table = {}
    for op in ops:
        if op.key not in table:
            table[op.key] = worker.digest(canonical_json(op.run()[0]))
    return table


def cli(root: str) -> dict:
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=base)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    table, problems = {}, []
    try:
        plan = workloads.cli_plan(None, work)
        out, err = os.path.join(work, "out"), os.path.join(work, "err")
        for n, op in enumerate(plan):
            child = run.spawn([sys.executable, "-m", "atomkit.cli"]
                              + op["argv"], out, err, env)
            stdout = run.read_bytes(out)
            traceback = run.TRACEBACK in run.read_bytes(err).decode()
            table[op["key"]] = run.cli_digest(stdout, child.code)
            if not op["malformed"] and (child.code not in (0, 1)
                                        or traceback):
                problems.append("%s exited %d%s" % (
                    op["key"], child.code,
                    " with a traceback" if traceback else ""))
            if n % 100 == 0:
                print("cli-small: %d/%d" % (n, len(plan)), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        raise SystemExit("\n".join(problems))
    return table


def main() -> int:
    tables = {
        "audit-itree": in_process(workloads.audit_itree_ops(0)),
        "checkers-finsetinj": in_process(workloads.all_checkers_ops()),
        "cli-small": cli(os.getcwd()),
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"workloads": tables}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for name, table in tables.items():
        print("%s: %d digests" % (name, len(table)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
