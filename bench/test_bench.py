"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from array import array

import pytest

import atomkit
import run
import spans
import workloads
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHEAP = ("selfint:", "sheafcheck:", "coeq:")

with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)["workloads"]


def _cheap(ops, n=30):
    return [op for op in ops if op.key.startswith(CHEAP)][:n]


def _digests(ops):
    return [(op.key, worker.digest(atomkit.canonical_json(op.run()[0])))
            for op in ops]


def _cli_keys(seed):
    pools = workloads.CliPools()
    sizes = {k: len(v) for k, v in workloads.templates(pools).items()}
    return ["%s:%d" % pick for pick in workloads.cli_picks(seed, sizes)]


def test_same_seed_gives_same_inputs_and_digests(tmp_path):
    for workload in ("audit-itree", "checkers-finsetinj"):
        first = [op.key for op in workloads.ops(workload, 7)]
        assert first == [op.key for op in workloads.ops(workload, 7)]
    ops = _cheap(workloads.ops("checkers-finsetinj", 7))
    digests = _digests(ops)
    assert digests == _digests(ops)
    table = RECORDED["checkers-finsetinj"]
    assert all(table[key] == d for key, d in digests)

    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    plan_a = workloads.cli_plan(7, str(a))
    plan_b = workloads.cli_plan(7, str(b))
    assert [p["key"] for p in plan_a] == [p["key"] for p in plan_b]
    for pa, pb in zip(plan_a, plan_b):
        assert [x.replace(str(a), "") for x in pa["argv"]] == \
            [x.replace(str(b), "") for x in pb["argv"]]
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seeds_give_different_inputs():
    one = [op.key for op in workloads.ops("checkers-finsetinj", 1)]
    two = [op.key for op in workloads.ops("checkers-finsetinj", 2)]
    assert one != two and len(one) == len(two)
    assert _cli_keys(1) != _cli_keys(2)
    # the audit workload runs the same four audits under every seed
    audits = {op.key for op in workloads.ops("audit-itree", 1)}
    assert audits == {op.key for op in workloads.ops("audit-itree", 2)}
    assert len(audits) == 4


def test_every_drawable_op_has_a_recorded_digest():
    assert {op.key for op in workloads.all_checkers_ops()} \
        == set(RECORDED["checkers-finsetinj"])
    for seed in range(25):
        for workload in ("audit-itree", "checkers-finsetinj"):
            keys = {op.key for op in workloads.ops(workload, seed)}
            assert keys <= set(RECORDED[workload])
        assert set(_cli_keys(seed)) <= set(RECORDED["cli-small"])


def test_malformed_share_is_fixed():
    keys = _cli_keys(3)
    bad = [k for k in keys if k.split(":")[0] in workloads.MALFORMED]
    assert len(bad) * 8 == len(keys)


def test_tracer_restores_every_binding():
    from atomkit import audit, core, itree
    originals = (core.hom_set, audit.hom_set, atomkit.hom_set,
                 audit.AUDITS["c1"], itree.TreeEmbedding.__dict__["then"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert audit.hom_set is not originals[1]
        assert audit.AUDITS["c1"] is not originals[3]
        assert atomkit.hom_set is audit.hom_set is core.hom_set
        assert spans.leftover_wrappers()
    finally:
        tracer.restore()
    assert spans.leftover_wrappers() == []
    assert (core.hom_set, audit.hom_set, atomkit.hom_set,
            audit.AUDITS["c1"], itree.TreeEmbedding.__dict__["then"]) \
        == originals


def _traced(ops, path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        digests = _digests(ops)
    finally:
        tracer.restore()
    tracer.dump(str(path))
    header, arrays = spans.load(str(path))
    return digests, header, spans.summarize(arrays)


def test_traced_run_matches_untraced_and_repeats_its_counts(tmp_path):
    ops = _cheap(workloads.ops("checkers-finsetinj", 11))
    plain = _digests(ops)
    digests1, header1, rows1 = _traced(ops, tmp_path / "one.bin")
    digests2, header2, rows2 = _traced(ops, tmp_path / "two.bin")
    assert digests1 == plain == digests2
    assert {k: v["calls"] for k, v in rows1.items()} \
        == {k: v["calls"] for k, v in rows2.items()}
    assert header1["counters"] == header2["counters"]
    assert rows1["core.hom_set"]["calls"] > 0
    assert rows1["core.compose"]["calls"] > 0
    assert spans.leftover_wrappers() == []


def test_self_time_subtracts_direct_children():
    # a [0, 10] calls b [2, 5], which calls c [3, 4]
    arrays = (array("i", [0, 1, 2]), array("i", [-1, 0, 1]),
              array("d", [0.0, 2.0, 3.0]), array("d", [10.0, 5.0, 4.0]))
    rows = spans.summarize(arrays)
    a, b, c = (rows[spans.NAMES[i]] for i in range(3))
    assert (a["self_s"], b["self_s"], c["self_s"]) == (7.0, 2.0, 1.0)
    assert (a["total_s"], a["calls"]) == (10.0, 1)


def test_cli_bootstrap_matches_the_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    data = os.path.join(ROOT, "data")
    argv = ["coeq", os.path.join(data, "pt0.json"),
            os.path.join(data, "pt1.json")]
    plain = subprocess.run([sys.executable, "-m", "atomkit.cli"] + argv,
                           capture_output=True, env=env, check=False)
    out = tmp_path / "spans.bin"
    traced = subprocess.run([sys.executable,
                             os.path.join(HERE, "cli_boot.py"), str(out)]
                            + argv, capture_output=True, env=env,
                            check=False)
    assert (traced.stdout, traced.returncode) == \
        (plain.stdout, plain.returncode)
    header, arrays = spans.load(str(out))
    rows = spans.summarize(arrays)
    assert rows["cli.main"]["calls"] == rows["cli.emit"]["calls"] == 1
    assert rows["atoms.coequalize_representables"]["calls"] == 1
    assert header["import_s"] > 0


def test_spawn_kills_a_child_that_overruns(tmp_path):
    t0 = time.perf_counter()
    with pytest.raises(run.BenchError):
        run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                  str(tmp_path / "out"), str(tmp_path / "err"),
                  dict(os.environ), timeout=0.5)
    assert time.perf_counter() - t0 < 10


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "audit-itree", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
