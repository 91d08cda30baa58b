"""atomkit benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads (see workloads.py for why each was chosen): audit-itree,
checkers-finsetinj, cli-small.  All are closed loops with one client and
at most one child process at a time.

A pass runs the seed's fixed list of ops once.  audit-itree and
checkers-finsetinj run each pass in a fresh interpreter (worker.py), so
no pass inherits another's caches; cli-small starts one interpreter per
op.  Passes repeat until S seconds have gone by.  With --trace 1, traced
and untraced passes alternate and only per-layer metrics are reported.

Every op's output is hashed with SHA-256 and compared with the digest
recorded for its key in digests.json (record.py rewrites that file).  A
malformed cli-small input passes the gate either with its recorded
outcome or with the outcome the README asks for (exit 2, empty stdout,
no traceback).  Counts are also compared with the independent oracles
of tests/oracles.py.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds run information
(Python version, nproc, commit, src/ line count, per-workload digest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from statistics import median, quantiles
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("audit-itree", "checkers-finsetinj", "cli-small")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("rows_per_s", "1/s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("ok_share", "share"))
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 140
CLI_SETUPS = 5
TRACEBACK = "Traceback (most recent call last)"


class BenchError(Exception):
    """The benchmark could not measure the workload."""


class Child(NamedTuple):
    seconds: float
    code: int
    rss_kb: int
    cpu_s: float


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


def spawn(argv: list[str], out_path: str, err_path: str, env: dict,
          timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run argv to completion with stdout and stderr in files.

    Returns wall seconds from spawn to reap, exit code, peak RSS and CPU
    time of the child.  A child that outlives timeout is killed and
    reaped, and BenchError is raised.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _pid, status, usage = os.wait4(pid, 0)
        except BaseException as exc:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            if isinstance(exc, _Timeout):
                raise BenchError("%s ran longer than %ds"
                                 % (" ".join(argv[1:4]), timeout)) from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Child(seconds, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
                 usage.ru_utime + usage.ru_stime)


def cli_digest(stdout: bytes, code: int) -> str:
    return hashlib.sha256(stdout + b"\nexit=%d" % code).hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _p90(values):
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# run context

class Bench:
    def __init__(self, root: str, workload: str, seed: int, seconds: int,
                 trace: bool, work: str):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace, self.work = seconds, trace, work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            self.recorded = json.load(fh)["workloads"][workload]
        self.children = 0
        self.problems: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def run_child(self, argv: list[str], tag: str) -> Child:
        self.children += 1
        out, err = self.path(tag + ".out"), self.path(tag + ".err")
        return spawn([sys.executable] + argv, out, err, self.env)

    def worker(self, args: list[str], tag: str) -> tuple[dict, Child]:
        result = self.path(tag + ".json")
        child = self.run_child([os.path.join(HERE, "worker.py"),
                                "--workload", self.workload,
                                "--seed", str(self.seed),
                                "--out", result] + args, tag)
        if child.code != 0:
            err = read_bytes(self.path(tag + ".err")).decode(errors="replace")
            raise BenchError("worker %s exited %d:\n%s"
                             % (tag, child.code, err[-2000:]))
        with open(result, encoding="utf-8") as fh:
            return json.load(fh), child

    def passes(self, run_one) -> list[dict]:
        """Repeat passes until the time is up; with tracing, alternate
        traced and untraced passes, at least two traced and one not."""
        done = []
        t0 = time.perf_counter()
        while True:
            traced = self.trace and len(done) % 2 == 0
            done.append(run_one(len(done), traced))
            n_traced = sum(p["traced"] for p in done)
            enough = (len(done) > n_traced
                      and (not self.trace or n_traced >= 2))
            elapsed = time.perf_counter() - t0
            if enough and elapsed >= self.seconds:
                return done
            if elapsed >= RUN_LIMIT_S:
                if not enough:
                    raise BenchError("too few passes within %ds"
                                     % RUN_LIMIT_S)
                return done

    def judge(self, key: str, digest: str, traceback: bool = False,
              malformed: bool = False,
              meets_readme: bool = False) -> tuple[bool, bool]:
        """(passes the output gate, meets the README contract).

        A well-formed op must reproduce its recorded digest, when one is
        recorded, without a traceback.  A malformed cli-small input may
        reproduce its recorded outcome or behave as the README says.
        """
        recorded = self.recorded.get(key)
        matches = recorded is None or digest == recorded
        if malformed:
            return matches or meets_readme, meets_readme
        ok = matches and not traceback
        return ok, ok


# ---------------------------------------------------------------------------
# workloads

def run_in_process(b: Bench) -> dict:
    def one(i: int, traced: bool) -> dict:
        args = ["--trace", b.path("spans%d.bin" % i)] if traced else []
        result, child = b.worker(args, "pass%d" % i)
        ops = []
        for key, seconds, digest, rows in result["ops"]:
            gate, spec = b.judge(key, digest)
            ops.append({"key": key, "seconds": seconds, "digest": digest,
                        "rows": rows, "gate": gate, "spec": spec})
        return {"traced": traced, "setup_s": result["setup_s"],
                "pass_s": result["pass_s"], "ops": ops,
                "spans": args[1:],
                "rss_kb": child.rss_kb, "cpu_s": child.cpu_s}

    passes = b.passes(one)
    check, _child = b.worker(["--check"], "check")
    b.problems.extend(check["mismatches"])
    return {"passes": passes, "setups": [p["setup_s"] for p in passes
                                         if not p["traced"]],
            "oracle_compared": check["compared"]}


def _printed_count(stdout: bytes):
    try:
        data = json.loads(stdout)
    except ValueError:
        return None
    return data.get("count") if isinstance(data, dict) else None


def run_cli(b: Bench) -> dict:
    payloads = b.path("payloads")
    os.mkdir(payloads)
    setups, plan = [], None
    for i in range(CLI_SETUPS):
        result, _child = b.worker(["--setup-dir", payloads], "setup%d" % i)
        setups.append(result["setup_s"])
        if plan is not None and result["plan"] != plan:
            b.problems.append("set-up %d built a different plan" % i)
        plan = result["plan"]

    check, _child = b.worker(["--check"], "check")
    b.problems.extend(check["mismatches"])
    expected = check["expected_counts"]
    boot = os.path.join(HERE, "cli_boot.py")

    def one(i: int, traced: bool) -> dict:
        ops, span_files, rss, cpu = [], [], 0, 0.0
        for n, op in enumerate(plan):
            tag = "p%d-op%d" % (i, n)
            if traced:
                span_files.append(b.path(tag + ".bin"))
                argv = [boot, span_files[-1]] + op["argv"]
            else:
                argv = ["-m", "atomkit.cli"] + op["argv"]
            child = b.run_child(argv, tag)
            rss, cpu = max(rss, child.rss_kb), cpu + child.cpu_s
            stdout = read_bytes(b.path(tag + ".out"))
            stderr = read_bytes(b.path(tag + ".err")).decode(errors="replace")
            digest = cli_digest(stdout, child.code)
            has_tb = TRACEBACK in stderr
            gate, spec = b.judge(op["key"], digest, has_tb, op["malformed"],
                                 child.code == 2 and not stdout and not has_tb)
            if op["key"] in expected:
                count = _printed_count(stdout)
                if count != expected[op["key"]]:
                    b.problems.append("%s printed count %r, oracle %d"
                                      % (op["key"], count,
                                         expected[op["key"]]))
            ops.append({"key": op["key"], "seconds": child.seconds,
                        "digest": digest, "rows": int(bool(stdout)),
                        "gate": gate, "spec": spec})
        return {"traced": traced, "pass_s": sum(o["seconds"] for o in ops),
                "ops": ops, "spans": span_files, "rss_kb": rss,
                "cpu_s": cpu}

    return {"passes": b.passes(one), "setups": setups,
            "oracle_compared": check["compared"]}


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run: dict) -> dict:
    passes = [p for p in run["passes"] if not p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    timed = sum(p["pass_s"] for p in passes)
    ms = [o["seconds"] * 1000.0 for o in ops]
    values = {
        "setup_s": median(run["setups"]),
        "wall_s": median([p["pass_s"] for p in passes]),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024.0,
        "rows_per_s": sum(o["rows"] for o in ops) / timed,
        "ops_per_s": len(ops) / timed,
        "op_p50_ms": median(ms),
        "op_p90_ms": _p90(ms),
        "ok_share": sum(o["spec"] for o in ops) / len(ops),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def _pass_layers(paths: list[str]) -> dict:
    """Calls, self time and counters of one traced pass (summed over the
    processes of a cli-small pass)."""
    import spans
    rows = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in spans.NAMES}
    counters = {"pullback_steps": 0, "verdicts": 0, "unknown": 0,
                "hom_pairs": 0, "import_s": 0.0}
    for path in paths:
        header, arrays = spans.load(path)
        for name, row in spans.summarize(arrays).items():
            for field in row:
                rows[name][field] += row[field]
        for field, value in header["counters"].items():
            counters[field] += value
        counters["import_s"] += header.get("import_s", 0.0)
    return {"rows": rows, "counters": counters}


def per_layer(run: dict, problems: list[str]) -> dict:
    import spans
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    layers = [_pass_layers(p["spans"]) for p in traced]
    first = layers[0]
    for other in layers[1:]:
        for name in spans.NAMES:
            if other["rows"][name]["calls"] != first["rows"][name]["calls"]:
                problems.append("traced passes disagree on %s calls" % name)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in spans.NAMES:
        if name.startswith("cli."):
            continue
        put(name + ".calls", first["rows"][name]["calls"], "count")
        put(name + ".self_s",
            median([layer["rows"][name]["self_s"] for layer in layers]), "s")
    calls = first["rows"]["core.hom_set"]["calls"]
    c = first["counters"]
    put("core.hom_set.distinct_share",
        c["hom_pairs"] / calls if calls else 0.0, "share")
    put("atoms.coequalize_representables.pullback_steps",
        c["pullback_steps"], "count")
    put("presheaf.unknown_share",
        c["unknown"] / c["verdicts"] if c["verdicts"] else 0.0, "share")
    emit = [layer["rows"]["cli.emit"]["total_s"] for layer in layers]
    main = [layer["rows"]["cli.main"]["total_s"] for layer in layers]
    put("cli.import_s",
        median([layer["counters"]["import_s"] for layer in layers]), "s")
    put("cli.run_s", median([m - e for m, e in zip(main, emit)]), "s")
    put("cli.emit_s", median(emit), "s")
    put("trace.overhead_s", median([p["pass_s"] for p in traced])
        - median([p["pass_s"] for p in plain]), "s")
    return out


# ---------------------------------------------------------------------------
# run information

def _commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        head = read_bytes(os.path.join(git, "HEAD")).decode().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            return read_bytes(ref_path).decode().strip()
        for line in read_bytes(os.path.join(git, "packed-refs")).decode() \
                .splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_stats(root: str) -> tuple[int, str]:
    lines, h = 0, hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                data = read_bytes(os.path.join(dirpath, name))
                lines += data.count(b"\n")
                h.update(os.path.relpath(os.path.join(dirpath, name),
                                         src).encode() + b"\0" + data)
    return lines, h.hexdigest()


def info(b: Bench, run: dict) -> dict:
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    ops = [o for p in passes for o in p["ops"]]
    src_lines, src_sha = _src_stats(b.root)
    return {
        "workload": b.workload, "seed": b.seed, "seconds": b.seconds,
        "trace": b.trace, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "commit": _commit(b.root),
        "src_lines": src_lines, "src_sha256": src_sha,
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "ops_per_pass": len(passes[0]["ops"]),
        "op_samples": sum(len(p["ops"]) for p in plain),
        "digest": hashlib.sha256("\n".join(
            o["digest"] for o in passes[0]["ops"]).encode()).hexdigest(),
        "unrecorded_ops": sum(o["key"] not in b.recorded for o in ops),
        "fail_share": sum(not o["spec"] for o in ops) / len(ops),
        "cpu_s_per_pass": median([p["cpu_s"] for p in plain]),
        "oracle_compared": run["oracle_compared"],
        "child_processes": b.children,
        "problems": b.problems[:20],
    }


def _consistent(run: dict, problems: list[str]) -> None:
    """Every key gives one digest within the run (covers unrecorded keys)."""
    seen: dict[str, str] = {}
    for p in run["passes"]:
        for o in p["ops"]:
            if seen.setdefault(o["key"], o["digest"]) != o["digest"]:
                problems.append("%s gave two different outputs" % o["key"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for need in (("src", "atomkit", "__init__.py"), ("tests", "oracles.py")):
        if not os.path.isfile(os.path.join(root, *need)):
            print("error: %s not found; run from the root of an atomkit "
                  "checkout" % os.path.join(*need), file=sys.stderr)
            return 2
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=base)
    try:
        b = Bench(root, args.workload, args.seed, max(1, args.seconds),
                  bool(args.trace), work)
        run = run_cli(b) if args.workload == "cli-small" \
            else run_in_process(b)
        _consistent(run, b.problems)
        metrics = per_layer(run, b.problems) if b.trace else end_to_end(run)
        ops = [o for p in run["passes"] for o in p["ops"]]
        failed = sum(not o["gate"] for o in ops)
        print(json.dumps({"info": info(b, run)}, sort_keys=True))
        print(json.dumps({"correct": failed == 0 and not b.problems,
                          "attempted": len(ops), "failed": failed,
                          "metrics": metrics}))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
