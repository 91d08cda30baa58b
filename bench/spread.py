"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workload NAME]... [--seeds 1-10]
        [--seconds S] [--trace 0|1] [--out SUMMARY.json]

Run from the root of the checkout.  For every workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread, (Q3 - Q1) / median, next to the metric's bound in
BENCHMARK.json.  --out also writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs, summary = [], {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (name, seed, proc.returncode,
                                                   proc.stderr[-2000:]))
                return 1
            result = json.loads(lines[-1])
            runs.append({"workload": name, "seed": seed, "elapsed_s": elapsed,
                         "info": json.loads(lines[-2])["info"],
                         "result": result})
            print("%s seed %d: %.1fs correct=%s attempted=%d failed=%d"
                  % (name, seed, elapsed, result["correct"],
                     result["attempted"], result["failed"]), flush=True)
            for metric, row in result["metrics"].items():
                values.setdefault(metric, []).append(row["value"])
        summary[name] = {}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4) \
                if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread}
            bound = bounds.get(metric)
            print("  %-32s median %-12.6g spread %.4f%s"
                  % (metric, med, spread,
                     "  bound %.2f (spread/bound %.2f)"
                     % (bound, spread / bound) if bound else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
