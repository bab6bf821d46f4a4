#!/usr/bin/env python3
"""Check that the benchmark is steady, and record a baseline.

For each workload, runs the benchmark once per seed with --trace 0 and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median. A spread should stay below a third of the metric's
bound in BENCHMARK.json. With --traced, also runs two
traced runs per workload on one seed and checks that every call count
repeats exactly.

Usage, from the root of a source checkout:

    python3 perfbench/prove.py --seeds 1-10 [--workloads sweep relaxed]
                               [--traced] [--write perfbench/baseline.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]), time.perf_counter() - t0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", metavar="PATH")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    report = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        results, walls, meta = [], [], None
        for seed in seeds:
            result, meta, wall = run(name, seed, seconds, 0)
            results.append(result)
            walls.append(wall)
            values = " ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}; {values}", flush=True)
        entry = {
            "why": meta["why"],
            "ops_per_run": [r["attempted"] for r in results],
            "failed": sum(r["failed"] for r in results),
            "run_wall_s_max": max(walls),
            "metrics": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median, rel = spread(values)
            steady = rel < bound / 3
            ok &= steady and entry["failed"] == 0
            entry["metrics"][metric] = {"median": median, "spread": rel, "bound": bound}
            print(f"  {metric:12s} median {median:.6g}  spread {rel:.3f}  bound {bound}"
                  f"{'' if steady else '  <-- not below a third of the bound'}")
        if args.traced:
            first, _, wall1 = run(name, seeds[0], seconds, 1)
            second, _, wall2 = run(name, seeds[0], seconds, 1)
            calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
            repeat = calls == {k: second["metrics"][k]["value"] for k in calls}
            ok &= repeat and first["correct"] and second["correct"]
            entry["traced"] = {k: v["value"] for k, v in first["metrics"].items()}
            entry["traced_wall_s"] = [wall1, wall2]
            print(f"  traced: {wall1:.1f} s and {wall2:.1f} s, call counts "
                  f"{'repeat exactly' if repeat else 'DIFFER'}")
        report["workloads"][name] = entry
        report["meta"] = meta["meta"]
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
