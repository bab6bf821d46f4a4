#!/usr/bin/env python3
"""Record the reference success flags of the sweep workload.

Runs every grid cell of every sweep input set once, through the same cell
specs the benchmark uses, and writes perfbench/sweep_flags.json: one
string per set with '1' or '0' per cell in grid order. The benchmark
counts a sweep op as failed when its success flag differs from the
recorded one, so record the flags once, at the commit that defines the
baseline, and not after a solver change.

Usage, from the root of a source checkout:

    python3 perfbench/record_flags.py
"""

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def set_flags(set_index):
    sys.path.insert(0, SRC)
    import workloads

    flags = []
    for cell in workloads.sweep_cells():
        row = workloads.run_sweep_cell(workloads.sweep_cell_spec(set_index, *cell))
        flags.append("1" if row[7] else "0")
    return "".join(flags)


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    import workloads

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        flags = pool.map(set_flags, range(workloads.SWEEP_SETS))
    payload = {
        "m": workloads.SWEEP_M,
        "ranks": list(workloads.SWEEP_RANKS),
        "densities": list(workloads.SWEEP_DENSITIES),
        "trials": workloads.SWEEP_TRIALS,
        "max_iter": workloads.SWEEP_MAX_ITER,
        "sets": workloads.SWEEP_SETS,
        "flags": flags,
    }
    with open(workloads.SWEEP_FLAGS_PATH, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.SWEEP_FLAGS_PATH}: {sum(f.count('1') for f in flags)} "
          f"successes in {sum(len(f) for f in flags)} cells")


if __name__ == "__main__":
    main()
