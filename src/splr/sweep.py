"""Recovery-region sweep: solve the exact-split program over a grid of
(rank, support density) cells, several trials per cell, and record relative
recovery errors plus a success flag per trial and success rates per cell.

Per-trial seeds depend only on the grid coordinates and the base seed, so
results are identical regardless of execution order or worker count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .incoherence import default_lambda
from .matrices import FactorizationError, mix_seed
from .matrixio import format_float, write_text_atomic
from .norms import entrywise_norm
from .solvers import ConstrainedConfig, recovery_errors, solve_constrained
from .synth import InstanceSpec, gen_instance

__all__ = [
    "SweepSpec",
    "DETAIL_HEADER",
    "AGGREGATE_HEADER",
    "run_sweep",
    "format_detail_csv",
    "format_aggregate_csv",
    "sweep_output_paths",
    "write_sweep_outputs",
]

DETAIL_HEADER = "rank,density,trial,seed,alpha_beta,err_sparse,err_lowrank,success"
AGGREGATE_HEADER = "rank,density,trials,successes,success_rate"

# A trial succeeds when the solve converges and both relative Frobenius
# errors are at most SUCCESS_THRESHOLD; every cell solves to SOLVER_TOL.
SUCCESS_THRESHOLD = 1e-4
SOLVER_TOL = 1e-7


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: shape, ranks, densities (support draws as a
    fraction of mn), trials per cell, base seed and each solve's iteration
    cap. Instances take the InstanceSpec defaults (noiseless, fixed +-10)."""

    m: int
    n: int
    ranks: tuple
    densities: tuple
    trials: int
    base_seed: int
    solver_max_iter: int = 100000

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be >= 1")
        if not self.ranks or not self.densities:
            raise ValueError("ranks and densities must be nonempty")
        if any(r < 0 or r > min(self.m, self.n) for r in self.ranks):
            raise ValueError("ranks must lie in [0, min(m, n)]")
        if any(d < 0 or d > 1 for d in self.densities):
            raise ValueError("densities must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _run_cell(spec, rank, density_index, density, trial):
    seed = mix_seed(spec.base_seed, rank, density_index, trial)
    ktilde = int(round(density * spec.m * spec.n))
    inst = gen_instance(InstanceSpec(m=spec.m, n=spec.n, rbar=rank, ktilde=ktilde, seed=seed))
    prof = inst.profile
    lam = default_lambda((spec.m, spec.n), prof)
    cfg = ConstrainedConfig(lam=lam, tol=SOLVER_TOL, max_iter=spec.solver_max_iter)
    try:
        report = solve_constrained(inst.Y, cfg)
        errs = recovery_errors(report, inst.target)
        err_sparse = errs["sparse_v2"] / max(1.0, entrywise_norm(inst.target.X_S, 2))
        err_lowrank = errs["lowrank_v2"] / max(1.0, entrywise_norm(inst.target.X_L, 2))
        converged = report.converged
    except FactorizationError:
        err_sparse = err_lowrank = math.inf
        converged = False
    success = bool(
        converged
        and err_sparse <= SUCCESS_THRESHOLD
        and err_lowrank <= SUCCESS_THRESHOLD
    )
    return (rank, density, trial, seed, prof.product, err_sparse, err_lowrank, success)


def run_sweep(spec, jobs=1):
    """Run every (rank, density, trial) cell; returns (detail_rows,
    aggregate_rows) in deterministic grid order regardless of jobs."""
    cells = [
        (rank, di, density, trial)
        for rank in spec.ranks
        for di, density in enumerate(spec.densities)
        for trial in range(spec.trials)
    ]
    if jobs <= 1:
        rows = [_run_cell(spec, *cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda cell: _run_cell(spec, *cell), cells))
    aggregate = []
    idx = 0
    for rank in spec.ranks:
        for density in spec.densities:
            block = rows[idx: idx + spec.trials]
            idx += spec.trials
            successes = sum(1 for row in block if row[7])
            aggregate.append(
                (rank, density, spec.trials, successes, successes / spec.trials)
            )
    return rows, aggregate


def format_detail_csv(rows):
    lines = [DETAIL_HEADER]
    for rank, density, trial, seed, ab, es, el, success in rows:
        lines.append(
            f"{rank},{format_float(density)},{trial},{seed},"
            f"{format_float(ab)},{format_float(es)},{format_float(el)},{int(success)}"
        )
    return "\n".join(lines) + "\n"


def format_aggregate_csv(rows):
    lines = [AGGREGATE_HEADER]
    for rank, density, trials, successes, rate in rows:
        lines.append(
            f"{rank},{format_float(density)},{trials},{successes},{format_float(rate)}"
        )
    return "\n".join(lines) + "\n"


def sweep_output_paths(out_path):
    """Detail path as given; aggregate path with '.agg' before the suffix."""
    root, ext = os.path.splitext(os.fspath(out_path))
    return os.fspath(out_path), root + ".agg" + ext


def write_sweep_outputs(spec, out_path, jobs=1):
    """Run the sweep and write both CSVs atomically; returns their paths."""
    rows, aggregate = run_sweep(spec, jobs=jobs)
    detail_path, agg_path = sweep_output_paths(out_path)
    write_text_atomic(detail_path, format_detail_csv(rows))
    write_text_atomic(agg_path, format_aggregate_csv(aggregate))
    return detail_path, agg_path
