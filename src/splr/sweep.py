"""Recovery-region sweep: solve the exact-split program over a grid of
(rank, support density) cells, several trials per cell, and record relative
recovery errors plus a success flag per trial and success rates per cell.

Per-trial seeds depend only on the grid coordinates and the base seed, so
results are identical regardless of execution order or worker count.

A trial knows its planted pair, so its solve is abandoned, and the trial
scored as failed, as soon as the solver's feasible point proves that no
converged output passes the success test (see _non_recovery_test). The
proof compares the feasible point's objective with the planted one, less a
margin from one pair of subgradients, of the l1 term at the planted sparse
part and of the trace norm at the planted low-rank part, that lie close to
each other (see _planted_margin). The error columns of an abandoned trial
are those of the solver's iterate at the sweep where it stopped.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .incoherence import default_lambda
from .matrices import FactorizationError, _check_integer, _check_real, mix_seed, thin_svd
from .matrixio import format_float, write_text_atomic
from .norms import _entrywise_norm, _trace_norm
from .solvers import ConstrainedConfig, _solve_constrained
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
# Slack of the non-recovery test, relative to the planted objective: it
# covers how far a converged solve's output lies above the optimum. The
# solve certifies (Y - X_L, X_L) to a relative duality gap of at most
# SOLVER_TOL, and the output's objective exceeds that point's by at most
# lam*||X_S + X_L - Y||_1 <= lam*sqrt(mn)*SOLVER_TOL. So the slack holds by
# construction once f0 >= lam*sqrt(mn)/19, as on every nonzero 30x30 cell.
# A larger slack only makes the test fire later or never.
ABANDON_SLACK = 2e-6
# Alternating projections, one SVD each, that bring the two planted
# subgradients of _planted_margin together. Any number gives a valid margin.
MARGIN_PASSES = 3


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
    solver_max_iter: int = ConstrainedConfig.max_iter

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "densities", tuple(float(d) for d in self.densities))
        _check_integer(1, m=self.m, n=self.n)
        if not ranks or not self.densities:
            raise ValueError("ranks and densities must be nonempty")
        _check_integer(0, min(self.m, self.n), **{f"ranks[{i}]": r for i, r in enumerate(ranks)})
        object.__setattr__(self, "ranks", tuple(int(r) for r in ranks))
        _check_real("[0, 1]", **{f"densities[{i}]": d for i, d in enumerate(self.densities)})
        _check_integer(1, trials=self.trials, solver_max_iter=self.solver_max_iter)
        _check_integer(-math.inf, base_seed=self.base_seed)


def _planted_objective(target, lam):
    """f0 = f(S0, L0), f(S, L) = lam*||S||_1 + ||L||_*, at the planted pair."""
    return lam * _entrywise_norm(target.X_S, 1) + _trace_norm(target.X_L)


def _closest_subgradients(target, lam):
    """(G_S, G_L) with G_S in lam*d||S0||_1 and G_L in d||L0||_*, brought
    close to each other in Frobenius norm by alternating projections.

    Starting from G_L = U V^T, each of MARGIN_PASSES passes projects G_L
    onto the first set (lam*sign(S0) on the support, G_L clipped to [-lam,
    lam] off it), then that G_S onto the second (U V^T plus the projection
    of G_S onto the complement of the tangent space, its singular values
    clipped at 1), at one SVD. A last projection onto the first set needs
    no SVD. Projections onto convex sets never move the pair apart.
    """
    U, V = target.space.U, target.space.V
    UVt = U @ V.T
    on_support = target.support.mask
    sign = lam * np.sign(target.X_S)

    def l1_subgradient(G_L):
        return np.where(on_support, sign, np.clip(G_L, -lam, lam))

    G_L = UVt
    for _ in range(MARGIN_PASSES):
        P = l1_subgradient(G_L)
        P -= U @ (U.T @ P)
        P -= (P @ V) @ V.T
        W, s, Zt = thin_svd(P)
        G_L = UVt + (W * np.minimum(s, 1.0)) @ Zt
    return l1_subgradient(G_L), G_L


def _planted_margin(target, lam):
    """margin with f >= f0 - margin (see _planted_objective) on every pair
    (S, L) that passes the success test, with relative Frobenius errors at
    most delta = SUCCESS_THRESHOLD, and has ||S + L - Y||_F <= SOLVER_TOL,
    as a converged output has.

    With S + L - Y = e and subgradients G_S, G_L at the planted pair (see
    _closest_subgradients), f >= f0 + <G_S, S - S0> + <G_L, L - L0>, which
    is f0 + <G_S - G_L, S - S0> + <G_L, e> and also f0 + <G_L - G_S, L -
    L0> + <G_S, e>. The success test bounds ||S - S0||_F by delta*a and
    ||L - L0||_F by delta*b, with a = max(1, ||S0||_F) and b = max(1,
    ||L0||_F). Taking the form with the smaller bound, Cauchy-Schwarz gives
    margin = delta*min(a, b)*||G_S - G_L||_F + SOLVER_TOL*max(||G_S||_F,
    ||G_L||_F). The first projection already gives ||G_S - G_L||_F <=
    ||lam*sign(S0) - U V^T||_F <= lam*sqrt(k) + sqrt(r), k = nnz(S0) and r
    = rank(L0), so the first term never exceeds the margin delta*(lam*
    sqrt(k)*a + sqrt(r)*b) of the two subgradient blocks taken apart.
    Costs MARGIN_PASSES SVDs.
    """
    G_S, G_L = _closest_subgradients(target, lam)
    a = max(1.0, _entrywise_norm(target.X_S, 2))
    b = max(1.0, _entrywise_norm(target.X_L, 2))
    return (SUCCESS_THRESHOLD * min(a, b) * _entrywise_norm(G_S - G_L, 2)
            + SOLVER_TOL * max(_entrywise_norm(G_S, 2), _entrywise_norm(G_L, 2)))


def _non_recovery_test(inst, lam):
    """The abandon predicate (see solvers._admm) of the exact split of a
    noiseless instance: true once the solve proves that no converged
    output passes the success test.

    The pair (Y - X_L, X_L) is feasible and ||X_L||_* is the sum of its
    kept singular values s. Once lam*||Y - X_L||_1 + sum(s) < f0*(1 -
    ABANDON_SLACK) - margin (see _planted_objective and _planted_margin),
    the optimum lies below f0 - margin by more than a converged output's
    suboptimality, so no converged output passes the test. A planted pair
    that is optimal never trips it. A call costs O(mn). The first call
    whose value falls below f0*(1 - ABANDON_SLACK) also computes the
    margin, at MARGIN_PASSES SVDs; a trial whose planted pair is optimal
    never gets there.
    """
    target = inst.target
    f0 = _planted_objective(target, lam)
    start = f0 - ABANDON_SLACK * f0
    floor = None
    Y = inst.Y

    def abandon(X_L, s):
        nonlocal floor
        value = lam * _entrywise_norm(Y - X_L, 1) + float(s.sum())
        if not value < start:
            return False
        if floor is None:
            floor = start - _planted_margin(target, lam)
        return value < floor

    return abandon


def _run_cell(spec, rank, density_index, density, trial):
    seed = mix_seed(spec.base_seed, rank, density_index, trial)
    ktilde = int(round(density * spec.m * spec.n))
    inst = gen_instance(InstanceSpec(m=spec.m, n=spec.n, rbar=rank, ktilde=ktilde, seed=seed))
    prof = inst.profile
    lam = default_lambda((spec.m, spec.n), prof)
    cfg = ConstrainedConfig(lam=lam, tol=SOLVER_TOL, max_iter=spec.solver_max_iter)
    try:
        report = _solve_constrained(inst.Y, cfg, _non_recovery_test(inst, lam))
        err_sparse = (_entrywise_norm(report.X_S_hat - inst.target.X_S, 2)
                      / max(1.0, _entrywise_norm(inst.target.X_S, 2)))
        err_lowrank = (_entrywise_norm(report.X_L_hat - inst.target.X_L, 2)
                       / max(1.0, _entrywise_norm(inst.target.X_L, 2)))
        converged = report.converged
    except (FactorizationError, np.linalg.LinAlgError):
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
    aggregate_rows) in deterministic grid order regardless of jobs.

    The cells run on min(jobs, os.cpu_count(), number of cells) threads;
    jobs must be an integer of at least 1."""
    _check_integer(1, jobs=jobs)
    cells = [
        (rank, di, density, trial)
        for rank in spec.ranks
        for di, density in enumerate(spec.densities)
        for trial in range(spec.trials)
    ]
    workers = min(jobs, os.cpu_count() or 1, len(cells))
    if workers <= 1:
        rows = [_run_cell(spec, *cell) for cell in cells]
    else:
        # Imported here: it loads logging, which a serial sweep never uses.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
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
