"""Solvers for the two decomposition programs and the error-bound oracles.

The penalized program (quadratic data-fit plus scaled l1 plus trace norm,
optional box on X_S around Y) is solved by exact two-block coordinate
descent; the constrained program (l1/trace norms subject to residual-norm
caps, optional box on X_L) by one Gauss-Seidel ADMM loop whose blocks are
the four closed-form proxes: soft threshold, singular-value threshold,
l1-ball and nuclear-ball projection, plus entrywise clipping for the box.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .incoherence import PreconditionError
from .matrices import as_matrix, thin_svd
from .norms import entrywise_norm, induced_norm, trace_norm
from .prox import (
    clip_entries,
    project_l1_ball,
    project_nuclear_ball,
    prox_l1_box,
    soft_threshold,
    svt,
)

__all__ = [
    "RegularizedConfig",
    "ConstrainedConfig",
    "SolveReport",
    "solve_regularized",
    "solve_constrained",
    "recovery_errors",
    "bound_theorem2",
    "bound_theorem3",
]

# First-order optimality residual required at exit of the penalized solver.
KKT_EXIT_TOL = 1e-6


@dataclass
class RegularizedConfig:
    """Parameters of the penalized solve: lam and mu positive, b the box
    radius on entries of X_S - Y (inf disables it), tol the relative
    objective-decrease stop threshold."""

    lam: float
    mu: float
    b: float = math.inf
    tol: float = 1e-12
    max_iter: int = 100000

    def validate(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.b <= 0:
            raise ValueError("box radius must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class ConstrainedConfig:
    """Parameters of the constrained solve: residual caps eps_v1/eps_star
    (a zero cap on either means exact agreement), b the box radius on
    entries of X_L (inf disables it), tol the ADMM primal and dual residual
    stop threshold."""

    lam: float
    eps_v1: float = 0.0
    eps_star: float = 0.0
    b: float = math.inf
    tol: float = 1e-9
    max_iter: int = 100000

    def validate(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.eps_v1 < 0 or self.eps_star < 0:
            raise ValueError("residual caps must be nonnegative")
        if self.b <= 0:
            raise ValueError("box radius must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    """Solution pair plus convergence and feasibility measurements.

    residual_* are the v1 / trace / Frobenius norms of X_S_hat + X_L_hat - Y.
    """

    X_S_hat: np.ndarray
    X_L_hat: np.ndarray
    iterations: int
    objective: float
    residual_v1: float
    residual_star: float
    residual_v2: float
    converged: bool
    mode: str
    diagnostics: dict = field(default_factory=dict)


def recovery_errors(report, target):
    """Six error norms of the solution against a known target pair
    (v1, Frobenius, trace for each difference matrix)."""
    dS = report.X_S_hat - target.X_S
    dL = report.X_L_hat - target.X_L
    return {
        "sparse_v1": entrywise_norm(dS, 1),
        "sparse_v2": entrywise_norm(dS, 2),
        "sparse_trace": trace_norm(dS),
        "lowrank_v1": entrywise_norm(dL, 1),
        "lowrank_v2": entrywise_norm(dL, 2),
        "lowrank_trace": trace_norm(dL),
    }


def _residual_norms(R):
    return entrywise_norm(R, 1), trace_norm(R), entrywise_norm(R, 2)


def _kkt_residual(Y, X_S, X_L_factors, R, lam, mu, b):
    """Worst first-order optimality violation of the penalized program at
    (X_S, X_L), using the precomputed thin factors of X_L.

    The trace-norm block needs -R/mu to project onto X_L's singular
    subspaces as the orientation matrix and to have spectral norm at most
    1; the l1 block needs -R/(lam*mu) to match sign(X_S) on its support and
    stay within [-1, 1] off it, with one-sided relaxations at box-active
    entries.
    """
    U, Vt = X_L_factors
    GL = -R / mu
    if U.shape[1]:
        om = U @ Vt
        PT = U @ (U.T @ GL) + (GL @ Vt.T - U @ (U.T @ (GL @ Vt.T))) @ Vt
        r_L = float(np.abs(PT - om).max())
    else:
        r_L = 0.0
    r_L = max(r_L, max(0.0, induced_norm(GL, "2->2") - 1.0))

    GS = GL / lam
    sg = np.sign(X_S)
    on = sg != 0
    off = ~on
    if np.isinf(b):
        upper = np.zeros_like(on)
        lower = np.zeros_like(on)
    else:
        D = X_S - Y
        edge = 1e-12 * max(1.0, b)
        upper = D >= b - edge
        lower = D <= -b + edge
    interior = ~(upper | lower)
    viol = 0.0
    mask = on & interior
    if mask.any():
        viol = max(viol, float(np.abs(GS[mask] - sg[mask]).max()))
    mask = off & interior
    if mask.any():
        viol = max(viol, max(0.0, float(np.abs(GS[mask]).max()) - 1.0))
    # At a box edge the stationarity equation gains a one-signed multiplier:
    # at the upper edge GS may exceed the plain subgradient, at the lower
    # edge it may fall below it.
    mask = upper
    if mask.any():
        g = np.where(on[mask], sg[mask], -1.0)
        viol = max(viol, max(0.0, float((g - GS[mask]).max())))
    mask = lower
    if mask.any():
        g = np.where(on[mask], sg[mask], 1.0)
        viol = max(viol, max(0.0, float((GS[mask] - g).max())))
    return max(r_L, viol)


def solve_regularized(Y, cfg):
    """Exact alternating block minimization of the penalized objective.

    Each sweep takes the exact prox step in X_S (soft threshold into the
    box around Y) then in X_L (singular-value threshold), so the objective
    never increases. Exit requires both a relative objective decrease at
    most cfg.tol and first-order optimality residuals at most KKT_EXIT_TOL;
    hitting max_iter returns converged=False.
    """
    cfg.validate()
    Y = as_matrix(Y, "Y")
    m, n = Y.shape
    X_S = np.zeros((m, n))
    X_L = np.zeros((m, n))
    factors = (np.zeros((m, 0)), np.zeros((0, n)))
    lam, mu = cfg.lam, cfg.mu
    obj = (0.5 / mu) * float((Y ** 2).sum())
    converged = False
    iterations = 0
    kkt = math.inf
    for iterations in range(1, cfg.max_iter + 1):
        X_S = prox_l1_box(Y - X_L, Y, lam * mu, cfg.b)
        M = Y - X_S
        U, s, Vt = thin_svd(M)
        s = np.maximum(s - mu, 0.0)
        keep = s > 0
        X_L = (U[:, keep] * s[keep]) @ Vt[keep, :] if keep.any() else np.zeros((m, n))
        factors = (U[:, keep], Vt[keep, :])
        R = X_S + X_L - Y
        new_obj = (
            (0.5 / mu) * float((R ** 2).sum())
            + lam * entrywise_norm(X_S, 1)
            + float(s[keep].sum())
        )
        decrease = (obj - new_obj) / max(1.0, abs(obj))
        obj = new_obj
        if decrease <= cfg.tol:
            kkt = _kkt_residual(Y, X_S, factors, R, lam, mu, cfg.b)
            if kkt <= KKT_EXIT_TOL:
                converged = True
                break
    R = X_S + X_L - Y
    rv1, rst, rv2 = _residual_norms(R)
    return SolveReport(
        X_S_hat=X_S, X_L_hat=X_L, iterations=iterations, objective=obj,
        residual_v1=rv1, residual_star=rst, residual_v2=rv2,
        converged=converged, mode="regularized",
        diagnostics={"kkt_residual": kkt, "objective_decrease": decrease},
    )


def solve_constrained(Y, cfg):
    """Gauss-Seidel ADMM for the constrained program.

    The residual X_S + X_L - Y gets one copy R_j per residual ball, each
    with its own constraint X_S + X_L - Y = R_j and scaled dual W_j. A cap
    of zero on either norm forces a zero residual, so that case (the exact
    split) keeps a single copy fixed at R = 0. A finite box adds a copy B
    of X_L with the constraint X_L = B and dual V, and B is returned as
    X_L_hat. Each sweep takes the l1 prox in X_S, then the singular-value
    threshold in X_L, each at the mean of the centres of the k constraints
    the block enters (thresholds lam/(k*eta) and 1/(k*eta)), then projects
    every copy onto its set. The penalty eta starts at 1 and is rebalanced
    every 10 sweeps when one residual exceeds the other tenfold.

    Exit requires primal and dual residuals at most cfg.tol, and in the
    relaxed mode also that the solution's own residual norms exceed the
    caps by at most 10*cfg.tol; hitting max_iter returns converged=False.
    """
    cfg.validate()
    Y = as_matrix(Y, "Y")
    lam, b = cfg.lam, cfg.b
    exact = cfg.eps_v1 == 0 or cfg.eps_star == 0
    balls = () if exact else (
        (project_l1_ball, cfg.eps_v1), (project_nuclear_ball, cfg.eps_star))
    k = max(1, len(balls))
    boxed = not math.isinf(b)
    eta = 1.0
    X_L = np.zeros(Y.shape)
    W = [np.zeros(Y.shape) for _ in range(k)]
    R = [np.zeros(Y.shape) for _ in balls]
    B = np.zeros(Y.shape)
    V = np.zeros(Y.shape)
    converged = False
    rescalings = 0
    pri = dua = math.inf
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        W_bar = W[0] if k == 1 else sum(W) / k
        if balls:
            R_sum = sum(R)
            R_bar = R_sum / k
        C = Y - X_L - W_bar
        if balls:
            C += R_bar
        X_S = soft_threshold(C, lam / (k * eta))
        C = Y - X_S - W_bar
        if balls:
            C += R_bar
        if boxed:
            C = (k * C + B - V) / (k + 1)
        X_L_new = svt(C, 1.0 / ((k + boxed) * eta))
        # Dual residual of the X_S (X_L) step: eta times the change in the
        # blocks updated after it, summed over the constraints it enters.
        dual_S = X_L_new - X_L
        X_L = X_L_new
        D = X_S + X_L - Y
        dual_L = None
        if balls:
            pri_parts = []
            for j, (project, eps) in enumerate(balls):
                R[j] = project(D + W[j], eps)
                r = D - R[j]
                W[j] = W[j] + r
                pri_parts.append(entrywise_norm(r, 2))
            dual_L = sum(R) - R_sum
            dual_S = dual_L - k * dual_S
        else:
            W[0] = W[0] + D
            pri_parts = [entrywise_norm(D, 2)]
        if boxed:
            B_new = clip_entries(X_L + V, b)
            dual_L = B_new - B if dual_L is None else dual_L + (B_new - B)
            B = B_new
            r = X_L - B
            V = V + r
            pri_parts.append(entrywise_norm(r, 2))
        dual_parts = [entrywise_norm(dual_S, 2)]
        if dual_L is not None:
            dual_parts.append(entrywise_norm(dual_L, 2))
        pri = math.hypot(*pri_parts)
        dua = eta * math.hypot(*dual_parts)
        if pri <= cfg.tol and dua <= cfg.tol:
            if exact:
                converged = True
                break
            R_hat = X_S + (B if boxed else X_L) - Y
            gap_v1 = entrywise_norm(R_hat, 1) - cfg.eps_v1
            gap_star = trace_norm(R_hat) - cfg.eps_star
            if gap_v1 <= 10.0 * cfg.tol and gap_star <= 10.0 * cfg.tol:
                converged = True
                break
        if iterations % 10 == 0:
            if pri > 10.0 * dua:
                scale = 2.0
            elif dua > 10.0 * pri:
                scale = 0.5
            else:
                continue
            eta *= scale
            for Wj in W:
                Wj /= scale
            if boxed:
                V /= scale
            rescalings += 1
    X_L_hat = B if boxed else X_L
    rv1, rst, rv2 = _residual_norms(X_S + X_L_hat - Y)
    obj = lam * entrywise_norm(X_S, 1) + trace_norm(X_L_hat)
    return SolveReport(
        X_S_hat=X_S, X_L_hat=X_L_hat, iterations=iterations, objective=obj,
        residual_v1=rv1, residual_star=rst, residual_v2=rv2,
        converged=converged, mode="constrained",
        diagnostics={
            "primal_residual": pri,
            "dual_residual": dua,
            "penalty_final": eta,
            "penalty_rescalings": rescalings,
        },
    )


def bound_theorem2(prof, c, lam, eps_v1, eps_star):
    """Worst-case v1 error of either component for the constrained program
    under residual caps (eps_v1, eps_star)."""
    if c <= 1:
        raise ValueError("c must exceed 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    ab = prof.product
    if ab >= 1:
        raise PreconditionError(
            f"alpha*beta = {ab:.6g} is not < 1; the bound does not apply"
        )
    share = 1.0 / (1.0 - 1.0 / c)
    ratio = (2.0 - ab) / (1.0 - ab)
    return (1.0 + share * ratio) * eps_v1 + share * ratio * eps_star / lam


def bound_theorem3(prof, c, lam, mu, eps_2to2, eps_vinf, eps_star_prime,
                   kbar, rbar, b=math.inf):
    """Error bounds for the penalized program: the v1 and v2 bounds on the
    sparse-component error and the trace bound on the low-rank error.

    The v2 bound is min(v1 bound, sqrt(2*b*v1 bound)) when a box radius b
    is in force.
    """
    if c <= 1:
        raise ValueError("c must exceed 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    ab = prof.product
    if 1.0 - ab <= 0:
        raise PreconditionError(
            f"alpha*beta = {ab:.6g} is not < 1; the bound does not apply"
        )
    if mu <= 0:
        if eps_2to2 or eps_vinf or eps_star_prime:
            raise ValueError("mu must be positive when perturbation scales are nonzero")
        imu = 0.0
        mu = 0.0
    else:
        imu = 1.0 / mu
    iev = imu * eps_vinf
    ie2 = imu * eps_2to2
    geo = 1.0 / (1.0 - ab)
    core = lam + prof.gamma + iev
    rank_growth = (lam + iev) * (2.0 * kbar * geo) * core \
        + (1.0 + 2.0 * ie2) * 2.0 * rbar * (
            2.0 * prof.alpha_star * geo * core + 1.0 + 2.0 * ie2
        )
    share = 1.0 / (1.0 - 1.0 / c)
    bound_S_v1 = geo * (
        rank_growth * share * mu / lam
        + lam * kbar * mu
        + 2.0 * math.sqrt(kbar * rbar) * mu
        + kbar * eps_vinf
    )
    if math.isinf(b):
        bound_S_v2 = bound_S_v1
    else:
        bound_S_v2 = min(bound_S_v1, math.sqrt(2.0 * b * bound_S_v1))
    bound_L_star = math.sqrt(2.0 * rbar) * bound_S_v2 + eps_star_prime \
        + (rank_growth * share / 2.0 + 2.0 * rbar) * mu
    return bound_S_v1, bound_S_v2, bound_L_star
