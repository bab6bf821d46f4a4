"""Solvers for the two decomposition programs and the error-bound oracles.

Both programs are solved by one Gauss-Seidel ADMM loop. Each sweep takes
the l1 prox in X_S (soft threshold, into a box around Y in the penalized
program), then the singular-value threshold in X_L, then the prox of each
residual copy: a closed-form shrink for the penalized program's quadratic
data fit, l1-ball and nuclear-ball projections for the constrained
program's residual caps, and entrywise clipping for its box on X_L. The
penalized solve exits on its first-order optimality residual; the
constrained solve on its primal and dual residuals.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .incoherence import PreconditionError
from .matrices import as_matrix, singular_values
from .norms import entrywise_norm, trace_norm
from .prox import _project_l1_ball, _project_nuclear_ball, _soft_threshold, _svt
from .subspaces import RowColSpace, project_T

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


@dataclass
class RegularizedConfig:
    """Parameters of the penalized solve: lam and mu positive, b the box
    radius on entries of X_S - Y (inf disables it), tol the first-order
    optimality residual required at exit."""

    lam: float
    mu: float
    b: float = math.inf
    tol: float = 1e-6
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


def _kkt_l1_block(Y, X_S, GS, b):
    """Worst violation of GS in the l1 subdifferential at X_S: GS must
    match sign(X_S) on its support and stay within [-1, 1] off it, with
    one-sided relaxations at entries on the edge of the box |X_S - Y| <= b.
    """
    sg = np.sign(X_S)
    on = sg != 0
    viol = np.where(on, np.abs(GS - sg), np.abs(GS) - 1.0)
    if not np.isinf(b):
        # At a box edge the stationarity equation gains a one-signed
        # multiplier: at the upper edge GS may exceed the plain subgradient,
        # at the lower edge it may fall below it.
        D = X_S - Y
        edge = 1e-12 * max(1.0, b)
        upper = D >= b - edge
        lower = D <= -b + edge
        viol[upper | lower] = -np.inf
        viol = np.maximum(viol, np.where(upper, np.where(on, sg, -1.0) - GS, -np.inf))
        viol = np.maximum(viol, np.where(lower, GS - np.where(on, sg, 1.0), -np.inf))
    return float(viol.max(initial=0.0))


def _kkt_trace_block(GL, U, Vt):
    """Worst violation of GL in the trace-norm subdifferential at the
    matrix with thin factors U, Vt: its projection onto their tangent space
    must equal U Vt, and its spectral norm must be at most 1."""
    r = 0.0
    if U.shape[1]:
        PT = project_T(RowColSpace(U, Vt.T, check=False), GL)
        PT -= U @ Vt
        r = float(np.abs(PT).max())
    s = singular_values(GL)
    return max(r, float(s[0]) - 1.0 if s.size else 0.0)


def _admm(Y, lam, copies, stop, max_iter, S_box=None, b_L=math.inf):
    """Gauss-Seidel ADMM on lam*||X_S||_1 + ||X_L||_* plus the residual
    terms, shared by both solvers. Y must already be validated.

    copies lists the proxes of the residual terms: the residual X_S + X_L
    - Y gets one copy R_j per entry, with its own constraint X_S + X_L - Y
    = R_j and scaled dual W_j, and prox(V, eta) returns the new R_j from V
    = X_S + X_L - Y + W_j (it may overwrite V). An empty list forces exact
    agreement: a single constraint with R fixed at 0. S_box = (lo, hi)
    keeps X_S entrywise in [lo, hi]. A finite b_L adds a copy B of X_L with
    the constraint X_L = B and dual V, and B is returned as X_L_hat.

    Each sweep takes the l1 prox in X_S, then the singular-value threshold
    in X_L, each at the mean of the centres of the k constraints the block
    enters (thresholds lam/(k*eta) and 1/(k*eta)), then updates every copy
    and dual. The penalty eta starts at 1 and is rebalanced every 10 sweeps
    when one residual exceeds the other tenfold. The loop exits when
    stop(X_S, X_L_hat, X_L_factors, D, pri, dua) is true, where D = X_S +
    X_L - Y and pri and dua are the primal and dual residuals.

    Returns X_S, X_L_hat, the (U, s, Vt) factors of the last X_L, the
    iteration count, the converged flag and the penalty diagnostics.
    """
    k = max(1, len(copies))
    boxed = not math.isinf(b_L)
    eta = 1.0
    X_L = np.zeros(Y.shape)
    W = [np.zeros(Y.shape) for _ in range(k)]
    R = [np.zeros(Y.shape) for _ in copies]
    B = np.zeros(Y.shape)
    V = np.zeros(Y.shape)
    converged = False
    rescalings = 0
    pri = dua = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        W_bar = W[0] if k == 1 else sum(W) / k
        if copies:
            R_sum = R[0] if k == 1 else sum(R)
            R_bar = R_sum if k == 1 else R_sum / k
        C = Y - X_L
        C -= W_bar
        if copies:
            C += R_bar
        X_S = _soft_threshold(C, lam / (k * eta))
        if S_box is not None:
            np.clip(X_S, *S_box, out=X_S)
        np.subtract(Y, X_S, out=C)
        C -= W_bar
        if copies:
            C += R_bar
        if boxed:
            C = (k * C + B - V) / (k + 1)
        X_L_new, *factors = _svt(C, 1.0 / ((k + boxed) * eta))
        del C  # full-size temporaries are freed early to keep peak memory down
        # Dual residual of the X_S (X_L) step: eta times the change in the
        # blocks updated after it, summed over the constraints it enters.
        dual_S = X_L_new - X_L
        X_L = X_L_new
        D = X_S + X_L - Y
        dual_L = None
        pri_parts = []
        if copies:
            for j, prox in enumerate(copies):
                R[j] = prox(D + W[j], eta)
                r = D - R[j]
                W[j] += r
                pri_parts.append(np.linalg.norm(r))
            dual_L = (R[0] if k == 1 else sum(R)) - R_sum
            dual_S *= k
            np.subtract(dual_L, dual_S, out=dual_S)
        else:
            W[0] += D
            pri_parts.append(np.linalg.norm(D))
        if boxed:
            B_new = np.clip(X_L + V, -b_L, b_L)
            dual_L = B_new - B if dual_L is None else dual_L + (B_new - B)
            B = B_new
            r = X_L - B
            V += r
            pri_parts.append(np.linalg.norm(r))
        dual_parts = [np.linalg.norm(dual_S)]
        if dual_L is not None:
            dual_parts.append(np.linalg.norm(dual_L))
        pri = math.hypot(*pri_parts)
        dua = eta * math.hypot(*dual_parts)
        del dual_S, dual_L
        if stop(X_S, B if boxed else X_L, factors, D, pri, dua):
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
    diagnostics = {
        "primal_residual": pri,
        "dual_residual": dua,
        "penalty_final": eta,
        "penalty_rescalings": rescalings,
    }
    return X_S, B if boxed else X_L, factors, iterations, converged, diagnostics


def solve_regularized(Y, cfg):
    """ADMM for the penalized program.

    The data-fit term gets one residual copy R with the constraint X_S +
    X_L - Y = R; its prox at penalty eta is the shrink R = eta*mu/(eta*mu +
    1) * (X_S + X_L - Y + W). Each sweep takes the box-constrained l1 prox
    in X_S and the singular-value threshold in X_L.

    Exit requires the first-order optimality residual of (X_S, X_L) to be
    at most cfg.tol: with R = X_S + X_L - Y, -R/(lam*mu) must lie in the l1
    subdifferential at X_S (relaxed at box edges) and -R/mu in the
    trace-norm subdifferential at X_L. The entrywise block is checked every
    sweep, the spectral block (one tangent-space projection and one
    sigma_1) only once the entrywise block passes; diagnostics count those
    spectral checks. Hitting max_iter returns converged=False.
    """
    cfg.validate()
    Y = as_matrix(Y, "Y")
    lam, mu, b, tol = cfg.lam, cfg.mu, cfg.b, cfg.tol
    S_box = None if math.isinf(b) else (Y - b, Y + b)
    kkt = math.inf
    spectral_checks = 0

    def shrink(V, eta):
        V *= eta * mu / (eta * mu + 1.0)
        return V

    def stop(X_S, X_L, factors, D, pri, dua):
        nonlocal kkt, spectral_checks
        kkt = _kkt_l1_block(Y, X_S, D / (-lam * mu), b)
        if kkt > tol:
            return False
        spectral_checks += 1
        kkt = max(kkt, _kkt_trace_block(D / -mu, factors[0], factors[2]))
        return kkt <= tol

    X_S, X_L, (U, s, Vt), iterations, converged, diagnostics = _admm(
        Y, lam, [shrink], stop, cfg.max_iter, S_box=S_box)
    R = X_S + X_L - Y
    if not converged:
        kkt = max(_kkt_l1_block(Y, X_S, R / (-lam * mu), b),
                  _kkt_trace_block(R / -mu, U, Vt))
    obj = (
        (0.5 / mu) * float((R ** 2).sum())
        + lam * entrywise_norm(X_S, 1)
        + float(s.sum())
    )
    rv1, rst, rv2 = _residual_norms(R)
    diagnostics.update(kkt_residual=kkt, spectral_checks=spectral_checks)
    return SolveReport(
        X_S_hat=X_S, X_L_hat=X_L, iterations=iterations, objective=obj,
        residual_v1=rv1, residual_star=rst, residual_v2=rv2,
        converged=converged, mode="regularized", diagnostics=diagnostics,
    )


def solve_constrained(Y, cfg):
    """ADMM for the constrained program.

    The residual gets one copy per residual ball, projected onto it at
    every sweep. A cap of zero on either norm forces a zero residual, so
    that case (the exact split) keeps a single copy fixed at R = 0. A finite
    box adds a clipped copy of X_L, returned as X_L_hat.

    Exit requires primal and dual residuals at most cfg.tol, and in the
    relaxed mode also that the solution's own residual norms exceed the
    caps by at most 10*cfg.tol; hitting max_iter returns converged=False.
    """
    cfg.validate()
    Y = as_matrix(Y, "Y")
    lam, tol = cfg.lam, cfg.tol
    exact = cfg.eps_v1 == 0 or cfg.eps_star == 0
    copies = [] if exact else [
        lambda V, eta: _project_l1_ball(V, cfg.eps_v1),
        lambda V, eta: _project_nuclear_ball(V, cfg.eps_star),
    ]

    def stop(X_S, X_L_hat, factors, D, pri, dua):
        if pri > tol or dua > tol:
            return False
        if exact:
            return True
        R_hat = X_S + X_L_hat - Y
        return (entrywise_norm(R_hat, 1) - cfg.eps_v1 <= 10.0 * tol
                and trace_norm(R_hat) - cfg.eps_star <= 10.0 * tol)

    X_S, X_L_hat, _, iterations, converged, diagnostics = _admm(
        Y, lam, copies, stop, cfg.max_iter, b_L=cfg.b)
    rv1, rst, rv2 = _residual_norms(X_S + X_L_hat - Y)
    obj = lam * entrywise_norm(X_S, 1) + trace_norm(X_L_hat)
    return SolveReport(
        X_S_hat=X_S, X_L_hat=X_L_hat, iterations=iterations, objective=obj,
        residual_v1=rv1, residual_star=rst, residual_v2=rv2,
        converged=converged, mode="constrained", diagnostics=diagnostics,
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
