"""Solvers for the two decomposition programs and the error-bound oracles.

Both programs are solved by one Gauss-Seidel ADMM loop. Each sweep takes
the l1 prox in X_S (soft threshold, into a box around Y in the penalized
program), then the singular-value threshold in X_L, then the prox of each
residual copy: a closed-form shrink for the penalized program's quadratic
data fit, l1-ball and nuclear-ball projections for the constrained
program's residual caps, and entrywise clipping for its box on X_L. Each
copy, and the box, is a constraint block with its own penalty and scaled
dual, rebalanced on its own primal and dual residuals. Both solves exit on
a certified relative duality gap.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .incoherence import PreconditionError, _check_premises, inverse_mu
from .matrices import _is_integer, _spectral_norm, as_matrix
from .norms import (
    _entrywise_norm,
    _frobenius,
    _trace_norm,
    entrywise_norm,
    trace_norm,
)
from .prox import (
    SvtWarmStart,
    _project_l1_ball,
    _project_nuclear_ball,
    _soft_threshold,
    _svt,
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


def _check_shared(cfg):
    """The checks both configs share. Negated comparisons, so that NaN fails
    each check."""
    if not 0.0 < cfg.lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {cfg.lam!r}")
    if not cfg.b > 0:
        raise ValueError("box radius must be positive")
    if not cfg.tol >= 0:
        raise ValueError("tol must be nonnegative")
    if not _is_integer(cfg.max_iter, 1):
        raise ValueError("max_iter must be an integer of at least 1")


@dataclass(frozen=True)
class RegularizedConfig:
    """Parameters of the penalized solve: lam and mu positive and finite, b
    the box radius on entries of X_S - Y (inf disables it), tol the relative
    duality gap required at exit. Checked when built."""

    lam: float
    mu: float
    b: float = math.inf
    tol: float = 1e-6
    max_iter: int = 100000

    def __post_init__(self):
        _check_shared(self)
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")


@dataclass(frozen=True)
class ConstrainedConfig:
    """Parameters of the constrained solve: residual caps eps_v1/eps_star
    (a zero cap on either means exact agreement), b the box radius on
    entries of X_L (inf disables it), tol the relative duality gap required
    at exit, and the bound on the ADMM residuals that gates the gap.
    Checked when built."""

    lam: float
    eps_v1: float = 0.0
    eps_star: float = 0.0
    b: float = math.inf
    tol: float = 1e-9
    max_iter: int = 100000

    def __post_init__(self):
        _check_shared(self)
        if not (self.eps_v1 >= 0 and self.eps_star >= 0):
            raise ValueError("residual caps must be nonnegative")


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


def _weighted_mean(arrays, weights, out, work):
    """sum_j w_j A_j / sum_j w_j, written into out, with work a free buffer
    for the terms. A single array is its own mean and comes back as it
    is."""
    if len(arrays) == 1:
        return arrays[0]
    total = sum(weights)
    np.multiply(arrays[0], weights[0] / total, out=out)
    for A, w in zip(arrays[1:], weights[1:]):
        out += np.multiply(A, w / total, out=work)
    return out


def _admm(Y, lam, copies, gap_terms, tol, max_iter, eta0, mode, fit=None,
          S_box=None, b_L=math.inf, abandon=None):
    """Gauss-Seidel ADMM on lam*||X_S||_1 + ||X_L||_* plus the residual
    terms, shared by both solvers. Y must already be validated.

    copies lists the proxes of the residual terms: the residual X_S + X_L
    - Y gets one copy R_j per entry, with its own constraint X_S + X_L - Y
    = R_j, and prox(V, eta_j) returns the new R_j from V = X_S + X_L - Y +
    W_j (it may overwrite V and return it). An empty list forces exact
    agreement: a single constraint with R fixed at 0. S_box = (lo, hi)
    keeps X_S entrywise in [lo, hi]. A finite b_L adds a copy B of X_L with
    the constraint X_L = B, and B is returned as X_L_hat.

    Each constraint is a block with its own penalty eta_j and scaled dual:
    W_j for the residual constraints, V for the box, which comes last.
    With H = sum_j eta_j over the residual blocks, each sweep takes the l1
    prox in X_S at threshold lam/H, centred at the eta-weighted mean of
    the residual blocks' centres Y - X_L + R_j - W_j, then the
    singular-value threshold in X_L at 1/(H + eta_B) (1/H unboxed),
    centred at the eta-weighted mean of Y - X_S + R_j - W_j and B - V, then
    updates every copy and dual. With D = X_S + X_L - Y and d the change
    over the sweep, block j's primal residual is ||D - R_j|| and its dual
    residual eta_j*||dR_j - dX_L||, which is eta*||dX_L|| for the fixed R =
    0 of exact agreement; the box's are ||X_L - B|| and eta_B*||dB||. pri
    and dua, the hypot of the blocks' residuals, are passed to gap_terms.

    Every penalty starts at eta0 and is rebalanced every 10 sweeps on its
    own block's residuals (Boyd et al. 2011, ADMM, section 3.4.1) when one
    of eta0*pri_j and dua_j exceeds the other tenfold, or, once one of them
    is at most tol, when the other exceeds tol and the first twofold: near
    the exit the lagging residual would otherwise stay up to ten times
    above tol (balancing against the stopping test, as in Wohlberg,
    arXiv:1704.06209). A rescaling divides only that block's dual. The
    rule compares eta0*pri_j rather than pri_j, so that a caller whose eta0
    scales as 1/Y compares two scale-free quantities and takes the same
    sweeps on cY as on Y. When a rescaling leaves H at 0 or H + eta_B at
    inf, the loop ends unconverged: the X_S step would threshold at lam/0,
    and at an infinite penalty the steps threshold at 0 and a dual
    residual is inf*0 = NaN. The box's penalty alone may reach 0, as it
    does for a box that never binds, whose primal residual is exactly 0:
    its weight in the X_L step's centre is then 0, and B stays the clip of
    X_L + V. Exact agreement without a box takes the arithmetic of a
    single penalty, to the bit.

    Each sweep ends with gap_terms(X_S, X_L_hat, s, D, pri, dua, work,
    duals, etas), where s holds the last threshold step's kept singular
    values, work is a free full-size buffer, duals the scaled duals and
    etas the penalties, both in block order; it may overwrite D and work,
    and must not write the duals. It returns None while the caller's gate
    is shut, and otherwise (P, dual, scale, M, unit): the objective P at a
    feasible point, dual(k) the dual value at the caller's dual point over
    k, scale the k that puts that point in the l1 term's dual ball, and
    sigma_bar = _sigma_bar(M)/unit the k for the spectral one. The relative
    gap (P - d)/P, 0 at P = 0 unless d < 0, taken at scale alone is a gate:
    only when it is at most tol is sigma_bar computed (spectral_checks
    counts these) and the gap retaken at max(scale, sigma_bar). The loop
    exits converged when that certified gap is at most tol (Boyd et al.
    2011, ADMM, section 3.3). duality_gap is the last gap computed, inf
    when none was; at max_iter it may lack sigma_bar.

    The full-size work arrays live across sweeps and are updated in place:
    the centre C of the threshold steps, X_S (the soft threshold writes
    into it, with D as its sign buffer), D, the change in X_L, with several
    residual blocks the weighted means of the W_j and R_j, and for the
    copies one residual buffer and one buffer for D + W_j (the previous
    R_j's buffer once the shrink has kept its argument). X_L is the one
    array a sweep allocates anew, since the threshold step's product forms
    it. Every update keeps the operand order of the plain expressions, so
    the bits are theirs. The Frobenius norms overflow and underflow only
    where they must (see norms._frobenius).

    When min(m, n) >= PARTIAL_SVT_MIN_DIM, the threshold step computes only
    the leading singular triplets, warm-started from the last sweep's right
    singular block; smaller problems take the triplets above the threshold
    from the Gram's eigendecomposition while its error bound delta is below
    tol/100, else a full SVD (see prox.SvtWarmStart). The gap is certified
    from X_L = U diag(s) Vt alone, with ||X_L||_* read as sum(s): exact
    after a full SVD or a partial step, and within a relative delta after
    a Gram step. So a partial step that misses values costs sweeps, not a
    wrong exit.

    abandon, when given, is a predicate abandon(X_L, s) on the last
    threshold step's output and its kept singular values. It runs every 10
    sweeps, after the exit test and before the rebalancing; when it holds,
    the loop ends unconverged. A caller that can prove from (X_L, s) that
    the solve will not reach the answer it wants uses it to stop early;
    a sweep that it lets pass is computed as without it, to the bit.

    Returns the SolveReport of mode. Its objective is fit(||R||_F) +
    lam*||X_S||_1 + ||X_L_hat||_*, with R = X_S + X_L_hat - Y, fit the
    caller's data term (0 when omitted), and the trace norm sum(s) unboxed,
    where X_L_hat is the last U diag(s) Vt. Its diagnostics are the final
    residuals, the penalties in block order and the total number of
    rescalings, partial_svds, the number of threshold steps served by the
    partial path, abandoned_at, the sweep at which abandon held (None when
    it never did), duality_gap and spectral_checks.
    """
    n_res = max(1, len(copies))
    boxed = not math.isinf(b_L)
    etas = [eta0] * (n_res + boxed)
    shape = Y.shape
    C, X_S, D, dX_L = (np.empty(shape) for _ in range(4))
    if copies:
        r, spare = np.empty(shape), np.empty(shape)
    W = [np.zeros(shape) for _ in range(n_res)]
    R = [np.zeros(shape) for _ in copies]
    W_buf, R_buf = (np.empty(shape), np.empty(shape)) if n_res > 1 else (None, None)
    X_L = np.zeros(shape)
    if boxed:
        B, V = np.zeros(shape), np.zeros(shape)
        B_next, r_B = np.empty(shape), np.empty(shape)
    duals = (W + [V]) if boxed else W
    converged = False
    rescalings = spectral_checks = 0
    warm = SvtWarmStart(shape, tol)
    pri = dua = gap = math.inf
    abandoned_at = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta_res = etas[:n_res]
        H = sum(eta_res)
        # r is free until the copies' updates below.
        W_bar = _weighted_mean(W, eta_res, W_buf, r if copies else None)
        if copies:
            R_bar = _weighted_mean(R, eta_res, R_buf, r)
        np.subtract(Y, X_L, out=C)
        C -= W_bar
        if copies:
            C += R_bar
        _soft_threshold(C, lam / H, out=X_S, sign=D)
        if S_box is not None:
            np.clip(X_S, *S_box, out=X_S)
        np.subtract(Y, X_S, out=C)
        C -= W_bar
        if copies:
            C += R_bar
        if boxed:
            t_L = 1.0 / (H + etas[-1])
            C *= H * t_L
            np.subtract(B, V, out=r_B)
            r_B *= etas[-1] * t_L
            C += r_B
        else:
            t_L = 1.0 / H
        X_L_new, s = _svt(C, t_L, warm)
        np.subtract(X_L_new, X_L, out=dX_L)
        X_L = X_L_new
        np.add(X_S, X_L, out=D)
        D -= Y
        with np.errstate(over="ignore"):
            if copies:
                pri_parts, dua_parts = [], []
                for j, prox in enumerate(copies):
                    R_old = R[j]
                    R[j] = prox(np.add(D, W[j], out=spare), etas[j])
                    np.subtract(D, R[j], out=r)
                    W[j] += r
                    pri_parts.append(_frobenius(r))
                    # R_old's buffer takes dR_j now, and D + W_j next time
                    # when the shrink has kept its argument.
                    dR = np.subtract(R[j], R_old, out=R_old)
                    dR -= dX_L
                    dua_parts.append(etas[j] * _frobenius(dR))
                    if R[j] is spare:
                        spare = R_old
            else:
                W[0] += D
                pri_parts, dua_parts = [_frobenius(D)], [etas[0] * _frobenius(dX_L)]
            if boxed:
                B_new = np.add(X_L, V, out=B_next)
                np.clip(B_new, -b_L, b_L, out=B_new)
                B_step = np.subtract(B_new, B, out=B)
                B, B_next = B_new, B_step
                np.subtract(X_L, B, out=r_B)
                V += r_B
                pri_parts.append(_frobenius(r_B))
                dua_parts.append(etas[-1] * _frobenius(B_step))
            pri = math.hypot(*pri_parts)
            dua = math.hypot(*dua_parts)
        terms = gap_terms(X_S, B if boxed else X_L, s, D, pri, dua, dX_L, duals, etas)
        if terms is not None:
            primal, dual, scale, M, unit = terms
            gap = _relative_gap(primal, dual(scale))
            if gap <= tol:
                spectral_checks += 1
                sigma_bar = _sigma_bar(M) / unit
                if sigma_bar > scale:
                    gap = _relative_gap(primal, dual(sigma_bar))
                if gap <= tol:
                    converged = True
                    break
        if iterations % 10 == 0:
            if abandon is not None and abandon(X_L, s):
                abandoned_at = iterations
                break
            rescaled = False
            for j, (p, d) in enumerate(zip(pri_parts, dua_parts)):
                p *= eta0
                if p > 10.0 * d or (d <= tol < p and p > 2.0 * d):
                    factor = 2.0
                elif d > 10.0 * p or (p <= tol < d and d > 2.0 * p):
                    factor = 0.5
                else:
                    continue
                etas[j] *= factor
                duals[j] /= factor
                rescalings += 1
                rescaled = True
            if rescaled and not (sum(etas[:n_res]) > 0.0 and sum(etas) < math.inf):
                break
    X_L_hat = B if boxed else X_L
    R_hat = X_S + X_L_hat - Y
    rv2 = _entrywise_norm(R_hat, 2)
    nuclear = _trace_norm(X_L_hat) if boxed else float(s.sum())
    objective = (fit(rv2) if fit else 0.0) + lam * _entrywise_norm(X_S, 1) + nuclear
    diagnostics = {
        "primal_residual": pri,
        "dual_residual": dua,
        "penalty_final": etas,
        "penalty_rescalings": rescalings,
        "partial_svds": warm.partial_svds,
        "abandoned_at": abandoned_at,
        "duality_gap": gap,
        "spectral_checks": spectral_checks,
    }
    return SolveReport(
        X_S_hat=X_S, X_L_hat=X_L_hat, iterations=iterations, objective=objective,
        residual_v1=_entrywise_norm(R_hat, 1), residual_star=_trace_norm(R_hat),
        residual_v2=rv2, converged=converged, mode=mode, diagnostics=diagnostics,
    )


def _sigma_bar(M):
    """sigma_1(M) from _spectral_norm, inflated by its max(m, n)*eps error."""
    return _spectral_norm(M) * (1.0 + max(M.shape) * np.finfo(float).eps)


def _relative_gap(primal, dual):
    """(P - d)/P, 0 at P = 0 unless d < 0."""
    g = primal - dual
    return g / primal if primal > 0 else (0.0 if g <= 0 else math.inf)


def _box_conjugate(Q, Y, b, lam):
    """The conjugate of lam*||S||_1 on the box |S - Y| <= b at Q: the sum
    over entries of the largest q*s - lam*|s| on [y - b, y + b]. Concave
    and kinked only at 0, it peaks at an end or at clip(0, y - b, y + b)."""
    lo, hi = Y - b, Y + b
    best = np.full(Y.shape, -math.inf)
    for S in (lo, hi, np.clip(0.0, lo, hi)):
        np.maximum(best, Q * S - lam * np.abs(S), out=best)
    return float(best.sum())


def solve_regularized(Y, cfg):
    """ADMM for the penalized program: minimize P = lam*||X_S||_1 +
    ||X_L||_* + ||R||_F^2 / (2 mu), R = X_S + X_L - Y, with X_S in the box
    |X_S - Y| <= b when b is finite.

    The data-fit term gets one residual copy R with the constraint X_S +
    X_L - Y = R; its prox at penalty eta is the shrink R = eta*mu/(eta*mu +
    1) * (X_S + X_L - Y + W). Each sweep takes the box-constrained l1 prox
    in X_S and the singular-value threshold in X_L.

    The penalty starts at eta0 = mn/(4*||Y||_1) (Candes, Li, Ma & Wright,
    arXiv:0912.3599), or at 1 when that is not positive and finite, and
    _admm rebalances it on eta0*pri against dua. Both scale as 1/Y, so the
    solve of (cY, c*mu) takes the same sweeps as that of (Y, mu).

    Exit requires the relative duality gap (P - d)/P to be at most
    cfg.tol (Boyd et al. 2011, ADMM, section 3.3). By Fenchel-Young,
    ||R||_F^2 / (2 mu) >= -<Q, R> - (mu/2)||Q||_F^2 for every Q, so P >=
    d(Q) = <Q, Y> - (mu/2)||Q||_F^2 - f*(Q) - g*(Q), with f* and g* the
    conjugates of lam*||.||_1 on the box and of ||.||_*. g* is 0 where
    ||Q||_2 <= 1 and inf elsewhere; so is f* where ||Q||_inf <= lam without
    a box, and with one it is the finite _box_conjugate. The dual point is
    Q = -R/mu, which attains P at the optimum, times kappa = 1/max(1,
    ||Q||_inf/lam, sigma_bar), the middle term only without a box, and
    sigma_bar >= ||Q||_2 computed as _admm says. P takes ||X_L||_* as
    sum(s) for the threshold step's X_L = U diag(s) Vt: exact after a full
    SVD or a partial step, within a relative delta < tol/100 after a Gram
    step (see prox.SvtWarmStart). P and d are homogeneous of degree 1 in
    (Y, X_S, X_L, mu, b), so both are evaluated exactly on these times
    2^-e, with max(max|Y|, mu) in [2^(e-1), 2^e), clear of overflow and
    underflow at any scale. The gap certifies the objective, not the
    first-order residual of (X_S, X_L).
    """
    Y = as_matrix(Y, "Y")
    lam, mu, b, tol = cfg.lam, cfg.mu, cfg.b, cfg.tol
    boxed = not math.isinf(b)
    S_box = (Y - b, Y + b) if boxed else None
    l1 = _entrywise_norm(Y, 1)
    eta0 = Y.size / 4.0 / l1 if l1 > 0 else math.inf
    if not 0.0 < eta0 < math.inf:  # Y = 0, or a quotient out of range
        eta0 = 1.0
    e = math.frexp(max(_entrywise_norm(Y, np.inf), mu))[1]
    mu_e, b_e = math.ldexp(mu, -e), math.ldexp(b, -e)

    def shrink(V, eta):
        V *= eta * mu / (eta * mu + 1.0)
        return V

    def gap_terms(X_S, X_L, s, D, pri, dua, work, duals, etas):
        # At scale 2^-e: R in D, |X_S| and then Y in work.
        R = np.ldexp(D, -e, out=D)
        l1_S = float(np.abs(np.ldexp(X_S, -e, out=work), out=work).sum())
        r2 = _entrywise_norm(R, 2)
        primal = lam * l1_S + float(np.ldexp(s, -e).sum()) + (0.5 / mu_e * r2) * r2
        Y_e = np.ldexp(Y, -e, out=work)
        RY = float(np.vdot(R, Y_e))

        def dual(scale):
            k = 1.0 / (scale * mu_e)  # the dual point is -k*R
            value = -k * RY - (0.5 * mu_e * k * r2) * (k * r2)
            if boxed:
                value -= _box_conjugate(np.multiply(R, -k), Y_e, b_e, lam)
            return value

        scale = 1.0 if boxed else max(1.0, _entrywise_norm(R, np.inf) / (mu_e * lam))
        return primal, dual, scale, R, mu_e

    # The data term ||R||_F^2 / (2 mu), in an order that stays finite
    # wherever the value is.
    return _admm(Y, lam, [shrink], gap_terms, tol, cfg.max_iter, eta0, "regularized",
                 fit=lambda r2: (0.5 / mu * r2) * r2, S_box=S_box)


def solve_constrained(Y, cfg):
    """ADMM for the constrained program: minimize lam*||X_S||_1 + ||X_L||_*
    with R = X_S + X_L - Y in the balls ||R||_1 <= eps_v1 and ||R||_* <=
    eps_star, and |X_L| <= b entrywise when b is finite.

    The residual gets one copy per ball, projected onto it at every sweep;
    a zero cap forces R = 0, and that case (the exact split) keeps a single
    copy fixed at 0. A finite box adds a clipped copy B of X_L, returned as
    X_L_hat. Each ball, and the box, is a block of _admm with its own
    penalty eta_j, starting at 1 whatever the scale of Y. Over a sweep the
    X_S step leaves the dual feasibility of X_S off by sum_j eta_j (dR_j -
    dX_L), and the X_L step that of X_L by sum_j eta_j dR_j + eta_B dB; each
    residual block's dual residual is its term of the first, the box's its
    term of the second.

    Exit requires the relative duality gap (P - d)/P to be at most cfg.tol
    (Boyd et al. 2011, ADMM, section 3.3), computed once pri and dua are at
    most cfg.tol and, relaxed, the iterate's residual norms exceed the caps
    by at most 10*cfg.tol. Take multipliers Q_j = -eta_j W_j on the residual
    constraints, Q = sum_j Q_j, and y_B = eta_B V on X_L = B. The Lagrangian
    lam*||X_S||_1 + ||X_L||_* - <Q, X_S + X_L - Y> + sum_j <Q_j, R_j> + <y_B,
    X_L - B> has infimum 0 over X_S where ||Q||_inf <= lam and over X_L where
    ||Q - y_B||_2 <= 1, -eps_j times the dual norm of Q_j over R_j in its
    ball, and -b*||y_B||_1 over B in the box. So d = kappa*(<Q, Y> -
    eps_v1*||Q_1||_inf - eps_star*||Q_2||_2 - b*||y_B||_1), with kappa =
    1/max(1, ||Q||_inf/lam, sigma_bar) and sigma_bar >= ||Q - y_B||_2 as
    _admm computes it (||Q_2||_2 is bounded the same way), is at most
    every feasible objective. The exact split has no eps terms, an unboxed
    solve no y_B terms. P is the objective at the feasible point L =
    X_L_hat, S = Y - L + rho*R_hat, with R_hat = X_S + L - Y and rho =
    min(1, eps_v1/||R_hat||_1, eps_star/||R_hat||_*), 0 for the exact
    split; ||L||_* is sum(s) for the threshold step's U diag(s) Vt: exact
    after a full SVD or a partial step, within a relative delta < tol/100
    after a Gram step (see prox.SvtWarmStart). Both are evaluated on (Y,
    X_S, L, eps, b) times 2^-e, with max|Y| in [2^(e-1), 2^e). The solve
    returns the ADMM iterate, whose X_S differs from the certified S by (1
    - rho)*R_hat.
    """
    return _solve_constrained(Y, cfg)


def _solve_constrained(Y, cfg, abandon=None):
    """solve_constrained, with _admm's abandon predicate passed through
    (the sweep's proof of non-recovery)."""
    Y = as_matrix(Y, "Y")
    lam, eps_v1, eps_star, b, tol = cfg.lam, cfg.eps_v1, cfg.eps_star, cfg.b, cfg.tol
    exact = eps_v1 == 0 or eps_star == 0
    boxed = not math.isinf(b)
    copies = [] if exact else [
        lambda V, eta: _project_l1_ball(V, eps_v1),
        lambda V, eta: _project_nuclear_ball(V, eps_star),
    ]
    e = math.frexp(_entrywise_norm(Y, np.inf))[1]
    eps_v1_e, eps_star_e, b_e = (math.ldexp(x, -e) for x in (eps_v1, eps_star, b))

    def gap_terms(X_S, L, s, D, pri, dua, work, duals, etas):
        if not (pri <= tol and dua <= tol):  # NaN fails
            return None
        R = np.add(X_S, L, out=work)
        R -= Y
        rho = 0.0
        if not exact:
            r1, r_star = _entrywise_norm(R, 1), _trace_norm(R)
            if not (r1 - eps_v1 <= 10.0 * tol and r_star - eps_star <= 10.0 * tol):
                return None
            rho = min(eps_v1 / max(r1, eps_v1), eps_star / max(r_star, eps_star))
        # At scale 2^-e: |S| for S = X_S - (1 - rho) R in work, then L in D.
        S = np.multiply(R, rho - 1.0, out=work)
        S += X_S
        l1_S = float(np.abs(np.ldexp(S, -e, out=S), out=S).sum())
        nuclear = (_trace_norm(np.ldexp(L, -e, out=D)) if boxed
                   else float(np.ldexp(s, -e).sum()))
        primal = lam * l1_S + nuclear
        # Q = -sum_j eta_j W_j in D, and Y, then y_B = eta_B V in work.
        Q = np.multiply(duals[0], -etas[0], out=D)
        base = 0.0
        if not exact:
            Q -= np.multiply(duals[1], etas[1], out=work)
            base -= eps_v1_e * (etas[0] * _entrywise_norm(duals[0], np.inf))
            base -= eps_star_e * (etas[1] * _sigma_bar(duals[1]))
        base += float(np.vdot(Q, np.ldexp(Y, -e, out=work)))
        scale = max(1.0, _entrywise_norm(Q, np.inf) / lam)
        if boxed:
            y_B = np.multiply(duals[-1], etas[-1], out=work)
            base -= b_e * _entrywise_norm(y_B, 1)
            Q -= y_B
        return primal, lambda k: base / k, scale, Q, 1.0

    return _admm(Y, lam, copies, gap_terms, tol, cfg.max_iter, 1.0, "constrained",
                 b_L=b, abandon=abandon)


def _bound_share(prof, c, lam, *scales):
    """Check the premises of both error bounds (c and lambda, nonnegative
    perturbation scales, alpha*beta < 1) and return 1/(1 - 1/c)."""
    _check_premises(c, lam, *scales)
    if prof.product >= 1:
        raise PreconditionError(
            f"alpha*beta = {prof.product:.6g} is not < 1; the bound does not apply"
        )
    return 1.0 / (1.0 - 1.0 / c)


def bound_theorem2(prof, c, lam, eps_v1, eps_star):
    """Worst-case v1 error of either component for the constrained program
    under residual caps (eps_v1, eps_star)."""
    share = _bound_share(prof, c, lam, eps_v1, eps_star)
    ab = prof.product
    ratio = (2.0 - ab) / (1.0 - ab)
    return (1.0 + share * ratio) * eps_v1 + share * ratio * eps_star / lam


def bound_theorem3(prof, c, lam, mu, eps_2to2, eps_vinf, eps_star_prime,
                   kbar, rbar, b=math.inf):
    """Error bounds for the penalized program: the v1 and v2 bounds on the
    sparse-component error and the trace bound on the low-rank error.

    The v2 bound is min(v1 bound, sqrt(2*b*v1 bound)) when a box radius b
    is in force. A mu <= 0 counts as 0 (see inverse_mu).
    """
    share = _bound_share(prof, c, lam, eps_2to2, eps_vinf, eps_star_prime)
    imu = inverse_mu(mu, eps_2to2, eps_vinf, eps_star_prime)
    mu = max(mu, 0.0)
    iev = imu * eps_vinf
    ie2 = imu * eps_2to2
    geo = 1.0 / (1.0 - prof.product)
    core = lam + prof.gamma + iev
    rank_growth = (lam + iev) * (2.0 * kbar * geo) * core \
        + (1.0 + 2.0 * ie2) * 2.0 * rbar * (
            2.0 * prof.alpha_star * geo * core + 1.0 + 2.0 * ie2
        )
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
