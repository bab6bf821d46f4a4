"""Solvers for the two decomposition programs and the error-bound oracles.

Both programs are solved by one Gauss-Seidel ADMM loop. Each sweep takes
the l1 prox in X_S (soft threshold, into a box around Y in the penalized
program), then the singular-value threshold in X_L, then the prox of each
residual copy: a closed-form shrink for the penalized program's quadratic
data fit, l1-ball and nuclear-ball projections for the constrained
program's residual caps, and entrywise clipping for its box on X_L. Each
copy, and the box, is a constraint block with its own penalty and scaled
dual, rebalanced on its own primal and dual residuals. The penalized
solve exits on a certified relative duality gap; the constrained solve on
the blocks' primal and dual residuals.
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
    _svt_gap_bound,
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


def _validate_shared(cfg):
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


@dataclass
class RegularizedConfig:
    """Parameters of the penalized solve: lam and mu positive and finite, b
    the box radius on entries of X_S - Y (inf disables it), tol the relative
    duality gap required at exit."""

    lam: float
    mu: float
    b: float = math.inf
    tol: float = 1e-6
    max_iter: int = 100000

    def validate(self):
        _validate_shared(self)
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")


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
        _validate_shared(self)
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


def _residual_norms(R):
    return _entrywise_norm(R, 1), _trace_norm(R), _entrywise_norm(R, 2)


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


def _admm(Y, lam, copies, stop, tol, max_iter, eta0, S_box=None,
          b_L=math.inf, abandon=None):
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
    0 of exact agreement; the box's are ||X_L - B|| and eta_B*||dB||. The
    X_L step's term, ||sum_j eta_j dR_j + eta_B dB||, is not tested
    (solve_constrained derives the terms and says what leaving it out
    costs). pri and dua are the hypot of the blocks' residuals.

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

    The loop exits when stop(X_S, X_L_hat, X_L_factors, D, pri, dua, work)
    is true, where work is a free full-size buffer; stop may overwrite D
    and work.

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
    the leading singular triplets: the first sweep from a block drawn from
    a fixed-seed stream, every later sweep warm-started from the last
    one's whole right singular block (see prox.SvtWarmStart). Smaller
    problems take a full SVD every sweep. A stop on a sweep that took the
    partial path is accepted only if an upper bound on the Frobenius
    distance from X_L to the full threshold of the same centre, from the
    kept triplets and one values-only spectrum (see prox._svt_gap_bound),
    is at most tol/eta, where eta, the hypot of the penalties, bounds how
    far an error in X_L moves dua. Otherwise the loop goes on, and every
    later sweep takes the full SVD.

    abandon, when given, is a predicate abandon(X_L, s) on the last
    threshold step's output and its kept singular values. It runs every 10
    sweeps, after the exit test and before the rebalancing; when it holds,
    the loop ends unconverged. A caller that can prove from (X_L, s) that
    the solve will not reach the answer it wants uses it to stop early;
    a sweep that it lets pass is computed as without it, to the bit.

    Returns X_S, X_L_hat, the (U, s, Vt) factors of the last X_L, the
    iteration count, the converged flag and the diagnostics: final
    residuals, the penalties in block order and the total number of
    rescalings, partial_svds, the number of threshold steps served by the
    partial path, exit_gap_bound, eta times the bound at the last stop
    checked on a partial step (None when there was none), and
    abandoned_at, the sweep at which abandon held (None when it never
    did).
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
    rescalings = 0
    warm = SvtWarmStart(shape)
    pri = dua = math.inf
    exit_gap_bound = abandoned_at = None
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
        X_L_new, *factors = _svt(C, t_L, warm)
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
        if stop(X_S, B if boxed else X_L, factors, D, pri, dua, dX_L):
            if warm.partial:
                # stop is done with D and dX_L: the bound takes them.
                exit_gap_bound = math.hypot(*etas) * _svt_gap_bound(
                    C, t_L, *factors, D, dX_L)
            if not warm.partial or exit_gap_bound <= tol:
                converged = True
                break
            warm.enabled = False
        if iterations % 10 == 0:
            if abandon is not None and abandon(X_L, factors[1]):
                abandoned_at = iterations
                break
            rescaled = False
            for j, (p, d) in enumerate(zip(pri_parts, dua_parts)):
                p *= eta0
                if p > 10.0 * d or (d <= tol < p and p > 2.0 * d):
                    scale = 2.0
                elif d > 10.0 * p or (p <= tol < d and d > 2.0 * p):
                    scale = 0.5
                else:
                    continue
                etas[j] *= scale
                duals[j] /= scale
                rescalings += 1
                rescaled = True
            if rescaled and not (sum(etas[:n_res]) > 0.0 and sum(etas) < math.inf):
                break
    diagnostics = {
        "primal_residual": pri,
        "dual_residual": dua,
        "penalty_final": etas,
        "penalty_rescalings": rescalings,
        "partial_svds": warm.partial_svds,
        "exit_gap_bound": exit_gap_bound,
        "abandoned_at": abandoned_at,
    }
    return X_S, B if boxed else X_L, factors, iterations, converged, diagnostics


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
    sigma_bar = sigma_1(R)/mu from matrices._spectral_norm inflated by the
    max(m, n)*eps error its docstring states. P takes ||X_L||_* as sum(s),
    exact for the threshold step's X_L = U diag(s) Vt, partial steps
    included. P and d are homogeneous of degree 1 in (Y, X_S, X_L, mu, b),
    so both are evaluated exactly on these times 2^-e, with max(max|Y|, mu)
    in [2^(e-1), 2^e), clear of overflow and underflow at any scale.

    sigma_bar, counted in diagnostics["spectral_checks"], is computed only
    once the gap without it passes. diagnostics["duality_gap"] is the last
    relative gap computed (0 at P = 0); on hitting max_iter, which returns
    converged=False, it may lack sigma_bar and certify nothing. The gap
    certifies the objective, not the first-order residual of (X_S, X_L).
    """
    cfg.validate()
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
    gap = math.inf
    spectral_checks = 0

    def shrink(V, eta):
        V *= eta * mu / (eta * mu + 1.0)
        return V

    def stop(X_S, X_L, factors, D, pri, dua, work):
        nonlocal gap, spectral_checks
        # At scale 2^-e: R in D, |X_S| and then Y in work.
        R = np.ldexp(D, -e, out=D)
        l1_S = float(np.abs(np.ldexp(X_S, -e, out=work), out=work).sum())
        r2 = _entrywise_norm(R, 2)
        primal = lam * l1_S + float(np.ldexp(factors[1], -e).sum()) + (0.5 / mu_e * r2) * r2
        Y_e = np.ldexp(Y, -e, out=work)
        RY = float(np.vdot(R, Y_e))

        def relative_gap(scale):
            k = 1.0 / (scale * mu_e)  # the dual point is -k*R
            dual = -k * RY - (0.5 * mu_e * k * r2) * (k * r2)
            if boxed:
                dual -= _box_conjugate(np.multiply(R, -k), Y_e, b_e, lam)
            g = primal - dual
            return g / primal if primal > 0 else (0.0 if g <= 0 else math.inf)

        scale = 1.0 if boxed else max(1.0, float(max(R.max(), -R.min())) / (mu_e * lam))
        gap = relative_gap(scale)
        if not gap <= tol:
            return False
        spectral_checks += 1
        sigma_bar = _spectral_norm(R) * (1.0 + max(Y.shape) * np.finfo(float).eps) / mu_e
        if sigma_bar > scale:
            gap = relative_gap(sigma_bar)
        return gap <= tol

    X_S, X_L, (_, s, _), iterations, converged, diagnostics = _admm(
        Y, lam, [shrink], stop, tol, cfg.max_iter, eta0, S_box=S_box)
    rv1, rst, rv2 = _residual_norms(X_S + X_L - Y)
    # The data term ||R||_F^2 / (2 mu), in an order that stays finite
    # wherever the value is.
    obj = (0.5 / mu * rv2) * rv2 + lam * _entrywise_norm(X_S, 1) + float(s.sum())
    diagnostics.update(duality_gap=gap, spectral_checks=spectral_checks)
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
    box adds a clipped copy B of X_L, returned as X_L_hat. Each ball, and
    the box, is a block of _admm with its own penalty eta_j, which starts at
    1 whatever the scale of Y. Every 10 sweeps _admm doubles or halves a
    block's penalty when one of its residuals exceeds the other tenfold, or
    twofold once the other already meets tol, so that neither lags far
    behind at the exit.

    The dual residuals follow from the threshold steps. With D = X_S + X_L
    - Y, scaled duals W_j and V, and d the change over a sweep, the X_S
    step makes 0 a subgradient of lam*||X_S||_1 + sum_j eta_j (D' - R_j +
    W_j), where D' holds the old X_L and R_j the old copies. The new duals
    are W_j + D - R_j with the new ones, so in their terms the step leaves
    the dual feasibility of X_S off by sum_j eta_j (dR_j - dX_L). The X_L
    step, written the same way, leaves that of X_L off by sum_j eta_j dR_j
    + eta_B dB. Every residual block, the penalized program's included, is
    charged its term of the first, eta_j ||dR_j - dX_L||, and the box its
    term of the second, eta_B ||dB||. The exact split's block has dR = 0,
    so its dual residual is eta ||dX_L|| and it has no term in the second.
    The balls' terms of the second are not tested, so a relaxed solve's
    converged flag does not certify the X_L step's dual feasibility to
    tol, as a single pooled penalty's exit test did: at the
    exits of the relaxed benchmark's 240 solves (seeds 0-39, tol 1e-2) that
    term reads 2.1 tol in the median and 3.4 tol at most. Testing it took
    those solves from 13,783 to 16,565-16,943 sweeps (18,197 with one
    pooled penalty), so most of the per-ball penalties' saving comes from
    the looser exit; the returned pairs lie as close to tol-1e-10
    solutions either way (median Frobenius distance 0.038 against 0.036
    with the pooled penalty, on seeds 0-9).

    Exit requires primal and dual residuals at most cfg.tol, and in the
    relaxed mode also that the solution's own residual norms exceed the
    caps by at most 10*cfg.tol; hitting max_iter returns converged=False.
    """
    return _solve_constrained(Y, cfg)


def _solve_constrained(Y, cfg, abandon=None):
    """solve_constrained, with _admm's abandon predicate passed through
    (the sweep's proof of non-recovery)."""
    cfg.validate()
    Y = as_matrix(Y, "Y")
    lam, tol = cfg.lam, cfg.tol
    exact = cfg.eps_v1 == 0 or cfg.eps_star == 0
    copies = [] if exact else [
        lambda V, eta: _project_l1_ball(V, cfg.eps_v1),
        lambda V, eta: _project_nuclear_ball(V, cfg.eps_star),
    ]

    def stop(X_S, X_L_hat, factors, D, pri, dua, work):
        if not (pri <= tol and dua <= tol):  # NaN fails
            return False
        if exact:
            return True
        R_hat = np.add(X_S, X_L_hat, out=work)
        R_hat -= Y
        return (_entrywise_norm(R_hat, 1) - cfg.eps_v1 <= 10.0 * tol
                and _trace_norm(R_hat) - cfg.eps_star <= 10.0 * tol)

    X_S, X_L_hat, (_, s, _), iterations, converged, diagnostics = _admm(
        Y, lam, copies, stop, tol, cfg.max_iter, 1.0, b_L=cfg.b,
        abandon=abandon)
    rv1, rst, rv2 = _residual_norms(X_S + X_L_hat - Y)
    # Unboxed, X_L_hat is the last threshold step's U diag(s) Vt.
    nuclear = float(s.sum()) if math.isinf(cfg.b) else _trace_norm(X_L_hat)
    obj = lam * _entrywise_norm(X_S, 1) + nuclear
    return SolveReport(
        X_S_hat=X_S, X_L_hat=X_L_hat, iterations=iterations, objective=obj,
        residual_v1=rv1, residual_star=rst, residual_v2=rv2,
        converged=converged, mode="constrained", diagnostics=diagnostics,
    )


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
