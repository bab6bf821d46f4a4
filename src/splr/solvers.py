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

from .incoherence import PreconditionError, _check_premises, inverse_mu
from .matrices import as_matrix
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
from .subspaces import _kkt_l1_block, _kkt_trace_block

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
    if not cfg.lam > 0:
        raise ValueError("lambda must be positive")
    if not cfg.b > 0:
        raise ValueError("box radius must be positive")
    if not cfg.tol >= 0:
        raise ValueError("tol must be nonnegative")
    if not cfg.max_iter >= 1:
        raise ValueError("max_iter must be at least 1")


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
        _validate_shared(self)
        if not self.mu > 0:
            raise ValueError("mu must be positive")


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


def _sum_into(out, arrays):
    """sum(arrays), written into out. Python's sum starts from int 0, and
    0 + -0.0 is +0.0, so here too the first addend's zeros lose their
    sign."""
    np.add(arrays[0], 0.0, out=out)
    for A in arrays[1:]:
        out += A
    return out


def _admm(Y, lam, copies, stop, tol, max_iter, eta0, S_box=None,
          b_L=math.inf, abandon=None):
    """Gauss-Seidel ADMM on lam*||X_S||_1 + ||X_L||_* plus the residual
    terms, shared by both solvers. Y must already be validated.

    copies lists the proxes of the residual terms: the residual X_S + X_L
    - Y gets one copy R_j per entry, with its own constraint X_S + X_L - Y
    = R_j and scaled dual W_j, and prox(V, eta) returns the new R_j from V
    = X_S + X_L - Y + W_j (it may overwrite V and return it). An empty list
    forces exact agreement: a single constraint with R fixed at 0. S_box =
    (lo, hi) keeps X_S entrywise in [lo, hi]. A finite b_L adds a copy B of
    X_L with the constraint X_L = B and dual V, and B is returned as
    X_L_hat.

    Each sweep takes the l1 prox in X_S, then the singular-value threshold
    in X_L, each at the mean of the centres of the k constraints the block
    enters (thresholds lam/(k*eta) and 1/(k*eta)), then updates every copy
    and dual. The penalty eta starts at eta0 and is rebalanced every 10
    sweeps (Boyd et al. 2011, ADMM, section 3.4.1) when one of eta0*pri and
    dua exceeds the other tenfold, or, once one of them is at most tol,
    when the other exceeds tol and the first twofold: near the exit the
    lagging residual would otherwise stay up to ten times above tol
    (balancing against the stopping test, as in Wohlberg,
    arXiv:1704.06209). It compares eta0*pri rather than pri, so that a
    caller whose eta0 scales as 1/Y compares two scale-free quantities and
    takes the same sweeps on cY as on Y. The loop exits when
    stop(X_S, X_L_hat, X_L_factors, D, pri, dua, work) is true, where D =
    X_S + X_L - Y, pri and dua are the primal and dual residuals, and work
    is a free full-size buffer; stop may overwrite D and work.

    The full-size work arrays live across sweeps and are updated in place:
    the centre C of the threshold steps, X_S (the soft threshold writes
    into it, with D as its sign buffer), D, the dual residual, and per copy
    its residual D - R_j and the buffer for D + W_j (the previous R_j's
    buffer once the shrink has kept its argument). X_L is the one array a
    sweep allocates anew, since the threshold step's product forms it.
    Every update keeps the operand order of the plain expressions, so the
    bits are theirs. The Frobenius norms overflow and underflow only where
    they must (see norms._frobenius).

    When min(m, n) >= PARTIAL_SVT_MIN_DIM, the threshold step computes only
    the leading singular triplets: the first sweep from a block drawn from
    a fixed-seed stream, every later sweep warm-started from the last
    one's whole right singular block (see prox.SvtWarmStart). Smaller
    problems take a full SVD every sweep. A stop on a sweep that took the
    partial path is accepted only if X_L lies within tol/eta in Frobenius
    norm of the full threshold of the same centre. An upper bound on that
    distance from the kept triplets and one values-only spectrum (see
    prox._svt_gap_bound) settles most such stops; when it does not, the
    full SVD of the centre measures the distance itself. If that too
    exceeds tol/eta, the loop goes on, and every later sweep takes the
    full SVD.

    abandon, when given, is a predicate abandon(X_L, s) on the last
    threshold step's output and its kept singular values. It runs every 10
    sweeps, after the exit test and before the rebalancing; when it holds,
    the loop ends unconverged. A caller that can prove from (X_L, s) that
    the solve will not reach the answer it wants uses it to stop early;
    a sweep that it lets pass is computed as without it, to the bit.

    Returns X_S, X_L_hat, the (U, s, Vt) factors of the last X_L, the
    iteration count, the converged flag and the diagnostics: final
    residuals, the penalty and its rescalings, partial_svds, the number of
    threshold steps served by the partial path, exit_gap_bound, eta times
    the bound at the last stop checked on a partial step (None when there
    was none), and abandoned_at, the sweep at which abandon held (None
    when it never did).
    """
    k = max(1, len(copies))
    boxed = not math.isinf(b_L)
    eta = eta0
    shape = Y.shape
    C, X_S, D, dual = (np.empty(shape) for _ in range(4))
    r = [np.empty(shape) for _ in copies]
    V_j = np.empty(shape) if copies else None
    W = [np.zeros(shape) for _ in range(k)]
    R = [np.zeros(shape) for _ in copies]
    X_L = np.zeros(shape)
    if k > 1:
        W_bar, R_sum, R_bar = (np.empty(shape) for _ in range(3))
    if boxed:
        B, V = np.zeros(shape), np.zeros(shape)
        B_next, r_B = np.empty(shape), np.empty(shape)
    converged = False
    rescalings = 0
    warm = SvtWarmStart(shape)
    pri = dua = math.inf
    exit_gap_bound = abandoned_at = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if k == 1:
            W_bar = W[0]
            if copies:
                R_sum = R_bar = R[0]
        else:
            _sum_into(W_bar, W)
            W_bar /= k
            np.divide(_sum_into(R_sum, R), k, out=R_bar)
        np.subtract(Y, X_L, out=C)
        C -= W_bar
        if copies:
            C += R_bar
        _soft_threshold(C, lam / (k * eta), out=X_S, sign=D)
        if S_box is not None:
            np.clip(X_S, *S_box, out=X_S)
        np.subtract(Y, X_S, out=C)
        C -= W_bar
        if copies:
            C += R_bar
        if boxed:
            C *= k
            C += B
            C -= V
            C /= k + 1
        t_L = 1.0 / ((k + boxed) * eta)
        X_L_new, *factors = _svt(C, t_L, warm)
        # Dual residual of the X_S (X_L) step: eta times the change in the
        # blocks updated after it, summed over the constraints it enters.
        np.subtract(X_L_new, X_L, out=dual)
        X_L = X_L_new
        np.add(X_S, X_L, out=D)
        D -= Y
        dual_L = None
        if copies:
            for j, prox in enumerate(copies):
                R[j] = prox(np.add(D, W[j], out=V_j), eta)
                if R[j] is V_j:  # the next sweep needs another buffer
                    V_j = None
                np.subtract(D, R[j], out=r[j])
                W[j] += r[j]
            if k == 1:
                # R_sum is the previous R[0]: its buffer takes dual_L now
                # and D + W_0 in the next sweep.
                dual_L = np.subtract(R[0], R_sum, out=R_sum)
                if V_j is None:
                    V_j = R_sum
            else:
                dual_L = np.subtract(_sum_into(R_bar, R), R_sum, out=R_sum)
            dual *= k
            np.subtract(dual_L, dual, out=dual)
            pri_parts = [*r]
        else:
            W[0] += D
            pri_parts = [D]
        if boxed:
            B_new = np.add(X_L, V, out=B_next)
            np.clip(B_new, -b_L, b_L, out=B_new)
            B_step = np.subtract(B_new, B, out=B)
            if dual_L is None:
                dual_L = B_step
            else:
                dual_L += B_step
            B, B_next = B_new, B_step
            np.subtract(X_L, B, out=r_B)
            V += r_B
            pri_parts.append(r_B)
        dual_parts = [dual] if dual_L is None else [dual, dual_L]
        with np.errstate(over="ignore"):
            pri = math.hypot(*map(_frobenius, pri_parts))
            dua = eta * math.hypot(*map(_frobenius, dual_parts))
        if stop(X_S, B if boxed else X_L, factors, D, pri, dua, dual):
            if warm.partial:
                # stop is done with D and dual: the bound takes them.
                exit_gap_bound = eta * _svt_gap_bound(C, t_L, *factors, D, dual)
            if (not warm.partial or exit_gap_bound <= tol
                    or eta * _entrywise_norm(_svt(C, t_L)[0] - X_L, 2) <= tol):
                converged = True
                break
            warm.enabled = False
        if iterations % 10 == 0:
            if abandon is not None and abandon(X_L, factors[1]):
                abandoned_at = iterations
                break
            if eta0 * pri > 10.0 * dua or (
                    dua <= tol < eta0 * pri and eta0 * pri > 2.0 * dua):
                scale = 2.0
            elif dua > 10.0 * eta0 * pri or (
                    eta0 * pri <= tol < dua and dua > 2.0 * eta0 * pri):
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
        "partial_svds": warm.partial_svds,
        "exit_gap_bound": exit_gap_bound,
        "abandoned_at": abandoned_at,
    }
    return X_S, B if boxed else X_L, factors, iterations, converged, diagnostics


def solve_regularized(Y, cfg):
    """ADMM for the penalized program.

    The data-fit term gets one residual copy R with the constraint X_S +
    X_L - Y = R; its prox at penalty eta is the shrink R = eta*mu/(eta*mu +
    1) * (X_S + X_L - Y + W). Each sweep takes the box-constrained l1 prox
    in X_S and the singular-value threshold in X_L.

    The penalty starts at eta0 = mn/(4*||Y||_1) (Candes, Li, Ma & Wright,
    arXiv:0912.3599), or at 1 when that is not positive and finite (Y = 0,
    or entries so small or so large that the quotient overflows or
    underflows), and _admm rebalances it on eta0*pri against dua. Both the
    start and the rebalancing then scale as 1/Y, so the solve of (cY, c*mu)
    takes the same sweeps as that of (Y, mu).

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
    l1 = _entrywise_norm(Y, 1)
    eta0 = Y.size / 4.0 / l1 if l1 > 0 else math.inf
    if not 0.0 < eta0 < math.inf:  # Y = 0, or a quotient out of range
        eta0 = 1.0
    kkt = math.inf
    spectral_checks = 0

    def shrink(V, eta):
        V *= eta * mu / (eta * mu + 1.0)
        return V

    def stop(X_S, X_L, factors, D, pri, dua, work):
        nonlocal kkt, spectral_checks
        kkt = _kkt_l1_block(Y, X_S, np.divide(D, -lam * mu, out=D), b, work)
        if kkt > tol:
            return False
        spectral_checks += 1
        # The l1 block overwrote D: rebuild it as _admm does.
        GL = np.add(X_S, X_L, out=D)
        GL -= Y
        GL /= -mu
        kkt = max(kkt, _kkt_trace_block(GL, factors[0], factors[2]))
        return kkt <= tol

    X_S, X_L, (U, s, Vt), iterations, converged, diagnostics = _admm(
        Y, lam, [shrink], stop, tol, cfg.max_iter, eta0, S_box=S_box)
    R = X_S + X_L - Y
    if not converged:
        kkt = max(_kkt_l1_block(Y, X_S, R / (-lam * mu), b),
                  _kkt_trace_block(R / -mu, U, Vt))
    rv1, rst, rv2 = _residual_norms(R)
    # The data term ||R||_F^2 / (2 mu), in an order that stays finite
    # wherever the value is.
    obj = (0.5 / mu * rv2) * rv2 + lam * _entrywise_norm(X_S, 1) + float(s.sum())
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
    box adds a clipped copy of X_L, returned as X_L_hat. The penalty starts
    at 1 whatever the scale of Y. Every 10 sweeps _admm doubles or halves
    it when one residual exceeds the other tenfold, or twofold once the
    other already meets tol, so that neither lags far behind at the exit.

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
        if pri > tol or dua > tol:
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
