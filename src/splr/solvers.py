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

from .incoherence import PreconditionError, _check_premises, _product, _weighted_scales
from .matrices import (
    SvtWarmStart,
    _check_integer,
    _check_real,
    _spectral_norm,
    _threshold_step,
    as_matrix,
)
from .norms import (
    _entrywise_norm,
    _frobenius,
    _trace_norm,
    entrywise_norm,
    trace_norm,
)
from .prox import _project_l1_ball, _project_nuclear_ball, _soft_threshold

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
    """The checks both configs share."""
    _check_real("(0, inf)", lam=cfg.lam)
    _check_real("(0, inf]", b=cfg.b)
    _check_real("[0, inf]", tol=cfg.tol)
    _check_integer(1, max_iter=cfg.max_iter)


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
        _check_real("(0, inf)", mu=self.mu)


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
        _check_real("[0, inf]", eps_v1=self.eps_v1, eps_star=self.eps_star)


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


@dataclass(eq=False)
class _Block:
    """One constraint block of _admm: its penalty eta, in _admm's frame,
    its prox (None for the exact split), whether it constrains X_S + X_L -
    Y (on_S) or X_L alone (the box), its scaled dual W and its copy R, both
    allocated by _admm.

    With left side A = D = X_S + X_L - Y when on_S, else X_L, each sweep
    sets R = prox(A + W, eta) (prox may overwrite its argument and return
    it) and W += A - R. The block's primal residual is ||A - R|| and its
    dual residual eta*||dR - dX_L|| when on_S, else eta*||dR||, with d the
    change over the sweep (solve_constrained derives them). Without a prox,
    R stays 0: W += D, with residuals ||D|| and eta*||dX_L||. A prox that
    returns zeros gives the same bits, but made the 30 x 30 exact splits
    of perfbench's sweep workload 4% slower (one BLAS thread, 2-core
    x86-64), so the exact split keeps this shorter path.

    Every 10 sweeps eta doubles when p = eta0*pri exceeds dua tenfold, or,
    once dua is at most tol, when p exceeds tol and twice dua; it halves in
    the mirror cases, and W is divided by the same factor (Boyd et al.
    2011, ADMM, section 3.4.1; the tol clause balances against the stopping
    test, as in Wohlberg, arXiv:1704.06209). eta0 is the first block's
    starting eta, in _admm's frame. eta0*pri and dua are both scale-free
    there, so a start that scales as 1/Y, as the penalized one, mn/(4
    ||Y||_1), does, takes the same sweeps on cY; the constrained start, 1
    in Y's units, does not.
    """

    eta: float
    prox: object = None
    on_S: bool = True
    W: np.ndarray = None
    R: np.ndarray = None


@np.errstate(over="ignore")
def _admm(Y, e, lam, blocks, gap_terms, tol, max_iter, mode, fit=None, S_box=None,
          abandon=None):
    """Gauss-Seidel ADMM on lam*||X_S||_1 + ||X_L||_* under the constraint
    blocks (see _Block), shared by both solvers. The residual blocks come
    first; a box block, on X_L, may come last, and its R is then X_L_hat.
    S_box = (lo, hi) keeps X_S entrywise in [lo, hi].

    The solve runs in one frame: Y is the validated data times 2^-e, with
    e from _frame, and the caller scales the proxes' radii, S_box and fit
    by 2^-e and the starting penalties by 2^e. Both programs are
    positively homogeneous, so every step is an exact power-of-two scaling
    of the same step on the data as given, with the same bits wherever
    both are normal, and the loop's arithmetic does not depend on where Y
    lies in the float range. Dual quantities (eta*W, dua, eta0*pri) are
    scale-free. _admm returns to Y's units at the edges: the outputs and
    the arguments of abandon.

    With H = sum_j eta_j over the residual blocks, each sweep takes the l1
    prox in X_S at lam/H, centred at the eta-weighted mean of Y - X_L + R_j
    - W_j, then the singular-value threshold in X_L at t_L = 1/(H + eta_B)
    (1/H unboxed), centred at the eta-weighted mean of Y - X_S + R_j - W_j
    and the box's R - W, then updates every block in order. pri and dua
    are the hypot of the blocks' residuals. A rescaling that leaves H at 0
    or H + eta_B at inf ends the loop unconverged; eta_B alone may reach 0,
    as it does for a box that never binds. Updates run in place, in
    the operand order of the plain expressions, so the bits are theirs.
    The threshold step, and the certified use of its sum(s) as
    ||X_L||_*, are matrices._threshold_step's at the solve's tol, with
    its matrices.SvtWarmStart. Overflow is ignored for the whole call: an
    output past the float range in Y's units, or a dual residual past it,
    reads inf.

    Each sweep ends with gap_terms(X_S, X_L_hat, s, D, pri, dua, work),
    with s the kept singular values and work a free buffer, all in the
    frame; it may overwrite D and work but not the blocks. It
    returns None while the caller's gate is shut, else (P, dual, scale, M,
    unit), derived in the solver docstrings. The gap (P - dual(scale))/P
    gates sigma_bar = _sigma_bar(M)/unit, counted in spectral_checks; the
    loop exits converged when the gap at max(scale, sigma_bar) is finite
    and at most tol (Boyd et al. 2011, ADMM, section 3.3); a gap that
    certifies nothing reads inf (_relative_gap). abandon(X_L, s), when
    given, runs every 10 sweeps after the exit test and ends the loop
    unconverged when it holds; a sweep it lets pass is computed as without
    it.

    Returns the SolveReport of mode: objective fit(||R||_F) + lam*||X_S||_1
    + ||X_L_hat||_* (fit 0 when omitted), and as diagnostics the final pri
    and dua, the penalties in block order, the rescalings, partial_svds,
    abandoned_at, duality_gap (the last gap, inf when none was computed)
    and spectral_checks.
    """
    shape = Y.shape
    eta0, box = blocks[0].eta, blocks[-1]
    boxed = not box.on_S
    res = blocks[:-1] if boxed else blocks
    exact = res[0].prox is None
    C, X_S, D, dX_L = (np.empty(shape) for _ in range(4))
    with_prox = any(b.prox for b in blocks)
    r, spare = (np.empty(shape), np.empty(shape)) if with_prox else (None, None)
    for b in blocks:
        b.W, b.R = np.zeros(shape), None if b.prox is None else np.zeros(shape)
    W_res = [b.W for b in res]
    W_buf, R_buf = (np.empty(shape), np.empty(shape)) if len(res) > 1 else (None, None)
    X_L = np.zeros(shape)
    converged = False
    rescalings = spectral_checks = 0
    warm = SvtWarmStart(shape)
    pri = dua = gap = math.inf
    abandoned_at = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta_res = [b.eta for b in res]
        H = sum(eta_res)
        # r is free until the blocks' updates below.
        W_bar = _weighted_mean(W_res, eta_res, W_buf, r)
        R_bar = None if exact else _weighted_mean([b.R for b in res], eta_res, R_buf, r)
        np.subtract(Y, X_L, out=C)
        C -= W_bar
        if not exact:
            C += R_bar
        _soft_threshold(C, lam / H, out=X_S, sign=D)
        if S_box is not None:
            np.clip(X_S, *S_box, out=X_S)
        np.subtract(Y, X_S, out=C)
        C -= W_bar
        if not exact:
            C += R_bar
        t_L = 1.0 / (H + box.eta) if boxed else 1.0 / H
        if boxed:
            C *= H * t_L
            np.subtract(box.R, box.W, out=r)
            r *= box.eta * t_L
            C += r
        X_L_new, s = _threshold_step(C, t_L, tol, warm)
        np.subtract(X_L_new, X_L, out=dX_L)
        X_L = X_L_new
        np.add(X_S, X_L, out=D)
        D -= Y
        pri_parts, dua_parts = [], []
        for b in blocks:
            if b.prox is None:
                b.W += D
                pri_parts.append(_frobenius(D))
                dua_parts.append(b.eta * _frobenius(dX_L))
                continue
            A = D if b.on_S else X_L
            R_old = b.R
            b.R = b.prox(np.add(A, b.W, out=spare), b.eta)
            np.subtract(A, b.R, out=r)
            b.W += r
            pri_parts.append(_frobenius(r))
            # R_old's buffer takes dR now, and A + W next time when the
            # prox has kept its argument.
            dR = np.subtract(b.R, R_old, out=R_old)
            if b.on_S:
                dR -= dX_L
            dua_parts.append(b.eta * _frobenius(dR))
            if b.R is spare:
                spare = R_old
        pri = math.hypot(*pri_parts)
        dua = math.hypot(*dua_parts)
        X_L_hat = box.R if boxed else X_L
        terms = gap_terms(X_S, X_L_hat, s, D, pri, dua, dX_L)
        if terms is not None:
            primal, dual, scale, M, unit = terms
            gap = _relative_gap(primal, dual(scale))
            if gap <= tol:
                spectral_checks += 1
                sigma_bar = _sigma_bar(M) / unit
                if sigma_bar > scale:
                    gap = _relative_gap(primal, dual(sigma_bar))
                if gap <= tol and gap < math.inf:
                    converged = True
                    break
        if iterations % 10 == 0:
            if abandon is not None and abandon(np.ldexp(X_L, e), np.ldexp(s, e)):
                abandoned_at = iterations
                break
            rescaled = False
            for b, p, d in zip(blocks, pri_parts, dua_parts):
                p *= eta0
                if p > 10.0 * d or (d <= tol < p and p > 2.0 * d):
                    factor = 2.0
                elif d > 10.0 * p or (p <= tol < d and d > 2.0 * p):
                    factor = 0.5
                else:
                    continue
                b.eta *= factor
                b.W /= factor
                rescalings += 1
                rescaled = True
            if rescaled and not (sum(b.eta for b in res) > 0.0
                                 and sum(b.eta for b in blocks) < math.inf):
                break
    R_hat = X_S + X_L_hat - Y
    rv1, rs, rv2 = _entrywise_norm(R_hat, 1), _trace_norm(R_hat), _entrywise_norm(R_hat, 2)
    nuclear = _trace_norm(X_L_hat) if boxed else float(s.sum())
    objective = (fit(rv2) if fit else 0.0) + lam * _entrywise_norm(X_S, 1) + nuclear
    pri, rv1, rs, rv2, objective = np.ldexp([pri, rv1, rs, rv2, objective], e).tolist()
    diagnostics = {
        "primal_residual": pri,
        "dual_residual": dua,
        "penalty_final": np.ldexp([b.eta for b in blocks], -e).tolist(),
        "penalty_rescalings": rescalings,
        "partial_svds": warm.partial_svds,
        "abandoned_at": abandoned_at,
        "duality_gap": gap,
        "spectral_checks": spectral_checks,
    }
    return SolveReport(
        X_S_hat=np.ldexp(X_S, e, out=X_S), X_L_hat=np.ldexp(X_L_hat, e, out=X_L_hat),
        iterations=iterations, objective=objective, residual_v1=rv1, residual_star=rs,
        residual_v2=rv2, converged=converged, mode=mode, diagnostics=diagnostics,
    )


@np.errstate(over="ignore")
def _frame(Y, floor, *params):
    """The frame a solve runs in (see _admm): e with max(max|Y|, floor) in
    [2^(e-1), 2^e), Y times 2^-e, 1 in Y's units, which is 2^e clamped to
    [2^-1021, 2^1022] so that it, its reciprocal and the sum of three
    penalties stay finite, and params times 2^-e (one past the float range
    reads inf)."""
    e = math.frexp(max(_entrywise_norm(Y, np.inf), floor))[1]
    one = math.ldexp(1.0, min(max(e, -1021), 1022))
    return e, np.ldexp(Y, -e), one, np.ldexp(params, -e).tolist()


def _sigma_bar(M):
    """sigma_1(M) from _spectral_norm, inflated by its max(m, n)*eps error."""
    return _spectral_norm(M) * (1.0 + max(M.shape) * np.finfo(float).eps)


def _relative_gap(primal, dual):
    """(P - d)/P; at P = 0 it is 0 unless d < 0. A d that is not a finite
    number, a P past the float range (inf/inf) or a quotient past it
    certifies nothing: the gap reads inf."""
    if not math.isfinite(dual):
        return math.inf
    g = primal - dual
    gap = g / primal if 0 < primal < math.inf else (0.0 if g <= 0 else math.inf)
    return gap if math.isfinite(gap) else math.inf


def _box_conjugate(Q, Y, b, lam):
    """The conjugate of lam*||S||_1 on the box |S - Y| <= b at Q: the sum
    over entries of the largest q*s - lam*|s| on [y - b, y + b]. Concave
    and kinked only at 0, it peaks at an end or at clip(0, y - b, y + b).
    A Q past the float range (a dual point -R/(scale*mu) that overflowed)
    gives inf, which certifies nothing, without forming q*s: at the
    candidate s = 0, inf*0 reads NaN."""
    if not np.isfinite(Q).all():
        return math.inf
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
    arXiv:0912.3599), or at 1 in Y's units where that is not positive and
    finite (Y zero or empty, or subnormal next to mu; see _frame), and _admm
    rebalances it on eta0*pri against dua. Both scale as 1/Y, so the
    solve of (cY, c*mu) takes the same sweeps as that of (Y, mu). The
    frame's e (see _frame) puts max(max|Y|, mu) in [2^(e-1), 2^e); a mu
    at or below 2^(e-1075), which rounds to 0 there, raises ValueError.

    Exit requires the relative duality gap (P - d)/P to be at most
    cfg.tol (Boyd et al. 2011, ADMM, section 3.3). By Fenchel-Young,
    ||R||_F^2 / (2 mu) >= -<Q, R> - (mu/2)||Q||_F^2 for every Q, so P >=
    d(Q) = <Q, Y> - (mu/2)||Q||_F^2 - f*(Q) - g*(Q), with f* and g* the
    conjugates of lam*||.||_1 on the box and of ||.||_*. g* is 0 where
    ||Q||_2 <= 1 and inf elsewhere; so is f* where ||Q||_inf <= lam without
    a box, and with one it is the finite _box_conjugate. The dual point is
    Q = -R/mu, which attains P at the optimum, times kappa = 1/max(1,
    ||Q||_inf/lam, sigma_bar), the middle term only without a box, and
    sigma_bar >= ||Q||_2 computed as _admm says. With r = ||R||_F, the
    dual value at Q/scale is -(<R, Y> + r*(r/scale)/2)/(scale*mu), less
    the box conjugate at -R/(scale*mu) with a box. In the frame r and
    <R, Y> are O(sqrt(mn)), and the data term is (r/sqrt(mu))^2/2, so the
    only divisors are sqrt(mu), scale*mu, mu and lam, none of them 0; a
    value past the float range reads inf. P takes ||X_L||_* as
    sum(s) for the threshold step's X_L = U diag(s) Vt: exact after a full
    SVD or a partial step, within a relative delta < tol/100 after a Gram
    step (see matrices._gram_svt_factors). The gap certifies the
    objective, not the first-order residual of (X_S, X_L).
    """
    e, Y, one, (mu, b) = _frame(as_matrix(Y, "Y"), cfg.mu, cfg.mu, cfg.b)
    if not mu > 0.0:
        raise ValueError(f"mu must exceed 2^{e - 1075} at the scale of Y, got {cfg.mu!r}")
    lam = cfg.lam
    boxed = not math.isinf(b)
    S_box = (Y - b, Y + b) if boxed else None
    l1 = _entrywise_norm(Y, 1)
    eta0 = Y.size / 4.0 / l1 if l1 > 0.0 else math.inf

    def shrink(V, eta):
        return np.multiply(V, eta * mu / (eta * mu + 1.0), out=V)

    def fit(r):  # ||R||_F^2 / (2 mu) from r = ||R||_F
        q = r / math.sqrt(mu)
        return 0.5 * q * q

    def gap_terms(X_S, X_L, s, R, pri, dua, work):
        l1_S = float(np.abs(X_S, out=work).sum())
        r = _entrywise_norm(R, 2)
        primal = lam * l1_S + float(s.sum()) + fit(r)
        RY = float(np.vdot(R, Y))

        def dual(scale):  # at the dual point Q = -R/(scale*mu)
            value = -(RY + 0.5 * r * (r / scale)) / (scale * mu)
            if boxed:
                value -= _box_conjugate(np.divide(R, -scale * mu), Y, b, lam)
            return value

        scale = 1.0 if boxed else max(1.0, _entrywise_norm(R, np.inf) / mu / lam)
        return primal, dual, scale, R, mu

    return _admm(Y, e, lam, [_Block(eta0 if eta0 < math.inf else one, shrink)],
                 gap_terms, cfg.tol, cfg.max_iter, "regularized", fit=fit, S_box=S_box)


def solve_constrained(Y, cfg):
    """ADMM for the constrained program: minimize lam*||X_S||_1 + ||X_L||_*
    with R = X_S + X_L - Y in the balls ||R||_1 <= eps_v1 and ||R||_* <=
    eps_star, and |X_L| <= b entrywise when b is finite.

    The residual gets one copy per ball, projected onto it at every sweep,
    the nuclear ball's by matrices._threshold_step at the solve's tol:
    a small copy takes the Gram's triplets above the shrink where its gate
    allows. A projection off by that much costs sweeps, not a wrong exit,
    since the gap below measures the caps on its own. A zero cap forces
    R = 0, and that case (the exact split) keeps a single copy fixed at 0,
    without a prox. A finite box adds a last block on X_L
    whose copy B is its clip, returned as X_L_hat. Each block (see _Block)
    has its own penalty eta_j, starting at 1 in Y's units whatever the
    scale of Y, clamped in the frame as _frame says. Over
    a sweep the X_S step leaves the dual feasibility of X_S off by sum_j
    eta_j (dR_j - dX_L), and the X_L step that of X_L by sum_j eta_j dR_j +
    eta_B dB; each residual block's dual residual is its term of the
    first, the box's its term of the second.

    Exit requires the relative duality gap (P - d)/P to be at most cfg.tol
    (Boyd et al. 2011, ADMM, section 3.3), computed once pri and dua are at
    most cfg.tol and, relaxed, the iterate's residual norms exceed the caps
    by at most 10*cfg.tol. Take multipliers Q_j = -eta_j W_j on the residual
    constraints, Q = sum_j Q_j, and y_B = eta_B W_B on X_L = B. The Lagrangian
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
    after a Gram step (see matrices._gram_svt_factors). The frame's e (see
    _frame) puts max|Y| in [2^(e-1), 2^e); pri and the cap excesses, both
    in Y's units, are compared there with 2^-e times cfg.tol and
    10*cfg.tol. The solve returns the ADMM
    iterate, whose X_S differs from the certified S by (1 - rho)*R_hat.
    """
    return _solve_constrained(Y, cfg)


def _solve_constrained(Y, cfg, abandon=None):
    """solve_constrained, with _admm's abandon predicate passed through
    (the sweep's proof of non-recovery)."""
    e, Y, one, (eps_v1, eps_star, b, pri_tol, slack) = _frame(
        as_matrix(Y, "Y"), 0.0, cfg.eps_v1, cfg.eps_star, cfg.b, cfg.tol, 10.0 * cfg.tol)
    lam, tol = cfg.lam, cfg.tol
    exact = cfg.eps_v1 == 0 or cfg.eps_star == 0
    boxed = not math.isinf(b)
    blocks = [_Block(one)] if exact else [
        _Block(one, lambda V, eta: _project_l1_ball(V, eps_v1)),
        _Block(one, lambda V, eta: _project_nuclear_ball(V, eps_star, tol)),
    ]
    if boxed:
        blocks.append(_Block(one, lambda V, eta: np.clip(V, -b, b, out=V), on_S=False))

    def gap_terms(X_S, L, s, D, pri, dua, work):
        if not (pri <= pri_tol and dua <= tol):  # NaN fails
            return None
        R = np.add(X_S, L, out=work)
        R -= Y
        rho = 0.0
        if not exact:
            r1, r_star = _entrywise_norm(R, 1), _trace_norm(R)
            if not (r1 - eps_v1 <= slack and r_star - eps_star <= slack):
                return None
            rho = min(eps_v1 / max(r1, eps_v1), eps_star / max(r_star, eps_star))
        # |S| for S = X_S - (1 - rho) R in work.
        S = np.multiply(R, rho - 1.0, out=work)
        S += X_S
        l1_S = float(np.abs(S, out=S).sum())
        nuclear = _trace_norm(L) if boxed else float(s.sum())
        primal = lam * l1_S + nuclear
        # Q = -sum_j eta_j W_j in D, then y_B = eta_B W_B in work.
        Q = np.multiply(blocks[0].W, -blocks[0].eta, out=D)
        base = 0.0
        if not exact:
            l1, nuc = blocks[:2]
            Q -= np.multiply(nuc.W, nuc.eta, out=work)
            base -= eps_v1 * (l1.eta * _entrywise_norm(l1.W, np.inf))
            base -= eps_star * (nuc.eta * _sigma_bar(nuc.W))
        base += float(np.vdot(Q, Y))
        scale = max(1.0, _entrywise_norm(Q, np.inf) / lam)
        if boxed:
            y_B = np.multiply(blocks[-1].W, blocks[-1].eta, out=work)
            base -= b * _entrywise_norm(y_B, 1)
            Q -= y_B
        return primal, lambda k: base / k, scale, Q, 1.0

    return _admm(Y, e, lam, blocks, gap_terms, tol, cfg.max_iter, "constrained",
                 abandon=abandon)


def _bound_share(prof, c, lam, **scales):
    """Check the premises of both error bounds (c and lambda, nonnegative
    perturbation scales, alpha*beta < 1) and return 1/(1 - 1/c)."""
    _check_premises(c, lam, **scales)
    if prof.product >= 1:
        raise PreconditionError(
            f"alpha*beta = {prof.product:.6g} is not < 1; the bound does not apply"
        )
    return 1.0 / (1.0 - 1.0 / c)


def bound_theorem2(prof, c, lam, eps_v1, eps_star):
    """Worst-case v1 error of either component for the constrained program
    under residual caps (eps_v1, eps_star)."""
    share = _bound_share(prof, c, lam, eps_v1=eps_v1, eps_star=eps_star)
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
    share = _bound_share(prof, c, lam, eps_2to2=eps_2to2, eps_vinf=eps_vinf,
                         eps_star_prime=eps_star_prime)
    _check_real("(0, inf]", b=b)
    _check_integer(0, kbar=kbar, rbar=rbar)
    ie2, iev, _ = _weighted_scales(mu, eps_2to2, eps_vinf, eps_star_prime)
    mu = max(mu, 0.0)
    geo = 1.0 / (1.0 - prof.product)
    core = lam + prof.gamma + iev
    rank_growth = _product(lam + iev, 2.0 * kbar * geo, core) \
        + _product(1.0 + 2.0 * ie2, 2.0, rbar,
                   _product(2.0, prof.alpha_star, geo, core) + 1.0 + 2.0 * ie2)
    bound_S_v1 = geo * (
        _product(rank_growth, share, mu) / lam
        + _product(lam, kbar, mu)
        + _product(2.0, math.sqrt(kbar * rbar), mu)
        + _product(kbar, eps_vinf)
    )
    if math.isinf(b):
        bound_S_v2 = bound_S_v1
    else:
        bound_S_v2 = min(bound_S_v1, math.sqrt(2.0 * b * bound_S_v1))
    bound_L_star = _product(math.sqrt(2.0 * rbar), bound_S_v2) + eps_star_prime \
        + _product(rank_growth * share / 2.0 + 2.0 * rbar, mu)
    return bound_S_v1, bound_S_v2, bound_L_star
