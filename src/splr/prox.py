"""Proximal operators and projections used by the solvers: entrywise soft
thresholding, singular-value thresholding, the box-constrained l1 prox,
entrywise clipping, and Euclidean projections onto entrywise-l1 and
nuclear-norm balls.

The public functions validate their inputs. The solvers validate once at
entry and call the unchecked kernels (leading underscore) in their loops.
"""

import math

import numpy as np

from .matrices import RandomStream, _gram_svt_factors, as_matrix, thin_svd

__all__ = [
    "soft_threshold",
    "svt",
    "prox_l1_box",
    "clip_entries",
    "project_l1_ball",
    "project_nuclear_ball",
]


def _soft_threshold(M, t, out=None, sign=None):
    """sign(M) * max(|M| - t, 0), written into out and with sign(M) written
    into sign, buffers of M's shape that alias neither M nor each other,
    when they are given. The product keeps np.sign's sign bits (np.copysign
    would not: it gives -0.0 where np.sign(-0.0) * 0.0 gives +0.0)."""
    sign = np.sign(M, out=sign)
    out = np.abs(M, out=out)
    out -= t
    np.maximum(out, 0.0, out=out)
    return np.multiply(sign, out, out=out)


def soft_threshold(M, t):
    """Entrywise shrink toward zero by t: sign(x) * max(|x| - t, 0).

    Entries with |x| exactly equal to t map to 0.
    """
    M = as_matrix(M, "M")
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    return _soft_threshold(M, t)


# The threshold steps of a solve take the partial path only when min(m, n)
# is at least PARTIAL_SVT_MIN_DIM; smaller problems take the Gram's
# eigendecomposition where its error bound allows, else a full SVD.
PARTIAL_SVT_MIN_DIM = 100
# Block columns beyond the last kept rank.
_PARTIAL_PAD = 10
_PARTIAL_PASSES = 2


def _partial_svt(M, t, V):
    """Leading singular triplets (U, s, Vt) of M for a threshold t, by block
    subspace iteration from the n x l start block V (Halko, Martinsson &
    Tropp, arXiv:0909.4061), or None when declined.

    Each pass orthonormalizes M^T (M V) with one QR. M V is first scaled
    by the power of two that brings its largest entry into [1/2, 1), which
    is exact and keeps the second product from overflowing or underflowing
    at any scale of M. After _PARTIAL_PASSES passes, Rayleigh-Ritz on M V
    gives l Ritz triplets. They are accepted only when the smallest Ritz
    value is below t, the sign that every value above t has its triplet in
    the block. It is not a proof: on a flat spectrum, two passes from a
    random block can reach below t and still miss values above it, which
    costs a solve sweeps, not a wrong exit (see solvers._admm).
    """
    for _ in range(_PARTIAL_PASSES):
        W = M @ V
        e = math.frexp(float(np.abs(W).max()))[1]
        V = np.linalg.qr(M.T @ np.ldexp(W, -e, out=W))[0]
    U, s, Wt = thin_svd(M @ V)
    return (U, s, Wt @ V.T) if s[-1] < t else None


class SvtWarmStart:
    """Warm-start state of one solve's threshold steps.

    While min(m, n) >= PARTIAL_SVT_MIN_DIM, every step, the first one
    included, first tries the partial path from a block of width columns.
    The first step's block is min(m, n) // 4 columns wide, the widest that
    the cap below admits, all drawn from a fixed-seed stream. After a step,
    width is rank + _PARTIAL_PAD, where rank is the number of values above
    that step's threshold, and block holds the leading width rows of the
    step's whole right singular block, kept and unkept rows alike (of Vt
    after a full SVD, of the l Ritz rows after a partial one). The next
    step starts from these rows, padded where short with columns from the
    same stream.

    While min(m, n) < PARTIAL_SVT_MIN_DIM, every step takes the triplets
    above t from the eigendecomposition of the scaled Gram
    (matrices._gram_svt_factors), which declines unless its error bound
    delta = min(m, n)*eps*(sigma_1/t)^2 is below tol/100, tol being the
    solve's; sum(s - t) is then the trace norm of the step's output within
    a relative delta. tol = 0 always declines.

    The full SVD serves a declined Gram or partial step, and every step
    while 4 * width > min(m, n) >= PARTIAL_SVT_MIN_DIM; that cap is
    checked before padding, so a refused step draws nothing from the
    stream. partial_svds counts the steps that took the partial path.
    """

    def __init__(self, shape, tol):
        self.block = np.empty((0, shape[1]))
        self.width = min(shape) // 4
        self.partial_svds = 0
        self.stream = RandomStream(0)
        self.tol = tol

    def factors(self, M, t):
        """(U, s, Vt) for thresholding M by t: the Gram's triplets above t
        or the partial triplets when that step is taken and accepted, else
        the full thin SVD."""
        if min(M.shape) < PARTIAL_SVT_MIN_DIM:
            return _gram_svt_factors(M, t, self.tol) or thin_svd(M)
        out = None
        if 4 * self.width <= min(M.shape):
            V = self.block.T
            short = self.width - V.shape[1]
            if short > 0:
                V = np.hstack([V, self.stream.gaussian(V.shape[0], short)])
            out = _partial_svt(M, t, V)
        if out is None:
            out = thin_svd(M)
        else:
            self.partial_svds += 1
        self.width = int(np.count_nonzero(out[1] > t)) + _PARTIAL_PAD
        # Copy only the rows the next step starts from: no full Vt is held.
        self.block = out[2][:self.width].copy()
        return out


def _shrink_spectrum(U, s, Vt, t):
    """(X, s) for U diag(s) Vt with s shrunk by t: s keeps only the positive
    values, and X = U diag(s) Vt over their triplets."""
    s = np.maximum(s - t, 0.0)
    keep = s > 0
    s = s[keep]
    return (U[:, keep] * s) @ Vt[keep, :], s


def _svt(M, t, warm):
    """Singular-value threshold of M by t, with the kept values: (X, s)
    where X = U diag(s) Vt and every s is positive. The factors come from
    the SvtWarmStart warm, which may compute only the leading triplets (see
    SvtWarmStart.factors).
    """
    return _shrink_spectrum(*warm.factors(M, t), t)


def svt(M, t):
    """Singular-value thresholding: soft-threshold the spectrum by t."""
    M = as_matrix(M, "M")
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    return _shrink_spectrum(*thin_svd(M), t)[0]


def prox_l1_box(V, center, t, b):
    """Prox of t*||.||_1 restricted to the box |X - center| <= b.

    Soft-threshold first, then clip into the box; b = inf reduces to plain
    soft thresholding. The box must have positive radius.
    """
    V = as_matrix(V, "V")
    center = as_matrix(center, "center", V.shape)
    if not t >= 0:
        raise ValueError("threshold must be nonnegative")
    if not b > 0:
        raise ValueError("box radius must be positive")
    return np.clip(_soft_threshold(V, t), center - b, center + b)


def clip_entries(M, b):
    """Clip every entry into [-b, b]; b = inf returns a copy."""
    M = as_matrix(M, "M")
    if not b > 0:
        raise ValueError("bound must be positive")
    return np.clip(M, -b, b)


def _l1_ball_shrink(x, eps):
    """The shrink theta that projects the nonnegative vector x, whose sum
    exceeds eps, onto the l1 ball of radius eps as max(x - theta, 0)
    (sort-based rule). The sorted sum can round to at most eps, which makes
    the rule's theta negative; theta is then 0, so no entry moves outward.
    The rule's test passes at k = 1 in exact arithmetic; when eps is below
    half an ulp of the largest entry, u_1 - eps rounds to u_1 and no k
    passes, and k = 1 is taken."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - eps
    idx = np.arange(1, x.size + 1)
    passing = np.flatnonzero(u - css / idx > 0)
    k = passing[-1] + 1 if passing.size else 1
    return max(css[k - 1] / k, 0.0)


def _project_l1_ball(M, eps):
    if eps == 0:
        return np.zeros_like(M)
    a = np.abs(M).ravel()
    if a.sum() <= eps:
        return M.copy()
    return _soft_threshold(M, _l1_ball_shrink(a, eps))


def project_l1_ball(M, eps):
    """Euclidean projection onto the entrywise-l1 ball of radius eps.

    eps = 0 projects to the zero matrix; points already inside come back as
    a copy.
    """
    M = as_matrix(M, "M")
    if not eps >= 0:
        raise ValueError("radius must be nonnegative")
    return _project_l1_ball(M, eps)


def _project_nuclear_ball(M, eps):
    if eps == 0:
        return np.zeros_like(M)
    U, s, Vt = thin_svd(M)
    if s.sum() <= eps:
        return M.copy()
    return _shrink_spectrum(U, s, Vt, _l1_ball_shrink(s, eps))[0]


def project_nuclear_ball(M, eps):
    """Euclidean projection onto the nuclear-norm ball of radius eps:
    project the spectrum onto the l1 ball of that radius."""
    M = as_matrix(M, "M")
    if not eps >= 0:
        raise ValueError("radius must be nonnegative")
    return _project_nuclear_ball(M, eps)
