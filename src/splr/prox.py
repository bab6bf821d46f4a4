"""Proximal operators and projections used by the solvers: entrywise soft
thresholding, singular-value thresholding, the box-constrained l1 prox,
entrywise clipping, and Euclidean projections onto entrywise-l1 and
nuclear-norm balls.

The public functions validate their inputs. The solvers validate once at
entry and call the unchecked kernels (leading underscore) in their loops.
"""

import numpy as np

from .matrices import RandomStream, as_matrix, thin_svd

__all__ = [
    "soft_threshold",
    "svt",
    "prox_l1_box",
    "clip_entries",
    "project_l1_ball",
    "project_nuclear_ball",
]


def _soft_threshold(M, t):
    return np.sign(M) * np.maximum(np.abs(M) - t, 0.0)


def soft_threshold(M, t):
    """Entrywise shrink toward zero by t: sign(x) * max(|x| - t, 0).

    Entries with |x| exactly equal to t map to 0.
    """
    M = as_matrix(M, "M")
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return _soft_threshold(M, t)


# The threshold steps of a solve take the partial path only when min(m, n)
# is at least PARTIAL_SVT_MIN_DIM; smaller problems always take a full SVD.
PARTIAL_SVT_MIN_DIM = 100
# Block columns beyond the last kept rank, and the one growth step.
_PARTIAL_PAD = 10
_PARTIAL_PASSES = 2


def _partial_svt(M, t, V, stream):
    """Leading singular triplets (U, s, Vt) of M for a threshold t, by block
    subspace iteration from the n x l start block V (Halko, Martinsson &
    Tropp, arXiv:0909.4061), or None when declined.

    Each pass orthonormalizes M V, then M^T of that; after _PARTIAL_PASSES
    passes, Rayleigh-Ritz on M V gives l Ritz triplets. They are accepted
    only when the smallest Ritz value is below t, so that every value above
    t has its triplet in the block. Otherwise the block grows once by
    _PARTIAL_PAD columns drawn from stream and is iterated again. Declines
    when that fails too, or when 4l > min(m, n).
    """
    for _ in range(2):
        if 4 * V.shape[1] > min(M.shape):
            return None
        for _ in range(_PARTIAL_PASSES):
            Q = np.linalg.qr(M @ V)[0]
            V = np.linalg.qr(M.T @ Q)[0]
        U, s, Wt = thin_svd(M @ V)
        Vt = Wt @ V.T
        if s[-1] < t:
            return U, s, Vt
        V = np.hstack([Vt.T, stream.gaussian(M.shape[1], _PARTIAL_PAD)])
    return None


class SvtWarmStart:
    """Warm-start state of one solve's threshold steps.

    block holds the leading rank + _PARTIAL_PAD rows of the last step's
    whole right singular block, kept and unkept rows alike (of Vt after a
    full SVD, of the l Ritz rows after a partial one), where rank is the
    number of values above that step's threshold. A partial step starts
    from these rows, padded with columns from a fixed-seed stream where
    the block is short.

    The first step, and every step of a solve with min(m, n) below
    PARTIAL_SVT_MIN_DIM, takes the full SVD. So does every step after a
    declined partial one until the kept rank falls below the rank kept
    then, so that a solve does not pay for both paths sweep after sweep.
    partial says whether the last step took the partial path, and
    partial_svds counts those steps. Setting enabled to False sends every
    later step to the full SVD.
    """

    def __init__(self, shape):
        self.enabled = min(shape) >= PARTIAL_SVT_MIN_DIM
        self.block = None
        self.rank = 0
        self.declined_rank = None
        self.partial = False
        self.partial_svds = 0
        self.stream = RandomStream(0)

    def _start_block(self):
        if self.block is None:
            return None
        if self.declined_rank is not None and self.rank >= self.declined_rank:
            return None
        V = self.block.T
        short = self.rank + _PARTIAL_PAD - V.shape[1]
        if short > 0:
            V = np.hstack([V, self.stream.gaussian(V.shape[0], short)])
        return V

    def factors(self, M, t):
        """(U, s, Vt) for thresholding M by t: the partial triplets when a
        partial step is taken and accepted, else the full thin SVD."""
        self.partial = False
        if not self.enabled:
            return thin_svd(M)
        V = self._start_block()
        out = None if V is None else _partial_svt(M, t, V, self.stream)
        self.partial = out is not None
        if out is None:
            out = thin_svd(M)
        rank = int(np.count_nonzero(out[1] > t))
        # A copy of only the rows the next step starts from, so that a full
        # SVD's Vt is not held through the rest of the sweep.
        self.block = out[2][:rank + _PARTIAL_PAD].copy()
        if self.partial:
            self.partial_svds += 1
            self.declined_rank = None
        elif V is not None:
            self.declined_rank = rank
        self.rank = rank
        return out


def _svt(M, t, warm=None):
    """Singular-value threshold of M by t, with the kept factors:
    (X, U, s, Vt) where X = U diag(s) Vt and every s is positive.

    Without warm this takes a full thin SVD. With an SvtWarmStart it may
    compute only the leading triplets (see SvtWarmStart.factors).
    """
    U, s, Vt = thin_svd(M) if warm is None else warm.factors(M, t)
    s = np.maximum(s - t, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(M), U[:, :0], s[:0], Vt[:0]
    U, s, Vt = U[:, keep], s[keep], Vt[keep, :]
    return (U * s) @ Vt, U, s, Vt


def svt(M, t):
    """Singular-value thresholding: soft-threshold the spectrum by t."""
    M = as_matrix(M, "M")
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return _svt(M, t)[0]


def prox_l1_box(V, center, t, b):
    """Prox of t*||.||_1 restricted to the box |X - center| <= b.

    Soft-threshold first, then clip into the box; b = inf reduces to plain
    soft thresholding. The box must have positive radius.
    """
    V = as_matrix(V, "V")
    center = as_matrix(center, "center")
    if V.shape != center.shape:
        raise ValueError("V and center must share a shape")
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    if b <= 0:
        raise ValueError("box radius must be positive")
    X = _soft_threshold(V, t)
    if np.isinf(b):
        return X
    return np.clip(X, center - b, center + b)


def clip_entries(M, b):
    """Clip every entry into [-b, b]; b = inf returns a copy."""
    M = as_matrix(M, "M")
    if b <= 0:
        raise ValueError("bound must be positive")
    if np.isinf(b):
        return M.copy()
    return np.clip(M, -b, b)


def _project_l1_vector(x, eps):
    """Project nonnegative vector x onto the simplex-scaled l1 ball of
    radius eps (sort-based threshold rule); returns the shrink amounts
    applied entrywise."""
    if x.sum() <= eps:
        return x.copy()
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - eps
    idx = np.arange(1, x.size + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    theta = css[k - 1] / k
    return np.maximum(x - theta, 0.0)


def _project_l1_ball(M, eps):
    if eps == 0:
        return np.zeros_like(M)
    a = np.abs(M)
    if a.sum() <= eps:
        return M.copy()
    shrunk = _project_l1_vector(a.ravel(), eps).reshape(M.shape)
    return np.sign(M) * shrunk


def project_l1_ball(M, eps):
    """Euclidean projection onto the entrywise-l1 ball of radius eps.

    eps = 0 projects to the zero matrix; points already inside come back as
    a copy.
    """
    M = as_matrix(M, "M")
    if eps < 0:
        raise ValueError("radius must be nonnegative")
    return _project_l1_ball(M, eps)


def _project_nuclear_ball(M, eps):
    if eps == 0:
        return np.zeros_like(M)
    U, s, Vt = thin_svd(M)
    if s.sum() <= eps:
        return M.copy()
    s = _project_l1_vector(s, eps)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(M)
    return (U[:, keep] * s[keep]) @ Vt[keep, :]


def project_nuclear_ball(M, eps):
    """Euclidean projection onto the nuclear-norm ball of radius eps:
    project the spectrum onto the l1 ball of that radius."""
    M = as_matrix(M, "M")
    if eps < 0:
        raise ValueError("radius must be nonnegative")
    return _project_nuclear_ball(M, eps)
