"""Proximal operators and projections used by the solvers: entrywise soft
thresholding, singular-value thresholding, the box-constrained l1 prox,
entrywise clipping, and Euclidean projections onto entrywise-l1 and
nuclear-norm balls.

The public functions validate their inputs. The solvers validate once at
entry and call the unchecked kernels (leading underscore) in their loops.
"""

import numpy as np

from .matrices import as_matrix, thin_svd

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


def _svt(M, t):
    """Singular-value threshold of M by t, with the kept factors:
    (X, U, s, Vt) where X = U diag(s) Vt and every s is positive."""
    U, s, Vt = thin_svd(M)
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
