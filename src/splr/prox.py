"""Proximal operators and projections used by the solvers: entrywise soft
thresholding, singular-value thresholding, the box-constrained l1 prox,
entrywise clipping, and Euclidean projections onto entrywise-l1 and
nuclear-norm balls.

This module holds the entrywise shrink arithmetic. Every spectral step
is matrices._threshold_step, which also shrinks the spectrum; the public
svt and project_nuclear_ball take it at tol = 0, so by the full SVD.

The public functions validate their inputs. The solvers validate once at
entry and call the unchecked kernels (leading underscore) in their loops.
"""

import numpy as np

from .matrices import _check_real, _threshold_step, as_matrix

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
    _check_real("[0, inf]", t=t)
    return _soft_threshold(M, t)


def svt(M, t):
    """Singular-value thresholding: soft-threshold the spectrum by t."""
    M = as_matrix(M, "M")
    _check_real("[0, inf]", t=t)
    return _threshold_step(M, t, 0.0)[0]


def prox_l1_box(V, center, t, b):
    """Prox of t*||.||_1 restricted to the box |X - center| <= b.

    Soft-threshold first, then clip into the box; b = inf reduces to plain
    soft thresholding. The box must have positive radius.
    """
    V = as_matrix(V, "V")
    center = as_matrix(center, "center", V.shape)
    _check_real("[0, inf]", t=t)
    _check_real("(0, inf]", b=b)
    return np.clip(_soft_threshold(V, t), center - b, center + b)


def clip_entries(M, b):
    """Clip every entry into [-b, b]; b = inf returns a copy."""
    M = as_matrix(M, "M")
    _check_real("(0, inf]", b=b)
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
    _check_real("[0, inf]", eps=eps)
    return _project_l1_ball(M, eps)


def _project_nuclear_ball(M, eps, tol=0.0):
    """project_nuclear_ball of a validated M, with the spectrum's l1-ball
    shrink as the rule of matrices._threshold_step under tol: a solve's
    tol lets the Gram serve a small M, tol = 0 takes the full SVD. A
    spectrum already inside the ball gives a copy of M."""
    if eps == 0:
        return np.zeros_like(M)
    out = _threshold_step(
        M, lambda s: None if s.sum() <= eps else _l1_ball_shrink(s, eps), tol)
    return M.copy() if out is None else out[0]


def project_nuclear_ball(M, eps):
    """Euclidean projection onto the nuclear-norm ball of radius eps:
    project the spectrum onto the l1 ball of that radius."""
    M = as_matrix(M, "M")
    _check_real("[0, inf]", eps=eps)
    return _project_nuclear_ball(M, eps)
