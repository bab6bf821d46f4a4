"""Matrix norms: entry-wise p-norms, the five induced norms, the trace norm,
the hybrid max norm built from scaled column/row sums, and its dual norm
computed exactly by a small dense linear program.
"""

import math

import numpy as np

from .matrices import _check_real, _lapack_svd, _spectral_norm, as_matrix

FLAT_NORM_SIZE_CAP = 256


def entrywise_norm(M, p):
    """Entry-wise p-norm for p in {1, 2, inf}: sum of |entries|, Frobenius,
    or max |entry|."""
    return _entrywise_norm(as_matrix(M), p)


def _entrywise_norm(A, p):
    if p == 1:
        with np.errstate(over="ignore"):  # a sum past the float range reads inf
            return float(np.abs(A).sum())
    if p == 2:
        with np.errstate(over="ignore"):
            return _frobenius(A)
    if p == np.inf:
        return float(np.abs(A).max(initial=0.0))
    raise ValueError(f"unsupported entry-wise norm order: {p!r}")


# Sums of squares below tiny/eps = 2**-970 are recomputed from rescaled
# entries. A square that rounds into the subnormal range, or to 0, is off
# by at most 2**-1075, so for fewer than 2**52 entries these errors sum to
# less than half an ulp of any sum at or above the threshold.
_FROBENIUS_RESCALE_BELOW = np.finfo(float).tiny / np.finfo(float).eps


def _frobenius(A):
    """Frobenius norm by np.linalg.norm's arithmetic, without its wrapper:
    the square root of the dot product of the raveled entries. Where that
    sum of squares overflows, or falls below _FROBENIUS_RESCALE_BELOW
    (where subnormal squares could move it), the entries are divided by
    max|A| first, so the norm is accurate whenever it is representable;
    elsewhere the value is np.linalg.norm's to the bit. The caller ignores
    overflow (np.errstate(over="ignore"))."""
    x = A.ravel(order="K")
    sq = x.dot(x)
    if _FROBENIUS_RESCALE_BELOW <= sq < math.inf:
        return math.sqrt(sq)
    scale = float(np.abs(x).max(initial=0.0))
    if not 0.0 < scale < math.inf:  # zero or empty, or an infinite or NaN entry
        return scale
    x = x / scale
    return scale * math.sqrt(x.dot(x))


_INDUCED_MODES = ("1->1", "1->2", "2->2", "2->inf", "inf->inf")


def induced_norm(M, mode):
    """Operator norm of M for the five supported (domain -> range) pairs.

    1->1: max column absolute sum; inf->inf: max row absolute sum;
    1->2: max column Euclidean norm; 2->inf: max row Euclidean norm;
    2->2: largest singular value.
    """
    return _induced_norm(as_matrix(M), mode)


def _induced_norm(A, mode):
    if mode == "1->1":
        return float(np.abs(A).sum(axis=0).max(initial=0.0))
    if mode == "inf->inf":
        return float(np.abs(A).sum(axis=1).max(initial=0.0))
    if mode == "1->2":
        return float(np.sqrt((A * A).sum(axis=0).max(initial=0.0)))
    if mode == "2->inf":
        return float(np.sqrt((A * A).sum(axis=1).max(initial=0.0)))
    if mode == "2->2":
        return _spectral_norm(A)
    raise ValueError(f"unknown induced norm mode {mode!r}; expected one of {_INDUCED_MODES}")


def trace_norm(M):
    """Sum of all singular values. None is cut at the rank cutoff of
    matrices.singular_values, which decides ranks: a norm sums the whole
    spectrum, so values below 1e-10 * sigma_1 still count."""
    return _trace_norm(as_matrix(M))


def _trace_norm(A):
    return float(_lapack_svd(A, False).sum())


def sharp_norm(M, rho):
    """max(rho * ||M||_{1->1}, (1/rho) * ||M||_{inf->inf})."""
    _check_real("(0, inf)", rho=rho)
    A = as_matrix(M)
    return max(rho * _induced_norm(A, "1->1"), _induced_norm(A, "inf->inf") / rho)


def _simplex_maximize(A, b, c):
    """Maximize c^T x s.t. A x <= b, x >= 0, with b >= 0 (origin feasible).

    Dense tableau simplex with Bland's rule (always pick the lowest-index
    eligible entering and leaving variable), which cannot cycle. Returns the
    optimal objective value. Problem sizes here are tiny (tens of rows).
    """
    ncons, nvars = A.shape
    T = np.zeros((ncons + 1, nvars + ncons + 1))
    T[:ncons, :nvars] = A
    T[:ncons, nvars:nvars + ncons] = np.eye(ncons)
    T[:ncons, -1] = b
    T[-1, :nvars] = -c
    basis = list(range(nvars, nvars + ncons))
    tol = 1e-12
    while True:
        eligible = np.flatnonzero(T[-1, :-1] < -tol)
        if not eligible.size:
            break
        enter = eligible[0]
        leave = -1
        best = np.inf
        for i in range(ncons):
            a = T[i, enter]
            if a > tol:
                ratio = T[i, -1] / a
                if ratio < best - tol or (
                    abs(ratio - best) <= tol and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("linear program is unbounded (internal bug: feasible set is a polytope)")
        T[leave] /= T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= np.outer(col, T[leave])
        basis[leave] = enter
    return T[-1, -1]


def flat_norm(M, rho):
    """Dual of the hybrid max norm, as the exact optimum of a linear program.

    Maximizes <|M|, N> over N >= 0 subject to rho * (column sums of N) <= 1
    and (1/rho) * (row sums of N) <= 1: an optimal N of the signed program
    puts each entry's mass on sign(M), so one nonnegative variable per
    entry suffices. Exact small-scale diagnostic; sizes are capped at
    m*n <= 256.
    """
    _check_real("(0, inf)", rho=rho)
    A = as_matrix(M)
    m, n = A.shape
    if m * n > FLAT_NORM_SIZE_CAP:
        raise ValueError(
            f"flat_norm supports m*n <= {FLAT_NORM_SIZE_CAP}, got {m}x{n}"
        )
    rows, cols = np.divmod(np.arange(m * n), n)
    cons = np.vstack([
        rho * (cols == np.arange(n)[:, None]),
        (rows == np.arange(m)[:, None]) / rho,
    ])
    return float(_simplex_maximize(cons, np.ones(m + n), np.abs(A).ravel()))
