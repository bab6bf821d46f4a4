"""Matrix norms: entry-wise p-norms, the five induced norms, the trace norm,
the hybrid max norm built from scaled column/row sums, and its dual norm
computed exactly by a small dense linear program.
"""

import numpy as np

from .matrices import as_matrix, singular_values

FLAT_NORM_SIZE_CAP = 256


def entrywise_norm(M, p):
    """Entry-wise p-norm for p in {1, 2, inf}: sum of |entries|, Frobenius,
    or max |entry|."""
    A = as_matrix(M)
    if p == 1:
        return float(np.abs(A).sum())
    if p == 2:
        return float(np.linalg.norm(A))
    if p == np.inf or p == float("inf"):
        return float(np.abs(A).max()) if A.size else 0.0
    raise ValueError(f"unsupported entry-wise norm order: {p!r}")


_INDUCED_MODES = ("1->1", "1->2", "2->2", "2->inf", "inf->inf")


def induced_norm(M, mode):
    """Operator norm of M for the five supported (domain -> range) pairs.

    1->1: max column absolute sum; inf->inf: max row absolute sum;
    1->2: max column Euclidean norm; 2->inf: max row Euclidean norm;
    2->2: largest singular value.
    """
    A = as_matrix(M)
    if mode == "1->1":
        return float(np.abs(A).sum(axis=0).max()) if A.size else 0.0
    if mode == "inf->inf":
        return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0
    if mode == "1->2":
        return float(np.sqrt((A * A).sum(axis=0).max())) if A.size else 0.0
    if mode == "2->inf":
        return float(np.sqrt((A * A).sum(axis=1).max())) if A.size else 0.0
    if mode == "2->2":
        s = singular_values(A)
        return float(s[0]) if s.size else 0.0
    raise ValueError(f"unknown induced norm mode {mode!r}; expected one of {_INDUCED_MODES}")


def trace_norm(M):
    """Sum of singular values."""
    return float(singular_values(M).sum())


def sharp_norm(M, rho):
    """max(rho * ||M||_{1->1}, (1/rho) * ||M||_{inf->inf})."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return max(rho * induced_norm(M, "1->1"), induced_norm(M, "inf->inf") / rho)


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
        enter = -1
        for j in range(nvars + ncons):
            if T[-1, j] < -tol:
                enter = j
                break
        if enter < 0:
            break
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
        pivot = T[leave, enter]
        T[leave] /= pivot
        for i in range(ncons + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    return T[-1, -1]


def flat_norm(M, rho):
    """Dual of the hybrid max norm, as the exact optimum of a linear program.

    Maximizes <M, N+ - N-> over N+, N- >= 0 subject to
    rho * (column sums of N+ + N-) <= 1 and (1/rho) * (row sums) <= 1.
    Exact small-scale diagnostic; sizes are capped at m*n <= 256.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    A = as_matrix(M)
    m, n = A.shape
    if m * n > FLAT_NORM_SIZE_CAP:
        raise ValueError(
            f"flat_norm supports m*n <= {FLAT_NORM_SIZE_CAP}, got {m}x{n}"
        )
    if m * n == 0:
        return 0.0
    mn = m * n
    # Constraint matrix over the stacked variables [N+ (mn), N- (mn)].
    cons = np.zeros((m + n, 2 * mn))
    rows, cols = np.divmod(np.arange(mn), n)
    for j in range(n):
        mask = (cols == j).astype(float) * rho
        cons[j, :mn] = mask
        cons[j, mn:] = mask
    for i in range(m):
        mask = (rows == i).astype(float) / rho
        cons[n + i, :mn] = mask
        cons[n + i, mn:] = mask
    rhs = np.ones(m + n)
    obj = np.concatenate([A.ravel(), -A.ravel()])
    return float(_simplex_maximize(cons, rhs, obj))
