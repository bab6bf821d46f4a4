"""Support and row/column-space structure of a target decomposition: the two
orthogonal projectors, sign/orth extraction, and the Neumann-series inverse
of (identity minus composed projectors).
"""

import math

import numpy as np

from .matrices import as_matrix, check_same_shape, svd


class NeumannNonConvergence(RuntimeError):
    """Raised when the fixed-point iteration exceeds its iteration cap."""


def sign_matrix(M):
    """Entry-wise sign in {-1, 0, +1}; exact zeros map to 0."""
    return np.sign(as_matrix(M))


class SupportSet:
    """Set of (row, col) index pairs where the sparse component lives.

    Duplicates are collapsed; indices are validated against the ambient
    shape. The boolean mask is precomputed since projections are applied in
    inner loops.
    """

    def __init__(self, m, n, cells):
        if m < 1 or n < 1:
            raise ValueError("ambient dimensions must be >= 1")
        self.m = int(m)
        self.n = int(n)
        mask = np.zeros((self.m, self.n), dtype=bool)
        for i, j in cells:
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"cell ({i}, {j}) out of range for {m}x{n}")
            mask[i, j] = True
        self.mask = mask
        ii, jj = np.nonzero(mask)
        self.cells = tuple(zip(ii.tolist(), jj.tolist()))

    @classmethod
    def from_matrix(cls, X):
        """Support of the exactly nonzero entries of X."""
        A = as_matrix(X)
        ii, jj = np.nonzero(A)
        return cls(A.shape[0], A.shape[1], zip(ii.tolist(), jj.tolist()))

    @property
    def kbar(self):
        return len(self.cells)

    def counts(self):
        """(max nonzero cells in any column, max in any row)."""
        if not self.cells:
            return 0, 0
        col_counts = self.mask.sum(axis=0)
        row_counts = self.mask.sum(axis=1)
        return int(col_counts.max()), int(row_counts.max())


class RowColSpace:
    """Orthonormal factors spanning the column and row spaces of the
    low-rank component."""

    def __init__(self, U, V, check=True):
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
            raise ValueError("U and V must be 2-D with matching column counts")
        r = U.shape[1]
        if r > min(U.shape[0], V.shape[0]):
            raise ValueError("rank exceeds ambient dimensions")
        if check and r:
            for name, Q in (("U", U), ("V", V)):
                err = np.abs(Q.T @ Q - np.eye(r)).max()
                if err > 1e-8:
                    raise ValueError(f"{name} columns are not orthonormal (deviation {err:.2e})")
        self.U = U
        self.V = V
        self.r = r

    @classmethod
    def from_matrix(cls, X):
        f = svd(X)
        return cls(f.U, f.V, check=False)

    @property
    def m(self):
        return self.U.shape[0]

    @property
    def n(self):
        return self.V.shape[0]


class TargetPair:
    """A candidate decomposition (X_S, X_L) with its derived support set and
    singular-subspace factors."""

    def __init__(self, X_S, X_L):
        self.X_S = as_matrix(X_S, "X_S")
        self.X_L = as_matrix(X_L, "X_L")
        check_same_shape(self.X_S, self.X_L)
        self.support = SupportSet.from_matrix(self.X_S)
        self.space = RowColSpace.from_matrix(self.X_L)

    @property
    def shape(self):
        return self.X_S.shape


def orth_matrix(space):
    """U V^T: the spectral-sign matrix of the low-rank component (zero when
    the rank is zero)."""
    return space.U @ space.V.T


def project_support(support, M):
    """Keep entries on the support cells, zero elsewhere."""
    A = as_matrix(M)
    if A.shape != (support.m, support.n):
        raise ValueError(f"shape mismatch: {A.shape} vs ({support.m}, {support.n})")
    return np.where(support.mask, A, 0.0)


def project_T(space, M):
    """Orthogonal projection onto matrices whose columns lie in span(U) or
    whose rows lie in span(V): U U^T M + M V V^T - U U^T M V V^T."""
    A = as_matrix(M)
    if A.shape != (space.m, space.n):
        raise ValueError(f"shape mismatch: {A.shape} vs ({space.m}, {space.n})")
    if space.r == 0:
        return np.zeros_like(A)
    UtM = space.U.T @ A
    MV = A @ space.V
    return space.U @ UtM + (MV - space.U @ (UtM @ space.V)) @ space.V.T


def project_support_complement(support, M):
    return as_matrix(M) - project_support(support, M)


def project_T_complement(space, M):
    return as_matrix(M) - project_T(space, M)


def neumann_inverse(support, space, which, RHS, tol=1e-12, return_stats=False):
    """Solve x = RHS + (P_a o P_b)(x) by summing the Neumann series.

    which='omega' composes support-after-space (P_Omega(P_T(.)));
    which='T' composes space-after-support (P_T(P_Omega(.))). The caller is
    responsible for the contraction condition (alpha*beta < 1 at the optimal
    balance point); the measured per-step contraction doubles as a runtime
    check and is reported in the stats.

    Each partial-sum increment d_k satisfies d_k = (P_a o P_b)(d_{k-1}).
    The stats hold the step count "iterations", the last Frobenius ratio
    "q" and the per-step "ratios" in the natural norm (v1 or v-inf).
    """
    R = as_matrix(RHS, "RHS")
    if which == "omega":
        def step(x):
            return project_support(support, project_T(space, x))

        def stat_norm(x):
            return float(np.abs(x).sum())
    elif which == "T":
        def step(x):
            return project_T(space, project_support(support, x))

        def stat_norm(x):
            return float(np.abs(x).max()) if x.size else 0.0
    else:
        raise ValueError(f"which must be 'omega' or 'T', got {which!r}")

    rhs_norm = float(np.linalg.norm(R))
    stats = {"iterations": 0, "ratios": [], "q": 0.0}
    if rhs_norm == 0.0:
        x = np.zeros_like(R)
        return (x, stats) if return_stats else x

    x = R.copy()
    d = R.copy()
    prev_f = rhs_norm
    prev_s = stat_norm(R)
    cap = 50
    k = 0
    while True:
        d = step(d)
        k += 1
        df = float(np.linalg.norm(d))
        if prev_f > 0:
            q = df / prev_f
            stats["q"] = q
            if 0 < q < 1:
                cap = math.ceil(math.log(tol / rhs_norm) / math.log(q)) + 50
        ds = stat_norm(d)
        if prev_s > 0:
            stats["ratios"].append(ds / prev_s)
        x += d
        stats["iterations"] = k
        if df <= tol:
            break
        if k >= cap:
            raise NeumannNonConvergence(
                f"fixed-point iteration exceeded {cap} steps "
                f"(measured per-step contraction {stats['q']:.6g})"
            )
        prev_f = df
        prev_s = ds
    return (x, stats) if return_stats else x
