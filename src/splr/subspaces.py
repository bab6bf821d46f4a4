"""Support and row/column-space structure of a target decomposition: the two
orthogonal projectors, sign/orth extraction, and the Neumann-series inverse
of (identity minus composed projectors).

The public functions validate their inputs. The Neumann series and the
certificate call the unchecked projector kernels (leading underscore) on
matrices already validated at their entry.
"""

import math

import numpy as np

from .matrices import _check_integer, _check_real, _is_integer, _svd, as_matrix, svd
from .norms import _frobenius


class NeumannNonConvergence(RuntimeError):
    """Raised when the fixed-point iteration exceeds its iteration cap."""


def sign_matrix(M):
    """Entry-wise sign in {-1, 0, +1}; exact zeros map to 0."""
    return np.sign(as_matrix(M))


class SupportSet:
    """Set of (row, col) index pairs where the sparse component lives, held
    as a boolean mask since projections are applied in inner loops.

    Duplicates are collapsed. Each cell is a pair of integers under
    `_is_integer` (a bool counts as the integer it equals; a numpy bool is no
    integer) inside the ambient shape; the first cell that is not raises
    ValueError.
    """

    def __init__(self, m, n, cells):
        _check_integer(1, m=m, n=n)
        self.m = int(m)
        self.n = int(n)
        self.mask = np.zeros((self.m, self.n), dtype=bool)
        for cell in cells:
            if len(cell) != 2:
                raise ValueError("cells must be (row, col) pairs")
            i, j = cell
            if not (_is_integer(i) and _is_integer(j)):
                raise ValueError(f"cell ({i!r}, {j!r}) must hold integer indices")
            if not (0 <= i < self.m and 0 <= j < self.n):
                raise ValueError(f"cell ({i}, {j}) out of range for {m}x{n}")
            self.mask[int(i), int(j)] = True

    @classmethod
    def _from_mask(cls, mask):
        """Support marked by a boolean (m, n) mask, taken without checks."""
        support = cls.__new__(cls)
        support.m, support.n = mask.shape
        support.mask = mask
        return support

    @classmethod
    def from_matrix(cls, X):
        """Support of the exactly nonzero entries of X."""
        return cls._from_mask(as_matrix(X) != 0)

    @property
    def cells(self):
        """The marked (row, col) pairs in row-major order."""
        ii, jj = np.nonzero(self.mask)
        return tuple(zip(ii.tolist(), jj.tolist()))

    @property
    def kbar(self):
        return int(np.count_nonzero(self.mask))

    def counts(self):
        """(max nonzero cells in any column, max in any row)."""
        col_counts = self.mask.sum(axis=0)
        row_counts = self.mask.sum(axis=1)
        return int(col_counts.max()), int(row_counts.max())


class RowColSpace:
    """Orthonormal factors spanning the column and row spaces of the
    low-rank component. The constructor checks that U and V are 2-D with r
    columns each, r at most min(m, n), and orthonormal to within 1e-8."""

    def __init__(self, U, V):
        U = np.asarray(U, dtype=float)
        V = np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
            raise ValueError("U and V must be 2-D with matching column counts")
        r = U.shape[1]
        if r > min(U.shape[0], V.shape[0]):
            raise ValueError("rank exceeds ambient dimensions")
        for name, Q in (("U", U), ("V", V)):
            err = np.abs(Q.T @ Q - np.eye(r)).max(initial=0.0)
            if not err <= 1e-8:  # NaN fails it
                raise ValueError(f"{name} columns are not orthonormal (deviation {err:.2e})")
        self.U = U
        self.V = V

    @classmethod
    def _from_factors(cls, U, V):
        """The space of orthonormal float factors U (m, r) and V (n, r),
        taken without checks."""
        space = cls.__new__(cls)
        space.U, space.V = U, V
        return space

    @classmethod
    def from_matrix(cls, X):
        f = svd(X)
        return cls._from_factors(f.U, f.V)

    @property
    def r(self):
        return self.U.shape[1]

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
        self.X_L = as_matrix(X_L, "X_L", self.X_S.shape)
        self.support = SupportSet._from_mask(self.X_S != 0)
        f = _svd(self.X_L)
        self.space = RowColSpace._from_factors(f.U, f.V)

    @classmethod
    def _from_parts(cls, X_S, X_L, support, space):
        """The pair with a known support and space: X_S nonzero exactly on
        `support`, and X_L with singular subspaces `space`. Nothing is checked."""
        pair = cls.__new__(cls)
        pair.X_S, pair.X_L, pair.support, pair.space = X_S, X_L, support, space
        return pair

    @property
    def shape(self):
        return self.X_S.shape


def orth_matrix(space):
    """U V^T: the spectral-sign matrix of the low-rank component (zero when
    the rank is zero)."""
    return space.U @ space.V.T


def _project_support(support, A):
    return np.where(support.mask, A, 0.0)


def project_support(support, M):
    """Keep entries on the support cells, zero elsewhere."""
    return _project_support(support, as_matrix(M, shape=(support.m, support.n)))


def _project_T_factored(space, A):
    """(P_T(A), U^T A, B) with P_T(A) = U (U^T A) + B V^T and
    B = A V - U (U^T A V): a sum of two rank-r products, so P_T(A) has
    rank at most 2r."""
    UtA = space.U.T @ A
    B = A @ space.V - space.U @ (UtA @ space.V)
    return space.U @ UtA + B @ space.V.T, UtA, B


def _project_T(space, A):
    return _project_T_factored(space, A)[0]


def project_T(space, M):
    """Orthogonal projection onto matrices whose columns lie in span(U) or
    whose rows lie in span(V): U U^T M + M V V^T - U U^T M V V^T."""
    return _project_T(space, as_matrix(M, shape=(space.m, space.n)))


def neumann_inverse(support, space, which, RHS, tol=1e-12, return_stats=False):
    """Solve x = RHS + (P_a o P_b)(x) by summing the Neumann series.

    which='omega' composes support-after-space (P_Omega(P_T(.)));
    which='T' composes space-after-support (P_T(P_Omega(.))). The caller is
    responsible for the contraction condition (alpha*beta < 1 at the optimal
    balance point); the measured per-step contraction doubles as a runtime
    check and is reported in the stats.

    Each partial-sum increment d_k satisfies d_k = (P_a o P_b)(d_{k-1}).
    The stats hold the step count "iterations", the last Frobenius ratio
    "q" and the per-step "ratios" in the natural norm (v1 or v-inf). A step
    whose ratio is within 1e-12 of 1, or above it, is no contraction: the
    series then gets at most 50 more steps before NeumannNonConvergence.
    """
    R = as_matrix(RHS, "RHS", (support.m, support.n))
    _check_real("(0, inf)", tol=tol)
    x, stats = _neumann_inverse(support, space, which, R, tol)
    return (x, stats) if return_stats else x


@np.errstate(over="ignore")
def _neumann_inverse(support, space, which, R, tol):
    """neumann_inverse of a validated RHS R and tol; returns (x, stats).
    Norms past the float range read inf (see norms._frobenius). Overflow
    is ignored for the whole call, the series' steps included: an
    errstate around each norm made perfbench's certify op (about 9 steps)
    2-5% slower (one BLAS thread, 2-core x86-64)."""
    if which == "omega":
        def step(x):
            return _project_support(support, _project_T(space, x))

        def stat_norm(x):
            return float(np.abs(x).sum())
    elif which == "T":
        def step(x):
            return _project_T(space, _project_support(support, x))

        def stat_norm(x):
            return float(np.abs(x).max())
    else:
        raise ValueError(f"which must be 'omega' or 'T', got {which!r}")

    rhs_norm = _frobenius(R)
    stats = {"iterations": 0, "ratios": [], "q": 0.0}
    if rhs_norm == 0.0:
        return np.zeros_like(R), stats

    # prev_f, prev_s > 0: R is nonzero and a step with df <= tol ends the loop.
    x = R.copy()
    d = R
    prev_f = rhs_norm
    prev_s = stat_norm(R)
    cap = 50
    stalled = False
    k = 0
    while True:
        d = step(d)
        k += 1
        df = _frobenius(d)
        q = df / prev_f
        stats["q"] = q
        # A ratio within 1e-12 of 1 is rounding on a direction the
        # composition fixes, or a contraction needing ~1e12 steps per
        # e-fold decrease. Either way the cap falls to 50 steps ahead and
        # no later ratio raises it; until then each ratio sets the cap.
        if q >= 1.0 - 1e-12:
            stalled = True
            cap = min(cap, k + 50)
        elif q > 0 and not stalled:
            cap = math.ceil(math.log(tol / rhs_norm) / math.log(q)) + 50
        ds = stat_norm(d)
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
    return x, stats
