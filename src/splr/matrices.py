"""Dense real-matrix substrate: validation, SVD with rank truncation, inner
products, and a fixed counter-based random number generator.

All matrices are dense float64 numpy arrays. The RNG is splitmix64 driven by
a counter, so every value is a pure function of (seed, position) and streams
are reproducible across platforms and processes.
"""

import numpy as np
from dataclasses import dataclass

# Relative singular-value cutoff: sigma_i is kept iff sigma_i > RANK_TRUNCATION * sigma_1.
RANK_TRUNCATION = 1e-10

_MASK64 = (1 << 64) - 1


class FactorizationError(RuntimeError):
    """Raised when the SVD iteration fails to converge."""


def as_matrix(M, name="matrix"):
    """Validate and convert input to a finite 2-D float64 array."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def check_same_shape(A, B):
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD truncated at the relative rank cutoff.

    U: (m, r) orthonormal columns; singular_values: length-r nonincreasing
    positive; V: (n, r) orthonormal columns.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    r: int


def _lapack_svd(A, compute_uv):
    """np.linalg.svd with a deterministic fallback.

    The default LAPACK divide-and-conquer driver occasionally fails to
    converge on highly structured inputs; when it does, the matrix is
    reduced to its triangular QR factor first, which takes a different
    (and in practice always convergent) reduction path.
    """
    try:
        return np.linalg.svd(A, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        pass
    transpose = A.shape[0] < A.shape[1]
    B = A.T if transpose else A
    Q, R = np.linalg.qr(B)
    try:
        out = np.linalg.svd(R, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"SVD failed to converge for {A.shape[0]}x{A.shape[1]} matrix"
        ) from exc
    if not compute_uv:
        return out
    U, s, Vt = out
    U = Q @ U
    if transpose:
        return Vt.T, s, U.T
    return U, s, Vt


def thin_svd(A):
    """Raw thin SVD (U, s, Vt), with the QR fallback of _lapack_svd."""
    return _lapack_svd(A, True)


def _numerical_rank(s):
    """Count of singular values above RANK_TRUNCATION * sigma_1."""
    if s.size and s[0] > 0:
        return int(np.count_nonzero(s > RANK_TRUNCATION * s[0]))
    return 0


def singular_values(M):
    """Nonincreasing singular values of M above 1e-10 * sigma_1, computed
    without singular vectors."""
    s = _lapack_svd(as_matrix(M), False)
    return s[:_numerical_rank(s)]


def svd(M):
    """Thin SVD of M with rank truncated at sigma_i > 1e-10 * sigma_1."""
    A = as_matrix(M)
    U, s, Vt = thin_svd(A)
    r = _numerical_rank(s)
    return SvdFactors(
        U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy(), r
    )


def frobenius_inner(A, B):
    """Trace inner product tr(A^T B) = sum_ij A_ij * B_ij."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    check_same_shape(A, B)
    return float(np.sum(A * B))


def _splitmix64(z):
    """Vectorized splitmix64 finalizer on a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _raw_block(seed, start, count):
    """uint64 values at stream positions start..start+count-1 for this seed."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(0x9E3779B97F4A7C15)
    return _splitmix64(z)


def mix_seed(seed, *parts):
    """Derive a sub-seed by folding integer parts into the base seed.

    Deterministic across processes (unlike Python's salted hash); used to
    give independent generators to sub-tasks (sweep cells, instance pieces).
    """
    s = np.uint64(seed & _MASK64)
    for p in parts:
        block = np.array([s + np.uint64((int(p) + 1) & _MASK64)], dtype=np.uint64)
        s = _splitmix64(block * np.uint64(0x9E3779B97F4A7C15))[0]
    return int(s)


class RandomStream:
    """Counter-based splitmix64 stream with uniform/normal/integer draws.

    Value i of the raw stream is a pure function of (seed, i): the stream can
    be reproduced exactly from the seed alone, independent of numpy's global
    or Generator state.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._pos = 0

    def _raw(self, count):
        out = _raw_block(self.seed, self._pos, count)
        self._pos += count
        return out

    def uniforms(self, count):
        """i.i.d. uniforms in [0, 1) with 53-bit resolution."""
        return (self._raw(count) >> np.uint64(11)) * (2.0 ** -53)

    def normals(self, count):
        """i.i.d. standard normals via the Box-Muller transform."""
        pairs = (count + 1) // 2
        u1 = ((self._raw(pairs) >> np.uint64(11)) + np.uint64(1)) * (2.0 ** -53)
        u2 = (self._raw(pairs) >> np.uint64(11)) * (2.0 ** -53)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:count]

    def integers(self, count, bound):
        """i.i.d. integers uniform in [0, bound); modulo bias is < bound/2^64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self._raw(count) % np.uint64(bound)).astype(np.int64)

    def gaussian(self, m, n):
        """(m, n) matrix of i.i.d. standard normals."""
        return self.normals(m * n).reshape(m, n)


def gaussian_matrix(m, n, seed):
    """Deterministic (m, n) i.i.d. standard-normal matrix for the given seed."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    return RandomStream(seed).gaussian(m, n)
