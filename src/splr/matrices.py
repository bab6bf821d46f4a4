"""Dense real-matrix substrate: validation, every dense factorization of
the library (SVD with rank truncation, sign-fixed QR, the scaled Gram's
eigendecomposition), the spectral norm, inner products, and a fixed
counter-based random number generator.

It is also the spectral layer of the solvers: _threshold_step is every
spectral step, the threshold steps and the nuclear-ball projection alike.
It picks the path of the triplets (the Gram's triplets above the
threshold, the warm-started partial SVD, or the full SVD) and returns the
thresholded matrix with its kept values.

All matrices are dense float64 numpy arrays. The RNG is splitmix64 driven by
a counter, so every value is a pure function of (seed, position) and streams
are reproducible across platforms and processes.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Relative rank cutoff: sigma_i counts toward the rank iff
# sigma_i > RANK_TRUNCATION * sigma_1. It decides ranks only (_svd and
# singular_values); norms sum every value.
RANK_TRUNCATION = 1e-10

_EPS = float(np.finfo(float).eps)
_MASK64 = (1 << 64) - 1


class FactorizationError(RuntimeError):
    """Raised when the SVD iteration fails to converge."""


def as_matrix(M, name="matrix", shape=None):
    """Validate and convert input to a finite 2-D float64 array, of the
    given shape (a tuple) when one is given: the library's one shape rule."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    if shape is not None and A.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {A.shape}")
    return A


def _is_integer(value, low=-math.inf):
    """An integer, not a float, >= low (a bool counts; a numpy bool is no
    integer)."""
    return isinstance(value, numbers.Integral) and value >= low


def _check_integer(low, high=math.inf, **values):
    """The one rule for dimensions, ranks, counts and seeds: each value an
    integer, not a float, in [low, high]. Raises ValueError naming the
    first that is not, its bounds and its value."""
    for name, value in values.items():
        if not (_is_integer(value, low) and value <= high):
            bounds = "" if low == -math.inf else f" of at least {low}"
            bounds += "" if high == math.inf else f" and at most {high}"
            raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


def _parse_interval(interval):
    """(lo, hi, lo_open, hi_open) of an interval written as "(0, inf]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "(", interval[-1] == ")"


# The intervals of the real premises, in the README's notation, parsed once.
_INTERVALS = {interval: _parse_interval(interval) for interval in (
    "(0, inf)", "[0, inf]", "(0, inf]", "[0, inf)", "(1, inf)", "[0, 1]", "[-inf, inf]")}


def _check_real(interval, **values):
    """The one rule for every real-valued premise: each value in interval,
    one of _INTERVALS. Negated comparisons, so NaN fails. Raises
    ValueError naming the first value that is not, the interval and the
    value."""
    lo, hi, lo_open, hi_open = _INTERVALS[interval]
    for name, value in values.items():
        if not ((lo < value if lo_open else lo <= value)
                and (value < hi if hi_open else value <= hi)):
            raise ValueError(f"{name} must lie in {interval}, got {value!r}")


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


def _orthonormalize(G):
    """Q of the thin QR of G with the signs of its columns fixed so that R
    has a nonnegative diagonal: a factor reproducible from G alone."""
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d


def _numerical_rank(s):
    """Count of singular values above RANK_TRUNCATION * sigma_1."""
    return int(np.count_nonzero(s > RANK_TRUNCATION * s.max(initial=0.0)))


def singular_values(M):
    """Nonincreasing singular values of M above 1e-10 * sigma_1, computed
    without singular vectors: the values of the numerical rank, cut as svd
    cuts them. Norms are not taken from these; they sum the whole spectrum
    (see norms.trace_norm)."""
    s = _lapack_svd(as_matrix(M), False)
    return s[:_numerical_rank(s)]


def _scaled_gram(A):
    """(e, S, G) with S = 2^-e A and G the Gram of S on the smaller side, S
    S^T when m <= n and S^T S otherwise, or None when A is zero or empty.

    e is the power of two with max|A| in [2^(e-1), 2^e). The scaling is
    exact and keeps the Gram's entries at most max(m, n) in magnitude, so
    the Gram cannot overflow at any finite scale of A.
    """
    amax = float(np.abs(A).max(initial=0.0))
    if amax == 0.0:
        return None
    e = math.frexp(amax)[1]
    S = np.ldexp(A, -e)
    return e, S, (S @ S.T if S.shape[0] <= S.shape[1] else S.T @ S)


def _spectral_norm(A):
    """Largest singular value of A, from the top eigenvalue of its scaled
    Gram (see _scaled_gram).

    The Gram and its eigenvalue carry rounding of order
    max(m, n)*eps*sigma_1^2, so sigma_1 has a relative error of order
    max(m, n)*eps at worst. Zero and empty matrices give 0.0, and a
    sigma_1 beyond the float range gives inf.
    """
    scaled = _scaled_gram(A)
    if scaled is None:
        return 0.0
    e, _, G = scaled
    try:
        return math.ldexp(math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0)), e)
    except OverflowError:
        return math.inf


def _gram_svt_factors(A, t, tol):
    """(U, s, Vt, t): A's singular triplets with s > t only, from the
    eigendecomposition of its scaled Gram (see _scaled_gram), and t; or
    None when declined. t is a threshold, or a rule that maps the whole
    nonincreasing spectrum to one, or to None, which declines.

    With G = Q diag(w) Q^T, s = 2^e sqrt(w) over the kept eigenvalues. The
    Gram's side takes its singular vectors from the kept columns Q_k of Q;
    the other side's are S^T Q_k / sqrt(w_k) (S Q_k / sqrt(w_k) for a tall
    A). Rounding in the Gram is of order eps*sigma_1^2, so each value at or
    above t, and the orthonormality of the kept vectors, carry a relative
    error of order eps*(sigma_1/t)^2. The step is declined, so that the
    caller takes the full SVD, unless delta = min(m, n)*eps*(sigma_1/t)^2
    < tol/100: within that bound, sum(s - t) is the trace norm of the
    thresholded U diag(s - t) Vt, and a rule's t that moves no more than
    those values do, as the l1-ball shrink's, is off by a relative error
    of the same order. Any value kept has sigma_1/t > 1, so a tol/100
    of at most min(m, n)*eps, tol = 0 included, declines before any work.
    It is declined too when eigh fails to converge, sigma_1 overflows or
    t is 0; the full SVD serves a zero or empty A.
    """
    floor = min(A.shape) * _EPS
    scaled = _scaled_gram(A) if floor < tol / 100 else None
    if scaled is None:
        return None
    e, S, G = scaled
    try:
        w, Q = np.linalg.eigh(G)
    except np.linalg.LinAlgError:
        return None
    # eigh orders the values up; the spectrum is their reverse.
    r = np.sqrt(np.maximum(w, 0.0))[::-1]
    try:
        sigma_1 = math.ldexp(float(r[0]), e)
    except OverflowError:
        return None
    s = np.ldexp(r, e)
    if callable(t) and (t := t(s)) is None:
        return None
    ratio = sigma_1 / t if t > 0 else math.inf
    if not floor * ratio * ratio < tol / 100:
        return None
    k = int(np.count_nonzero(s > t))
    s, r, Q = s[:k], r[:k], Q[:, ::-1][:, :k]
    if S.shape[0] <= S.shape[1]:
        return Q, s, (Q.T @ S) / r[:, None], t
    return (S @ Q) / r, s, Q.T, t


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
    """Warm-start state of one solve's threshold steps (see
    _threshold_step).

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

    The full SVD serves a declined partial step, and every step while
    4 * width > min(m, n); that cap is checked before padding, so a
    refused step draws nothing from the stream. partial_svds counts the
    steps that took the partial path.
    """

    def __init__(self, shape):
        self.block = np.empty((0, shape[1]))
        self.width = min(shape) // 4
        self.partial_svds = 0
        self.stream = RandomStream(0)

    def factors(self, M, t):
        """(U, s, Vt) for thresholding M by t: the partial triplets when
        that step is taken and accepted, else the full thin SVD."""
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


def _threshold_step(M, t, tol, warm=None):
    """(X, s): M with its spectrum shrunk by t, where s holds the positive
    shrunk values and X = U diag(s) Vt over their triplets; the one entry
    of every spectral step. t is a threshold, or a rule that maps the
    whole nonincreasing spectrum to one, or to None, for which the step
    returns None.

    Below PARTIAL_SVT_MIN_DIM the triplets above t come from the Gram's
    eigendecomposition (_gram_svt_factors), which declines unless its
    error bound delta = min(m, n)*eps*(sigma_1/t)^2 is below tol/100, tol
    being the solve's; tol = 0 always declines. At or above it, a
    threshold step with the solve's SvtWarmStart warm tries the partial
    path. A rule takes no warm: a partial step needs its threshold in
    advance. Anything declined, and every other case, takes the full thin
    SVD, which gives every triplet, and the rule is then applied to its
    values.
    """
    if min(M.shape) < PARTIAL_SVT_MIN_DIM:
        out = _gram_svt_factors(M, t, tol)
        if out is not None:
            return _shrink_spectrum(*out)
    elif warm is not None:
        return _shrink_spectrum(*warm.factors(M, t), t)
    U, s, Vt = thin_svd(M)
    if callable(t) and (t := t(s)) is None:
        return None
    return _shrink_spectrum(U, s, Vt, t)


def _T_singular_values(U, X, B, Vt):
    """The whole nonincreasing spectrum of U X + B Vt without forming it,
    for U (m x r) and Vt^T (n x r) with orthonormal columns and B (m x r)
    orthogonal to U: the form of a tangent-space projection (see
    subspaces._project_T_factored).

    With a thin QR B = Q R, the matrix is [U, Q] [X; R Vt] and [U, Q] has
    orthonormal columns, so its values are those of the 2r x n stack
    [X; R Vt]. That costs one m x r QR and a 2r x n spectrum instead of a
    dense m x n SVD. No value is cut at the rank cutoff: the callers take
    norms, which sum or bound every value.
    """
    return _lapack_svd(np.vstack([X, np.linalg.qr(B, mode="r") @ Vt]), False)


def svd(M):
    """Thin SVD of M with rank truncated at sigma_i > 1e-10 * sigma_1."""
    return _svd(as_matrix(M))


def _svd(A):
    """svd of a validated A."""
    U, s, Vt = thin_svd(A)
    r = _numerical_rank(s)
    return SvdFactors(
        U[:, :r].copy(), s[:r].copy(), Vt[:r].T.copy(), r
    )


def frobenius_inner(A, B):
    """Trace inner product tr(A^T B) = sum_ij A_ij * B_ij."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B", A.shape)
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
    _check_integer(-math.inf, seed=seed, **{f"parts[{i}]": p for i, p in enumerate(parts)})
    s = int(seed) & _MASK64
    for p in parts:
        # Python ints wrap the fold silently, where uint64 scalars warn.
        block = np.array([(s + int(p) + 1) & _MASK64], dtype=np.uint64)
        s = int(_splitmix64(block * np.uint64(0x9E3779B97F4A7C15))[0])
    return s


class RandomStream:
    """Counter-based splitmix64 stream with uniform/normal/integer draws.

    Value i of the raw stream is a pure function of (seed, i): the stream can
    be reproduced exactly from the seed alone, independent of numpy's global
    or Generator state.
    """

    def __init__(self, seed):
        _check_integer(-math.inf, seed=seed)
        self.seed = int(seed) & _MASK64
        self._pos = 0

    def _raw(self, count):
        _check_integer(0, count=count)
        out = _raw_block(self.seed, self._pos, count)
        self._pos += count
        return out

    def uniforms(self, count):
        """i.i.d. uniforms in [0, 1) with 53-bit resolution."""
        return (self._raw(count) >> np.uint64(11)) * (2.0 ** -53)

    def normals(self, count):
        """i.i.d. standard normals via the Box-Muller transform."""
        _check_integer(0, count=count)
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
        _check_integer(1, bound=bound)
        return (self._raw(count) % np.uint64(bound)).astype(np.int64)

    def gaussian(self, m, n):
        """(m, n) matrix of i.i.d. standard normals."""
        _check_integer(0, m=m, n=n)
        return self.normals(m * n).reshape(m, n)


def gaussian_matrix(m, n, seed):
    """Deterministic (m, n) i.i.d. standard-normal matrix for the given seed."""
    _check_integer(1, m=m, n=n)
    return RandomStream(seed).gaussian(m, n)
