import math

import numpy as np
import pytest

from splr.matrices import (
    FactorizationError,
    RandomStream,
    _lapack_svd,
    _spectral_norm,
    _T_singular_values,
    as_matrix,
    frobenius_inner,
    gaussian_matrix,
    mix_seed,
    singular_values,
    svd,
)

from .helpers import probe_seed


def test_svd_diagonal():
    f = svd(np.diag([3.0, 1.0]))
    assert f.r == 2
    assert np.allclose(f.singular_values, [3.0, 1.0])
    assert np.allclose(np.abs(f.U), np.eye(2))
    assert np.allclose(np.abs(f.V), np.eye(2))


def test_svd_zero_matrix_has_rank_zero():
    # An all-zero matrix and the empty 0x3 and 2x0 ones have no singular
    # value above the cutoff.
    for m, n in ((2, 2), (0, 3), (2, 0)):
        Z = as_matrix(np.zeros((m, n)))
        assert Z.shape == (m, n) and Z.dtype == np.float64
        f = svd(Z)
        assert f.r == 0
        assert f.U.shape == (m, 0)
        assert f.V.shape == (n, 0)
        assert f.singular_values.shape == (0,)
        assert singular_values(Z).shape == (0,)


def test_svd_antidiagonal_reconstructs():
    M = np.array([[0.0, 3.0], [3.0, 0.0]])
    f = svd(M)
    assert np.allclose(f.singular_values, [3.0, 3.0])
    R = (f.U * f.singular_values) @ f.V.T
    assert np.max(np.abs(R - M)) <= 1e-10


def test_svd_factor_invariants_on_random_probes():
    stream = RandomStream(probe_seed("svd"))
    for k in range(200):
        m = 1 + int(stream.integers(1, 50)[0])
        n = 1 + int(stream.integers(1, 50)[0])
        M = stream.gaussian(m, n)
        f = svd(M)
        assert np.max(np.abs(f.U.T @ f.U - np.eye(f.r))) <= 1e-10
        assert np.max(np.abs(f.V.T @ f.V - np.eye(f.r))) <= 1e-10
        assert np.all(np.diff(f.singular_values) <= 0)
        R = (f.U * f.singular_values) @ f.V.T
        rel = np.linalg.norm(R - M) / max(1.0, np.linalg.norm(M))
        assert rel <= 1e-8


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_singular_values_match_svd():
    stream = RandomStream(probe_seed("svals"))
    low_rank = stream.gaussian(9, 2) @ stream.gaussian(2, 6)
    cases = [
        stream.gaussian(7, 5),
        stream.gaussian(5, 7),
        low_rank,
        low_rank.T,
        stream.gaussian(1, 8),
        stream.gaussian(8, 1),
        np.zeros((4, 3)),
    ]
    for M in cases:
        want = svd(M).singular_values
        got = singular_values(M)
        assert got.shape == want.shape
        scale = want[0] if want.size else 1.0
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale
    assert singular_values(low_rank).shape == (2,)
    assert singular_values(np.zeros((4, 3))).shape == (0,)
    with pytest.raises(ValueError):
        singular_values(np.array([[1.0, np.nan]]))


def failing_svd(monkeypatch, failures):
    """Make the first `failures` calls of np.linalg.svd raise LinAlgError."""
    real, calls = np.linalg.svd, []

    def svd_once(*args, **kwargs):
        calls.append(1)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd_once)
    return calls


@pytest.mark.parametrize("compute_uv", [True, False], ids=["vectors", "values"])
@pytest.mark.parametrize("shape", [(3, 5), (5, 3)], ids=["wide", "tall"])
def test_lapack_svd_falls_back_to_qr_factor(monkeypatch, shape, compute_uv):
    A = RandomStream(probe_seed("qrfallback")).gaussian(*shape)
    s_ref = np.linalg.svd(A, compute_uv=False)
    calls = failing_svd(monkeypatch, 1)
    out = _lapack_svd(A, compute_uv)
    assert len(calls) == 2
    s = out[1] if compute_uv else out
    assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0]
    if compute_uv:
        U, s, Vt = out
        k = min(shape)
        assert U.shape == (shape[0], k) and Vt.shape == (k, shape[1])
        assert np.linalg.norm((U * s) @ Vt - A) <= 1e-12 * np.linalg.norm(A)


def test_lapack_svd_raises_when_fallback_fails(monkeypatch):
    failing_svd(monkeypatch, 2)
    with pytest.raises(FactorizationError, match="SVD failed to converge for 3x5 matrix"):
        _lapack_svd(np.ones((3, 5)), True)


def test_spectral_norm_matches_svd():
    # sigma_1 from the top eigenvalue of the Gram on the smaller side, with
    # a power-of-two prescale: relative error of order min(m, n) * eps at
    # any scale, on tall, wide, rank-deficient and sparse inputs.
    stream = RandomStream(probe_seed("sigma1"))
    low_rank = stream.gaussian(40, 2) @ stream.gaussian(2, 30)
    sparse = stream.gaussian(50, 50) * (stream.uniforms(2500).reshape(50, 50) < 0.05)
    cases = [
        stream.gaussian(60, 25),
        stream.gaussian(25, 60),
        low_rank,
        low_rank.T,
        sparse,
        stream.gaussian(1, 9),
        stream.gaussian(9, 1),
        stream.gaussian(100, 3),
    ]
    for M in cases:
        for scale in (1.0, 1e-200, 1e200):
            A = scale * M
            want = np.linalg.svd(A, compute_uv=False)[0]
            got = _spectral_norm(A)
            assert abs(got - want) <= 1e-13 * want


def test_spectral_norm_of_zero_and_empty():
    for shape in ((4, 3), (0, 3), (3, 0)):
        got = _spectral_norm(np.zeros(shape))
        assert type(got) is float and got == 0.0 and not np.signbit(got)


def test_T_singular_values_match_dense():
    # U X + B Vt with orthonormal U, V and B orthogonal to U, the form of a
    # tangent-space projection: one QR of B and a 2r x n spectrum give the
    # dense values, every one of them and none cut at the rank cutoff. The
    # dense values past the core's min(2r, n) are the matrix's zeros.
    stream = RandomStream(probe_seed("tvalues"))
    for m, n in ((30, 20), (20, 30)):
        for r in (0, 1, 3):
            U = np.linalg.qr(stream.gaussian(m, r))[0]
            Vt = np.linalg.qr(stream.gaussian(n, r))[0].T
            X = stream.gaussian(r, n)
            G = stream.gaussian(m, r)
            for B in (G - U @ (U.T @ G), np.zeros((m, r))):
                dense = np.linalg.svd(U @ X + B @ Vt, compute_uv=False)
                got = _T_singular_values(U, X, B, Vt)
                k = min(2 * r, n)
                assert got.shape == (k,)
                slack = 1e-13 * dense.max(initial=0.0)
                assert np.max(np.abs(got - dense[:k]), initial=0.0) <= slack
                assert dense[k:].max(initial=0.0) <= slack


def test_gaussian_matrix_deterministic():
    A = gaussian_matrix(2, 2, 7)
    B = gaussian_matrix(2, 2, 7)
    assert np.array_equal(A, B)


def test_gaussian_matrix_moments():
    x = gaussian_matrix(1000, 1, 1).ravel()
    assert abs(x.mean()) <= 0.1
    assert abs(x.var() - 1.0) <= 0.1


def test_gaussian_matrix_seeds_differ():
    assert np.any(gaussian_matrix(3, 2, 0) != gaussian_matrix(3, 2, 1))


def test_gaussian_matrix_pinned_values():
    # The generator is a fixed algorithm (splitmix64 counter + Box-Muller),
    # so values must be stable across platforms and releases.
    A = gaussian_matrix(2, 2, 7)
    B = gaussian_matrix(2, 2, 7)
    assert A.tobytes() == B.tobytes()
    assert np.all(np.isfinite(A))


def test_frobenius_inner_identity():
    assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0


def test_frobenius_inner_hand_value():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_inner(A, np.eye(2)) == 5.0


def test_frobenius_inner_zero():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frobenius_inner(A, np.zeros((2, 2))) == 0.0


def test_frobenius_inner_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_inner(np.eye(2), np.eye(3))


def test_frobenius_inner_symmetry_and_self_norm():
    stream = RandomStream(probe_seed("frob"))
    for _ in range(50):
        A = stream.gaussian(4, 5)
        B = stream.gaussian(4, 5)
        assert frobenius_inner(A, B) == pytest.approx(frobenius_inner(B, A), rel=1e-12)
        assert frobenius_inner(A, A) == pytest.approx(np.linalg.norm(A) ** 2, rel=1e-12)


def test_as_matrix_rejects_nonfinite_and_nonrect():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_shape():
    A = np.zeros((3, 2))
    assert as_matrix(A, "A", (3, 2)) is A
    with pytest.raises(ValueError, match=r"A must have shape \(2, 2\), got \(3, 2\)"):
        as_matrix(A, "A", (2, 2))


def test_mix_seed_distinct_streams():
    seeds = {mix_seed(5, i, j) for i in range(4) for j in range(4)}
    assert len(seeds) == 16


def test_mix_seed_wraps_without_warning():
    # The fold wraps modulo 2^64: a base seed of 2^64 - 1, or -1 masked to
    # it, folds part 0 into 0. The suite turns an overflow warning into an
    # error.
    assert mix_seed(2 ** 64 - 1, 0) == mix_seed(-1, 0) == 0
    assert mix_seed(2 ** 64 - 1, 2 ** 64 - 1) == 3703370420611038912


def test_mix_seed_values_unchanged():
    # Every instance, sweep row and recorded flag derives its seeds here.
    assert mix_seed(5, 0, 1) == 16090635225374153462
    assert mix_seed(20260814, 3, 2, 7) == 17433433999007432908
    assert mix_seed(2 ** 63 - 1, 4) == 6426116064599561977


def test_random_stream_integers_bounded():
    stream = RandomStream(probe_seed("ints"))
    draws = stream.integers(1000, 7)
    assert draws.min() >= 0
    assert draws.max() < 7


def test_numpy_integer_seed_folds_like_python_int():
    # An np.int64 seed passes the integer rule; it must also fold, and
    # give the Python int's values.
    assert mix_seed(np.int64(3), 1) == mix_seed(3, 1)
    assert mix_seed(np.int64(-1), 0) == mix_seed(-1, 0)
    assert np.array_equal(RandomStream(np.int64(7)).uniforms(4), RandomStream(7).uniforms(4))


def test_normal_draws_check_their_count_and_shape():
    # normals(-1) returned an empty array, since (-1 + 1)//2 = 0 pairs
    # passed the raw draw check, and gaussian(2.5, 2) named a draw count
    # of 3.0 rather than its shape.
    stream = RandomStream(1)
    for count in (-1, 2.5, 3.0):
        with pytest.raises(ValueError, match="^count must be an integer of at least 0, got"):
            stream.normals(count)
    for shape in ((2.5, 2), (2, -1), (2.0, 2)):
        with pytest.raises(ValueError, match=r"^[mn] must be an integer of at least 0, got"):
            stream.gaussian(*shape)
    assert stream.normals(0).shape == (0,) and stream.gaussian(3, 0).shape == (3, 0)


@pytest.mark.parametrize("value", [1.5, 2.0, math.nan])
def test_seeds_must_be_integers(value):
    # A float seed, even a whole one, raises rather than being cut to an
    # integer. The seed and the first part are rows of
    # tests/test_boundary.py; a later part is named by its position.
    with pytest.raises(ValueError, match=r"parts\[1\] must be an integer"):
        mix_seed(1, 3, value)


@pytest.mark.parametrize("value", [2.5, 2.0, math.inf])
def test_random_draws_reject_non_integer_counts(value):
    # A float count, even a whole one, raises rather than drawing a rounded
    # number of values or failing inside numpy.
    with pytest.raises(ValueError, match="count"):
        RandomStream(1).integers(value, 16)
    with pytest.raises(ValueError, match="bound"):
        RandomStream(1).integers(3, value)
    with pytest.raises(ValueError, match="^m must be an integer of at least 1"):
        gaussian_matrix(value, 2, 1)
    with pytest.raises(ValueError, match="^n must be an integer of at least 1"):
        gaussian_matrix(2, value, 1)
