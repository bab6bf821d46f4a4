import numpy as np
import pytest

from splr.matrices import (
    RandomStream,
    as_matrix,
    check_same_shape,
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
    f = svd(np.zeros((2, 2)))
    assert f.r == 0
    assert f.U.shape == (2, 0)
    assert f.V.shape == (2, 0)
    assert f.singular_values.shape == (0,)


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


def test_check_same_shape():
    with pytest.raises(ValueError):
        check_same_shape(np.zeros((2, 2)), np.zeros((3, 2)))


def test_mix_seed_distinct_streams():
    seeds = {mix_seed(5, i, j) for i in range(4) for j in range(4)}
    assert len(seeds) == 16


def test_random_stream_integers_bounded():
    stream = RandomStream(probe_seed("ints"))
    draws = stream.integers(1000, 7)
    assert draws.min() >= 0
    assert draws.max() < 7
