import math

import numpy as np
import pytest
import scipy.optimize

from splr.matrices import RandomStream, frobenius_inner
from splr.norms import (
    FLAT_NORM_SIZE_CAP,
    entrywise_norm,
    flat_norm,
    induced_norm,
    sharp_norm,
    trace_norm,
)

from .helpers import probe_seed

A_HAND = np.array([[1.0, -2.0], [3.0, 4.0]])


def flat_norm_lp_oracle(M, rho):
    """Independent flat-norm value via scipy's LP solver.

    Same program as the library routine: maximize <M, P - Q> with P, Q >= 0,
    rho * colsum(P + Q) <= 1, (1/rho) * rowsum(P + Q) <= 1.
    """
    M = np.asarray(M, dtype=float)
    m, n = M.shape
    nv = m * n
    c = np.concatenate([-M.ravel(), M.ravel()])
    rows = []
    rhs = []
    for j in range(n):
        row = np.zeros(2 * nv)
        for i in range(m):
            row[i * n + j] = rho
            row[nv + i * n + j] = rho
        rows.append(row)
        rhs.append(1.0)
    for i in range(m):
        row = np.zeros(2 * nv)
        row[i * n : (i + 1) * n] = 1.0 / rho
        row[nv + i * n : nv + (i + 1) * n] = 1.0 / rho
        rows.append(row)
        rhs.append(1.0)
    res = scipy.optimize.linprog(
        c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=(0, None), method="highs"
    )
    assert res.success
    return -res.fun


def test_entrywise_norms_hand_values():
    assert entrywise_norm(A_HAND, 1) == 10.0
    assert entrywise_norm(A_HAND, math.inf) == 4.0
    assert entrywise_norm(A_HAND, 2) == pytest.approx(math.sqrt(30.0), rel=1e-12)


def test_entrywise_norm_zero():
    # All-zero and empty matrices have every entrywise and induced norm 0.
    for shape in ((3, 2), (0, 3), (2, 0)):
        Z = np.zeros(shape)
        for p in (1, 2, math.inf):
            got = entrywise_norm(Z, p)
            assert type(got) is float and got == 0.0
        for mode in ("1->1", "1->2", "2->2", "2->inf", "inf->inf"):
            got = induced_norm(Z, mode)
            assert type(got) is float and got == 0.0


def test_frobenius_is_numpys_below_overflow_and_finite_above():
    M = RandomStream(probe_seed("frob")).gaussian(7, 5)
    for A in (M, M.T, M[::2], 1e150 * M):
        assert entrywise_norm(A, 2) == np.linalg.norm(A)
    # The squares of 1e-160 * M are subnormal, so numpy's value is ~5e-6
    # off; the rescaled one is accurate.
    tiny = entrywise_norm(1e-160 * M, 2)
    assert math.isclose(tiny, 1e-160 * np.linalg.norm(M), rel_tol=1e-15)
    assert entrywise_norm(np.full((3, 4), 1e300), 2) == pytest.approx(1e300 * math.sqrt(12), rel=1e-15)
    big = 1e200 * M
    assert entrywise_norm(big, 2) == pytest.approx(1e200 * np.linalg.norm(M), rel=1e-14)


def test_induced_norm_hand_values():
    assert induced_norm(A_HAND, "1->1") == 6.0
    assert induced_norm(A_HAND, "inf->inf") == 7.0


def test_induced_norm_identity_all_modes():
    for mode in ("1->1", "1->2", "2->2", "2->inf", "inf->inf"):
        assert induced_norm(np.eye(4), mode) == pytest.approx(1.0, abs=1e-12)


def test_induced_norm_unknown_mode():
    with pytest.raises(ValueError):
        induced_norm(A_HAND, "2->1")


def test_induced_norm_euclidean_modes():
    assert induced_norm(A_HAND, "1->2") == pytest.approx(math.sqrt(4 + 16), rel=1e-12)
    assert induced_norm(A_HAND, "2->inf") == pytest.approx(5.0, rel=1e-12)


def test_trace_norm_diagonal():
    assert trace_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0, rel=1e-12)


def test_trace_norm_hand_value():
    # sigma1^2 + sigma2^2 = ||A||_F^2 = 30 and sigma1*sigma2 = |det| = 10,
    # so (sigma1 + sigma2)^2 = 30 + 20 = 50.
    assert trace_norm(A_HAND) == pytest.approx(math.sqrt(50.0), rel=1e-10)


def test_trace_norm_rank_one():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 0.0])
    assert trace_norm(np.outer(u, v)) == pytest.approx(1.0, rel=1e-12)


def test_trace_norm_sums_values_below_rank_cutoff():
    # Values at or below 1e-10 * sigma_1 fall below the rank cutoff but
    # still count in the norm: cut, the sum read 1.0, a relative error of
    # 4.95e-9.
    got = trace_norm(np.diag([1.0] + [5e-11] * 99))
    assert got == pytest.approx(1.0 + 99 * 5e-11, rel=1e-15)


def test_sharp_norm_hand_values():
    assert sharp_norm(A_HAND, 1.0) == 7.0
    assert sharp_norm(A_HAND, 2.0) == 12.0
    assert sharp_norm(np.eye(3), 1.0) == 1.0


def test_flat_norm_zero_matrix():
    for rho in (0.25, 1.0, 4.0):
        assert flat_norm(np.zeros((3, 3)), rho) == pytest.approx(0.0, abs=1e-10)
        # The program on an empty matrix has no variables; its optimum is 0.
        for shape in ((0, 3), (2, 0)):
            got = flat_norm(np.zeros(shape), rho)
            assert type(got) is float and got == 0.0


def test_flat_norm_single_cell():
    M = np.zeros((2, 2))
    M[0, 0] = 1.0
    assert flat_norm(M, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_flat_norm_size_cap():
    with pytest.raises(ValueError):
        flat_norm(np.zeros((17, 17)), 1.0)
    assert 17 * 17 > FLAT_NORM_SIZE_CAP


def test_flat_norm_matches_lp_oracle():
    stream = RandomStream(probe_seed("flatlp"))
    for k in range(30):
        m = 2 + int(stream.integers(1, 4)[0])
        n = 2 + int(stream.integers(1, 4)[0])
        M = stream.gaussian(m, n)
        for rho in (0.25, 1.0, 4.0):
            mine = flat_norm(M, rho)
            ref = flat_norm_lp_oracle(M, rho)
            assert mine == pytest.approx(ref, abs=1e-7)


def test_flat_norm_below_trace_norm():
    stream = RandomStream(probe_seed("flattrace"))
    for _ in range(30):
        M = stream.gaussian(4, 4)
        assert flat_norm(M, 1.0) <= trace_norm(M) + 1e-8


def test_duality_pairing():
    stream = RandomStream(probe_seed("duality"))
    for _ in range(100):
        M = stream.gaussian(5, 5)
        N = stream.gaussian(5, 5)
        rho = float(4.0 ** (2.0 * stream.uniforms(1)[0] - 1.0))
        inner = frobenius_inner(M, N)
        assert inner <= sharp_norm(M, rho) * flat_norm(N, rho) + 1e-8
        assert inner <= trace_norm(M) * induced_norm(N, "2->2") + 1e-8


def test_spectral_below_sharp():
    stream = RandomStream(probe_seed("sharpspec"))
    for _ in range(100):
        M = stream.gaussian(5, 6)
        for rho in (0.25, 1.0, 4.0):
            assert induced_norm(M, "2->2") <= sharp_norm(M, rho) + 1e-9


def test_absolute_homogeneity():
    stream = RandomStream(probe_seed("homog"))
    M = stream.gaussian(4, 4)
    norms = [
        lambda X: entrywise_norm(X, 1),
        lambda X: entrywise_norm(X, 2),
        lambda X: entrywise_norm(X, math.inf),
        lambda X: induced_norm(X, "1->1"),
        lambda X: induced_norm(X, "2->2"),
        lambda X: induced_norm(X, "inf->inf"),
        trace_norm,
        lambda X: sharp_norm(X, 0.5),
        lambda X: flat_norm(X, 0.5),
    ]
    for c in (-2.0, 0.5):
        for f in norms:
            assert f(c * M) == pytest.approx(abs(c) * f(M), rel=1e-8, abs=1e-10)


def test_triangle_inequality():
    stream = RandomStream(probe_seed("triangle"))
    norms = [
        lambda X: entrywise_norm(X, 1),
        lambda X: entrywise_norm(X, 2),
        lambda X: entrywise_norm(X, math.inf),
        lambda X: induced_norm(X, "1->1"),
        lambda X: induced_norm(X, "1->2"),
        lambda X: induced_norm(X, "2->2"),
        lambda X: induced_norm(X, "2->inf"),
        lambda X: induced_norm(X, "inf->inf"),
        trace_norm,
        lambda X: sharp_norm(X, 2.0),
        lambda X: flat_norm(X, 2.0),
    ]
    for _ in range(20):
        A = stream.gaussian(4, 5)
        B = stream.gaussian(4, 5)
        for f in norms:
            assert f(A + B) <= f(A) + f(B) + 1e-9
