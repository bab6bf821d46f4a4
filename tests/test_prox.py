import math

import numpy as np
import pytest
import scipy.linalg

import splr.matrices
import splr.prox
from splr.matrices import RandomStream, SvtWarmStart, _threshold_step
from splr.norms import entrywise_norm, trace_norm
from splr.prox import (
    clip_entries,
    project_l1_ball,
    project_nuclear_ball,
    prox_l1_box,
    soft_threshold,
    svt,
)
from splr.solvers import ConstrainedConfig, solve_constrained
from splr.synth import InstanceSpec, gen_instance

from .helpers import probe_seed


def scalar_prox_residual(x, v, t, lo=-math.inf, hi=math.inf, tol=1e-9):
    """First-order optimality residual of min 1/2 (x-v)^2 + t|x| on [lo, hi].

    Returns 0.0 when some subgradient certificate exists within tol.
    """
    if x != 0.0:
        g = math.copysign(1.0, x)
        grad = x - v + t * g
    else:
        # any g in [-1, 1] is allowed; pick the one minimizing |grad|
        grad = x - v + t * max(-1.0, min(1.0, (v - x) / t)) if t > 0 else x - v
    if x <= lo + 1e-12 * max(1.0, abs(lo)):
        return max(0.0, -grad)  # a lower-edge minimizer needs grad >= 0
    if x >= hi - 1e-12 * max(1.0, abs(hi)):
        return max(0.0, grad)  # an upper-edge minimizer needs grad <= 0
    return abs(grad)


def test_soft_threshold_hand_value():
    M = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert np.array_equal(soft_threshold(M, 2.0), [[0.0, 0.0], [1.0, 2.0]])


def test_soft_threshold_zero_step():
    M = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert np.array_equal(soft_threshold(M, 0.0), M)


def test_soft_threshold_tie_gives_exact_zero():
    out = soft_threshold(np.array([[2.0, -2.0]]), 2.0)
    assert np.array_equal(out, [[0.0, 0.0]])


def test_soft_threshold_buffers_match_formula_bit_for_bit():
    # Signed zeros, ties |x| = t, t = 0 and subnormals: written into
    # buffers, the kernel gives the plain expression's bits, sign bits too.
    tiny = 5e-324
    special = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, tiny, -tiny, 3 * tiny,
               -3 * tiny, 1e-310, -1e-310, 2.0, -2.0, 1e300]
    gauss = RandomStream(probe_seed("soft-bits")).gaussian(1, 17).ravel()
    M = np.concatenate([special, gauss]).reshape(4, 8)
    for t in (0.0, 0.5, 1.0, tiny, 3 * tiny, 1e-310):
        ref = np.sign(M) * np.maximum(np.abs(M) - t, 0.0)
        out, sign = np.empty_like(M), np.empty_like(M)
        got = splr.prox._soft_threshold(M, t, out=out, sign=sign)
        assert got is out
        assert got.tobytes() == ref.tobytes()
        assert splr.prox._soft_threshold(M, t).tobytes() == ref.tobytes()
        assert soft_threshold(M, t).tobytes() == ref.tobytes()
    assert np.signbit(splr.prox._soft_threshold(M, 0.5)).any()


def test_soft_threshold_first_order_optimality():
    stream = RandomStream(probe_seed("soft"))
    for _ in range(100):
        v = float(stream.gaussian(1, 1)[0, 0]) * 3.0
        t = float(stream.uniforms(1)[0]) * 2.0
        x = float(soft_threshold(np.array([[v]]), t)[0, 0])
        assert scalar_prox_residual(x, v, t) <= 1e-9


def test_svt_diagonal():
    assert np.allclose(svt(np.diag([5.0, 1.0]), 2.0), np.diag([3.0, 0.0]), atol=1e-12)


def test_svt_antidiagonal():
    M = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert np.allclose(svt(M, 1.0), [[0.0, 2.0], [2.0, 0.0]], atol=1e-10)


def test_svt_full_shrinkage():
    stream = RandomStream(probe_seed("svtfull"))
    M = stream.gaussian(4, 4)
    sigma1 = np.linalg.svd(M, compute_uv=False)[0]
    # Every singular value is below t: no factor is kept, and the empty
    # product is an exact +0.0 matrix of M's shape.
    for A in (M, M[:3]):
        X = svt(A, sigma1 * 1.001)
        assert X.shape == A.shape and X.dtype == np.float64
        assert not X.any() and not np.signbit(X).any()


def test_svt_shrinks_singular_values():
    stream = RandomStream(probe_seed("svtsv"))
    for _ in range(25):
        M = stream.gaussian(5, 7)
        tau = float(stream.uniforms(1)[0]) * 2.0
        out = svt(M, tau)
        s_in = np.linalg.svd(M, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        expect = np.maximum(s_in - tau, 0.0)
        assert np.allclose(np.sort(s_out)[::-1], expect, atol=1e-9)


def test_svt_rotation_equivariance():
    stream = RandomStream(probe_seed("svtrot"))
    M = stream.gaussian(5, 5)
    Ql, _ = np.linalg.qr(stream.gaussian(5, 5))
    Qr, _ = np.linalg.qr(stream.gaussian(5, 5))
    left = svt(Ql @ M @ Qr.T, 0.7)
    right = Ql @ svt(M, 0.7) @ Qr.T
    assert np.max(np.abs(left - right)) <= 1e-8


def cluster_matrix(m, t, top, stream):
    """Five values from top down to 0.15 top, three just above t and three
    just below it, and a tail under t/2: there is no spectral gap at the
    threshold."""
    U = np.linalg.qr(stream.gaussian(m, m))[0]
    V = np.linalg.qr(stream.gaussian(m, m))[0]
    cluster = t + np.array([3e-3, 1e-3, 1e-4, -1e-4, -1e-3, -3e-3])
    spectrum = np.concatenate([top * np.array([1.0, 0.6, 0.4, 0.25, 0.15]),
                               cluster, 0.5 * 0.97 ** np.arange(m - 11)])
    return (U * spectrum) @ V.T


def test_partial_svt_matches_full_svt_at_a_cluster():
    m, t = 160, 1.0
    stream = RandomStream(probe_seed("partialsvt"))
    M0 = cluster_matrix(m, t, 20.0, stream)
    warm = SvtWarmStart(M0.shape)
    # The first step starts from a 40-column block of the stream. Two
    # passes from a random start resolve the 1e-4 gaps of the cluster only
    # roughly, but they keep the right count.
    X, s = _threshold_step(M0, t, 1e-9, warm)
    assert warm.partial_svds == 1 and warm.width == 8 + 10 and warm.stream._pos == 40 * m
    ref_s = np.linalg.svd(M0, compute_uv=False)
    assert np.allclose(s, ref_s[:8] - t, rtol=0.0, atol=1e-5)
    # The next sweep's centre, a small drift from the last one, starts from
    # the first step's 18 leading rows.
    M = M0 + 1e-6 * stream.gaussian(m, m) / math.sqrt(m)
    X, s = _threshold_step(M, t, 1e-9, warm)
    assert warm.partial_svds == 2
    ref = svt(M, t)
    assert np.linalg.norm(X - ref) <= 1e-8 * np.linalg.norm(ref)
    ref_s = np.linalg.svd(M, compute_uv=False)
    assert s.size == np.count_nonzero(ref_s > t) == 8
    assert np.allclose(s, ref_s[:8] - t, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("top", [20.0, 1e3, 1e5, 1e7])
def test_one_qr_step_matches_full_threshold_over_scales(top):
    # A step from the exact leading rank + 10 right singular vectors of the
    # last centre, as after a full step. With one QR per pass, the Gram
    # product squares the spread of the spectrum, up to (sigma_1/t)^2 = 1e14
    # here; the kept values still agree with the full SVD's to 1e-10 plus
    # the full SVD's own rounding level, eps*sigma_1.
    m, t = 160, 1.0
    stream = RandomStream(probe_seed("partialsvt"))
    M0 = cluster_matrix(m, t, top, stream)
    M = M0 + 1e-6 * stream.gaussian(m, m) / math.sqrt(m)
    block = np.linalg.svd(M0)[2][:18].T
    U, s, Vt = splr.matrices._partial_svt(M, t, block)
    ref_s = np.linalg.svd(M, compute_uv=False)
    assert np.count_nonzero(s > t) == np.count_nonzero(ref_s > t) == 8
    assert np.allclose(s[:8], ref_s[:8], rtol=0.0,
                       atol=1e-10 + 16 * np.finfo(float).eps * top)
    X = splr.matrices._shrink_spectrum(U, s, Vt, t)[0]
    ref = svt(M, t)
    assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("scale", [2.0 ** 1000, 1e300, 1e-300])
def test_partial_step_at_extreme_scales(scale):
    # M^T M V would overflow (or underflow) at these scales; the partial
    # step still gives the scaled triplets of the unscaled matrix.
    m, t = 160, 1.0
    M = cluster_matrix(m, t, 20.0, RandomStream(probe_seed("partialscale")))
    block = RandomStream(probe_seed("partialblock")).gaussian(m, 40)
    U, s, Vt = splr.matrices._partial_svt(M, t, block)
    U2, s2, Vt2 = splr.matrices._partial_svt(M * scale, t * scale, block)
    assert np.allclose(s2 / scale, s, rtol=1e-12, atol=0.0)
    assert np.allclose(np.abs(U2.T @ U).diagonal(), 1.0, rtol=0.0, atol=1e-9)
    assert np.allclose(np.abs(Vt2 @ Vt.T).diagonal(), 1.0, rtol=0.0, atol=1e-9)


def test_declined_step_falls_back_to_the_full_svd():
    # A 240 x 240 Gaussian thresholded at 0.4 sigma_1 keeps more values than
    # the first step's 60-column block can hold: the Ritz test declines the
    # step and the full SVD serves it, to the bit.
    M = RandomStream(probe_seed("partialdecline")).gaussian(240, 240)
    t = 0.4 * np.linalg.svd(M, compute_uv=False)[0]
    warm = SvtWarmStart(M.shape)
    X = _threshold_step(M, t, 1e-9, warm)[0]
    assert warm.partial_svds == 0
    assert warm.stream._pos == 60 * 240 and warm.width > 60 + 10
    assert np.array_equal(X, svt(M, t))


def test_partial_step_refused_over_the_size_cap(monkeypatch):
    # 100 x 100: a partial step needs 4 (rank + 10) <= 100, so rank <= 15.
    # The first step's block is 100 // 4 = 25 columns, all from the stream.
    calls = []
    warm = SvtWarmStart((100, 100))

    def leading(M, t, V):
        calls.append(V.shape[1])
        U, s, Vt = np.linalg.svd(M)
        return U[:, :V.shape[1]], s[:V.shape[1]], Vt[:V.shape[1]]

    monkeypatch.setattr(splr.matrices, "_partial_svt", leading)
    stream_at = []
    for rank, partial in ((5, True), (14, True), (16, True), (16, False),
                          (15, False), (3, True)):
        M = np.diag(np.r_[np.full(rank, 2.0), np.full(100 - rank, 0.5)])
        taken = warm.partial_svds
        _threshold_step(M, 1.0, 1e-9, warm)
        assert warm.width == rank + 10 and warm.partial_svds - taken == partial
        stream_at.append(warm.stream._pos)
    # The second step starts from the first's 15 leading rows, and the third
    # pads them to 24 columns. The fourth finds a 24-row block short of rank
    # 16 + 10 = 26 > 25 and is refused before padding; the fifth is refused
    # too, and the sixth, at rank 15, is tried.
    assert calls == [25, 15, 24, 25]
    assert stream_at[0] == stream_at[1] == 25 * 100
    assert stream_at[1] < stream_at[2] == stream_at[3] == stream_at[4]


def test_small_problems_never_take_the_partial_path(monkeypatch):
    # At tol = 0 the Gram step declines too, so every step is the full SVD.
    def fail(*args):
        raise AssertionError("partial path taken below the size rule")

    monkeypatch.setattr(splr.matrices, "_partial_svt", fail)
    stream = RandomStream(probe_seed("partialsmall"))
    warm = SvtWarmStart((99, 400))
    M = stream.gaussian(99, 400)
    for _ in range(3):
        X = _threshold_step(M, 5.0, 0.0, warm)[0]
        assert np.array_equal(X, svt(M, 5.0))
    assert warm.partial_svds == 0


def gram_delta(A, t):
    """The Gram step's error bound min(m, n)*eps*(sigma_1/t)^2."""
    s1 = np.linalg.svd(A, compute_uv=False)[0]
    return min(A.shape) * np.finfo(float).eps * (s1 / t) ** 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (30, 30), (20, 45), (99, 400)])
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_gram_step_matches_dense_svt(shape, scale):
    # The triplets above t from the scaled Gram's eigendecomposition: the
    # thresholded matrix agrees with the dense svt within delta*sigma_1,
    # and sum(s) is its dense trace norm within a relative delta, at every
    # scale and without a warning. Compared at unit scale.
    M = RandomStream(probe_seed("gramstep", *shape)).gaussian(*shape)
    s1 = np.linalg.svd(M, compute_uv=False)[0]
    for ratio in (1.5, 4.0, 30.0):
        t = s1 / ratio
        delta = gram_delta(M, t)
        out = splr.matrices._gram_svt_factors(M * scale, t * scale, 1e-7)
        assert out is not None
        U, s, Vt, _ = out
        k = s.size
        assert U.shape == (shape[0], k) and Vt.shape == (k, shape[1])
        assert np.all(s > t * scale) and np.all(np.diff(s) <= 0)
        X, s = splr.matrices._shrink_spectrum(U, s, Vt, t * scale)
        X, s = X / scale, s / scale
        assert np.linalg.norm(X - svt(M, t)) <= delta * s1
        assert abs(s.sum() - trace_norm(X)) <= delta * trace_norm(X)


def test_gram_step_declines_to_the_full_svd(monkeypatch):
    # tol = 0, sigma_1/t past the gate, a zero matrix, a sigma_1 out of
    # range and a failed eigh each decline, and the warm start's step is
    # then the full SVD's, to the bit.
    M = RandomStream(probe_seed("gramdecline")).gaussian(30, 30)
    s1 = np.linalg.svd(M, compute_uv=False)[0]
    t, tol = s1 / 20, 1e-7
    assert gram_delta(M, t) < tol / 100 < gram_delta(M, s1 / 1e3)
    cases = [(M, t, 0.0), (M, s1 / 1e3, tol), (np.zeros((30, 30)), t, tol),
             (np.full((2, 2), 1e308), 1e300, tol)]
    for A, step, gate in cases:
        assert splr.matrices._gram_svt_factors(A, step, gate) is None
        X = _threshold_step(A, step, gate, SvtWarmStart(A.shape))[0]
        assert X.tobytes() == svt(A, step).tobytes()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert splr.matrices._gram_svt_factors(M, t, tol) is None
    X = _threshold_step(M, t, tol, SvtWarmStart(M.shape))[0]
    assert X.tobytes() == svt(M, t).tobytes()


def test_small_solves_take_no_full_svd_in_their_threshold_steps(monkeypatch):
    # Below PARTIAL_SVT_MIN_DIM a solve's warm start carries its tol, so a
    # 30 x 30 exact split at tol 1e-7 serves every step from the Gram.
    def fail(A):
        raise AssertionError("full SVD taken by a threshold step")

    monkeypatch.setattr(splr.matrices, "thin_svd", fail)
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=2, ktilde=30,
                                     seed=probe_seed("gramsolve")))
    rep = solve_constrained(inst.Y, ConstrainedConfig(lam=1 / math.sqrt(30), tol=1e-7))
    assert rep.converged
    assert np.linalg.norm(rep.X_L_hat - inst.target.X_L) <= 1e-5 * np.linalg.norm(inst.target.X_L)


def ball_rule(eps):
    """The nuclear-ball projection's rule for matrices._threshold_step."""
    return lambda s: None if s.sum() <= eps else splr.prox._l1_ball_shrink(s, eps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(20, 45), (45, 20), (30, 30), (99, 99)])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_nuclear_projection_gram_route_within_delta(shape, scale):
    # Under a solve's tol the projection takes the Gram's triplets above
    # its shrink theta, and lands within delta*sigma_1 of the full-SVD
    # projection, delta = min(m, n)*eps*(sigma_1/theta)^2. Compared at unit
    # scale.
    M = RandomStream(probe_seed("nucgram", *shape)).gaussian(*shape)
    s = np.linalg.svd(M, compute_uv=False)
    tol = 1e-7
    for ratio in (1.5, 4.0, 30.0):
        eps = float(np.maximum(s - s[0] / ratio, 0.0).sum())
        delta = gram_delta(M, splr.prox._l1_ball_shrink(s, eps))
        assert delta < tol / 100
        rule = ball_rule(eps * scale)
        assert splr.matrices._gram_svt_factors(M * scale, rule, tol) is not None
        X = splr.prox._project_nuclear_ball(M * scale, eps * scale, tol) / scale
        assert np.linalg.norm(X - project_nuclear_ball(M, eps)) <= delta * s[0]


def test_nuclear_projection_declined_gate_is_the_full_svd():
    # At tol = 0, and with sigma_1/theta past the gate, the Gram declines
    # and the projection is project_nuclear_ball's, to the bit.
    M = RandomStream(probe_seed("nucdecline")).gaussian(30, 30)
    s = np.linalg.svd(M, compute_uv=False)
    tol = 1e-7
    for eps, gate in ((float(np.maximum(s - s[0] / 4, 0.0).sum()), 0.0),
                      (float(np.maximum(s - s[0] / 1e3, 0.0).sum()), tol)):
        assert splr.matrices._gram_svt_factors(M, ball_rule(eps), gate) is None
        X = splr.prox._project_nuclear_ball(M, eps, gate)
        assert X.tobytes() == project_nuclear_ball(M, eps).tobytes()


def test_nuclear_projection_of_zero_and_inside_points():
    # A zero matrix, a point inside the ball and a zero radius come back
    # as from project_nuclear_ball, to the bit, under a solve's tol.
    M = RandomStream(probe_seed("nucinside")).gaussian(12, 20)
    for A, eps in ((np.zeros((12, 20)), 1.0), (M, 2.0 * trace_norm(M)), (M, 0.0)):
        X = splr.prox._project_nuclear_ball(A, eps, 1e-7)
        assert X.tobytes() == project_nuclear_ball(A, eps).tobytes()
    assert np.array_equal(splr.prox._project_nuclear_ball(M, 2.0 * trace_norm(M), 1e-7), M)


def test_relaxed_solve_takes_the_same_sweeps_with_the_gram_projection(monkeypatch):
    # A 20 x 20 relaxed split takes the same sweeps whether its nuclear-ball
    # copy takes the Gram's triplets or, with the gate forced to decline,
    # the full SVD at every sweep.
    inst = gen_instance(InstanceSpec(m=20, n=20, rbar=2, ktilde=20, sigma=0.01,
                                     seed=probe_seed("nucsolve")))
    cfg = ConstrainedConfig(lam=1.0 / math.sqrt(20), eps_v1=entrywise_norm(inst.E, 1),
                            eps_star=trace_norm(inst.E), tol=1e-4)
    real = splr.matrices._gram_svt_factors
    taken = []

    def recording(A, t, tol):
        out = real(A, t, tol)
        if callable(t):
            taken.append(out is not None)
        return out

    monkeypatch.setattr(splr.matrices, "_gram_svt_factors", recording)
    rep = solve_constrained(inst.Y, cfg)
    monkeypatch.setattr(splr.matrices, "_gram_svt_factors",
                        lambda A, t, tol: None if callable(t) else real(A, t, tol))
    ref = solve_constrained(inst.Y, cfg)
    assert rep.converged and ref.converged and sum(taken) > len(taken) // 2
    assert rep.iterations == ref.iterations
    assert rep.objective == pytest.approx(ref.objective, rel=1e-12)


def test_prox_l1_box_infinite_box_equals_soft():
    stream = RandomStream(probe_seed("boxinf"))
    V = stream.gaussian(4, 4)
    V[0, :2] = (-0.0, -0.25)
    soft = soft_threshold(V, 0.5)
    # sign(-0.0) is +0.0, while -0.25 shrinks to -0.0.
    assert np.signbit(soft[0, :2]).tolist() == [False, True]
    # An infinite box clips nothing: same values and sign bits, in a new
    # array; clip_entries at b = inf returns a copy of its input.
    for out, want, src in ((prox_l1_box(V, np.zeros((4, 4)), 0.5, math.inf), soft, V),
                           (clip_entries(V, math.inf), V, V)):
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert not np.shares_memory(out, src)


def test_prox_l1_box_scalar_case():
    out = prox_l1_box(np.array([[5.0]]), np.array([[0.0]]), 1.0, 2.0)
    assert out[0, 0] == 2.0


def test_prox_l1_box_feasible_identity_at_zero_step():
    V = np.array([[0.5, -0.5], [0.25, 0.0]])
    out = prox_l1_box(V, np.zeros((2, 2)), 0.0, 1.0)
    assert np.array_equal(out, V)


def test_prox_l1_box_first_order_optimality():
    stream = RandomStream(probe_seed("boxopt"))
    for _ in range(150):
        v = float(stream.gaussian(1, 1)[0, 0]) * 4.0
        center = float(stream.gaussian(1, 1)[0, 0])
        t = float(stream.uniforms(1)[0]) * 1.5
        b = 0.25 + 2.0 * float(stream.uniforms(1)[0])
        x = float(prox_l1_box(np.array([[v]]), np.array([[center]]), t, b)[0, 0])
        assert center - b - 1e-12 <= x <= center + b + 1e-12
        assert scalar_prox_residual(x, v, t, lo=center - b, hi=center + b) <= 1e-9


def test_clip_entries_hand_value():
    M = np.array([[10.0, -10.0], [0.5, 0.0]])
    assert np.array_equal(clip_entries(M, 1.0), [[1.0, -1.0], [0.5, 0.0]])


def test_clip_entries_idempotent_and_contractive():
    stream = RandomStream(probe_seed("clip"))
    b = 1.0
    for _ in range(25):
        M = stream.gaussian(4, 4) * 3.0
        X = np.clip(stream.gaussian(4, 4), -b, b)
        C = clip_entries(M, b)
        assert np.array_equal(clip_entries(C, b), C)
        assert entrywise_norm(C - X, 1) <= entrywise_norm(M - X, 1) + 1e-12


def test_project_l1_ball_hand_value():
    out = project_l1_ball(np.array([[3.0, 1.0]]), 2.0)
    assert np.allclose(out, [[2.0, 0.0]], atol=1e-12)


def test_project_l1_ball_feasible_and_zero():
    M = np.array([[0.5, -0.25], [0.0, 0.25]])
    assert np.array_equal(project_l1_ball(M, 2.0), M)
    assert np.array_equal(project_l1_ball(M, 0.0), np.zeros((2, 2)))


def test_project_l1_ball_fortran_order_lands_on_ball():
    # With numpy 2.4, |M| sums to 18.671948877917004 in Fortran memory
    # order, 18.671948877917007 in C order and 18.671948877917 sorted. At
    # eps = the Fortran sum the point is outside by the C-order sum that
    # the projection tests, and the sort-based shrink rounds to -1.8e-16:
    # it must be clamped to 0, not move entries outward. Well outside, the
    # Fortran input projects like the C-ordered one.
    M = RandomStream(34).gaussian(4, 5)
    F = np.asfortranarray(M)
    for eps in (float(np.abs(F).sum()), 10.0):
        P = project_l1_ball(F, eps)
        assert np.array_equal(P, project_l1_ball(M, eps))
        assert np.all(np.abs(P) <= np.abs(M))
        assert np.abs(P).sum() == pytest.approx(eps, rel=1e-12)
    assert splr.prox._l1_ball_shrink(np.abs(M).ravel(), float(np.abs(F).sum())) == 0.0


@pytest.mark.parametrize("project", [project_l1_ball, project_nuclear_ball])
def test_ball_projection_with_radius_below_an_ulp(project):
    # 1 - 1e-20 rounds to 1, so the sort-based rule's test fails at every
    # k; the projection must still land within rounding of the ball's
    # point nearest M instead of raising.
    for M, nearest in (([[1.0]], [[1e-20]]), ([[3.0, 0.0]], [[1e-20, 0.0]])):
        P = project(np.array(M), 1e-20)
        assert P.shape == np.shape(M)
        assert np.abs(P).sum() <= 1e-20
        assert np.abs(P - nearest).max() <= 1e-20


def test_project_nuclear_ball_hand_value():
    out = project_nuclear_ball(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-10)


def test_project_nuclear_ball_feasible_and_zero():
    stream = RandomStream(probe_seed("nucfeas"))
    M = stream.gaussian(3, 3)
    assert np.max(np.abs(project_nuclear_ball(M, trace_norm(M) + 1.0) - M)) <= 1e-9
    assert np.allclose(project_nuclear_ball(M, 0.0), np.zeros((3, 3)), atol=1e-12)


def test_ball_projections_idempotent_and_nonexpansive():
    stream = RandomStream(probe_seed("balls"))
    for _ in range(50):
        A = stream.gaussian(4, 5)
        B = stream.gaussian(4, 5)
        eps = 0.5 + 3.0 * float(stream.uniforms(1)[0])
        for proj, norm in (
            (project_l1_ball, lambda X: entrywise_norm(X, 1)),
            (project_nuclear_ball, trace_norm),
        ):
            PA = proj(A, eps)
            PB = proj(B, eps)
            assert norm(PA) <= eps * (1 + 1e-10) + 1e-10
            assert np.max(np.abs(proj(PA, eps) - PA)) <= 1e-9
            assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) + 1e-10


def test_l1_projection_optimality_against_bisection():
    # Independent oracle: the projection solves max(|x| - theta, 0) with the
    # unique theta >= 0 making the budget tight; find theta by bisection.
    # The nuclear-ball case applies the same shrink to a scipy spectrum.
    def shrink(x, eps):
        lo, hi = 0.0, float(x.max())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(x - mid, 0.0).sum() > eps:
                lo = mid
            else:
                hi = mid
        return np.maximum(x - 0.5 * (lo + hi), 0.0)

    def l1_ref(M, eps):
        return np.sign(M) * shrink(np.abs(M), eps)

    def nuclear_ref(M, eps):
        U, s, Vt = scipy.linalg.svd(M, full_matrices=False)
        return (U * shrink(s, eps)) @ Vt

    stream = RandomStream(probe_seed("l1oracle"))
    cases = (
        (project_l1_ball, l1_ref, lambda M: entrywise_norm(M, 1), (4, 4)),
        (project_nuclear_ball, nuclear_ref, trace_norm, (4, 6)),
    )
    for project, ref, norm, shape in cases:
        for _ in range(25):
            M = stream.gaussian(*shape) * 2.0
            eps = 0.3 + 2.0 * float(stream.uniforms(1)[0])
            if norm(M) <= eps:
                continue
            assert np.max(np.abs(project(M, eps) - ref(M, eps))) <= 1e-8
