import math

import numpy as np
import pytest
import scipy.linalg

from splr.matrices import RandomStream
from splr.norms import entrywise_norm, trace_norm
from splr.prox import (
    clip_entries,
    project_l1_ball,
    project_nuclear_ball,
    prox_l1_box,
    soft_threshold,
    svt,
)

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


def test_soft_threshold_rejects_negative_step():
    with pytest.raises(ValueError):
        soft_threshold(np.eye(2), -1.0)


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
    assert np.allclose(svt(M, sigma1 * 1.001), np.zeros((4, 4)), atol=1e-12)


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


def test_prox_l1_box_infinite_box_equals_soft():
    stream = RandomStream(probe_seed("boxinf"))
    V = stream.gaussian(4, 4)
    out = prox_l1_box(V, np.zeros((4, 4)), 0.5, math.inf)
    assert np.array_equal(out, soft_threshold(V, 0.5))


def test_prox_l1_box_scalar_case():
    out = prox_l1_box(np.array([[5.0]]), np.array([[0.0]]), 1.0, 2.0)
    assert out[0, 0] == 2.0


def test_prox_l1_box_feasible_identity_at_zero_step():
    V = np.array([[0.5, -0.5], [0.25, 0.0]])
    out = prox_l1_box(V, np.zeros((2, 2)), 0.0, 1.0)
    assert np.array_equal(out, V)


def test_prox_l1_box_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        prox_l1_box(np.eye(2), np.zeros((2, 2)), 0.1, 0.0)


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
