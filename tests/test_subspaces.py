import numpy as np
import pytest

from splr.incoherence import profile
from splr.matrices import RandomStream, frobenius_inner
from splr.norms import entrywise_norm, flat_norm, induced_norm, sharp_norm, trace_norm
from splr.subspaces import (
    NeumannNonConvergence,
    RowColSpace,
    SupportSet,
    TargetPair,
    neumann_inverse,
    orth_matrix,
    project_support,
    project_support_complement,
    project_T,
    project_T_complement,
    sign_matrix,
)
from splr.synth import gen_subspaces, gen_support

from .helpers import flat_instance, probe_seed


def test_sign_matrix_cases():
    M = np.array([[1.5, 0.0], [-2.0, 0.0]])
    assert np.array_equal(sign_matrix(M), [[1.0, 0.0], [-1.0, 0.0]])


def test_sign_matrix_zero():
    assert np.array_equal(sign_matrix(np.zeros((2, 3))), np.zeros((2, 3)))


def test_sign_matrix_idempotent():
    stream = RandomStream(probe_seed("sign"))
    M = stream.gaussian(4, 4)
    S = sign_matrix(M)
    assert np.array_equal(sign_matrix(S), S)


def test_support_set_validation():
    s = SupportSet(2, 2, [(0, 0), (1, 1), (0, 0)])
    assert s.kbar == 2
    with pytest.raises(ValueError):
        SupportSet(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        SupportSet(2, 2, [(0, -1)])


def test_support_counts():
    # Column 1 holds three cells and row 0 two, so a swapped pair shows.
    s = SupportSet(3, 4, [(0, 0), (0, 1), (1, 1), (2, 1)])
    per_col, per_row = s.counts()
    assert (per_col, per_row) == (3, 2)
    assert SupportSet(3, 4, []).counts() == (0, 0)


def test_rowcol_space_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        RowColSpace(np.ones((3, 2)), np.eye(3)[:, :2])


def test_target_pair_derives_support_and_space():
    t, _ = flat_instance(8, 8, 1, 5, 10.0, probe_seed("pair"))
    assert t.support.kbar == 5
    assert t.space.r == 1
    assert set(map(tuple, np.argwhere(t.X_S != 0))) == set(t.support.cells)


def test_orth_matrix_axis_aligned():
    space = RowColSpace.from_matrix(np.diag([2.0, 0.0]))
    expect = np.zeros((2, 2))
    expect[0, 0] = 1.0
    assert np.allclose(orth_matrix(space), expect, atol=1e-12)


def test_orth_matrix_rank_zero():
    space = RowColSpace.from_matrix(np.zeros((3, 3)))
    assert np.array_equal(orth_matrix(space), np.zeros((3, 3)))


def test_orth_matrix_dense_rank_one():
    u = np.full((4, 1), 0.5)
    space = RowColSpace(u, u)
    assert np.allclose(orth_matrix(space), np.full((4, 4), 0.25), atol=1e-12)


def test_orth_matrix_spectral_cap():
    space = gen_subspaces(6, 5, 3, probe_seed("orthcap"))
    assert induced_norm(orth_matrix(space), "2->2") <= 1.0 + 1e-10


def test_project_support_cases():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    single = SupportSet(2, 2, [(0, 0)])
    assert np.array_equal(project_support(single, M), [[1.0, 0.0], [0.0, 0.0]])
    full = SupportSet(2, 2, [(i, j) for i in range(2) for j in range(2)])
    assert np.array_equal(project_support(full, M), M)
    empty = SupportSet(2, 2, [])
    assert np.array_equal(project_support(empty, M), np.zeros((2, 2)))


def test_project_T_hand_value():
    space = RowColSpace(np.eye(2)[:, :1], np.eye(2)[:, :1])
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(project_T(space, M), [[1.0, 2.0], [3.0, 0.0]], atol=1e-12)


def test_project_T_rank_zero():
    space = RowColSpace.from_matrix(np.zeros((2, 2)))
    M = np.ones((2, 2))
    assert np.array_equal(project_T(space, M), np.zeros((2, 2)))


def test_project_T_membership_fixed_point():
    stream = RandomStream(probe_seed("tfix"))
    space = gen_subspaces(6, 7, 2, probe_seed("tfixsp"))
    A = stream.gaussian(7, 2)
    B = stream.gaussian(6, 2)
    M = space.U @ A.T + B @ space.V.T
    assert np.max(np.abs(project_T(space, M) - M)) <= 1e-10


def test_project_complement_cases():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    full = SupportSet(2, 2, [(i, j) for i in range(2) for j in range(2)])
    empty = SupportSet(2, 2, [])
    assert np.array_equal(project_support_complement(full, M), np.zeros((2, 2)))
    assert np.array_equal(project_support_complement(empty, M), M)
    space = RowColSpace(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
    assert np.allclose(project_T_complement(space, M), [[0.0, 0.0], [0.0, 4.0]],
                       atol=1e-12)


def test_projector_idempotence_and_self_adjointness():
    stream = RandomStream(probe_seed("proj"))
    support = gen_support(6, 7, 12, probe_seed("projsup"))
    space = gen_subspaces(6, 7, 2, probe_seed("projsp"))
    for _ in range(25):
        A = stream.gaussian(6, 7)
        B = stream.gaussian(6, 7)
        PA = project_support(support, A)
        assert np.max(np.abs(project_support(support, PA) - PA)) <= 1e-10
        assert frobenius_inner(PA, B) == pytest.approx(
            frobenius_inner(A, project_support(support, B)), abs=1e-10
        )
        TA = project_T(space, A)
        assert np.max(np.abs(project_T(space, TA) - TA)) <= 1e-10
        assert frobenius_inner(TA, B) == pytest.approx(
            frobenius_inner(A, project_T(space, B)), abs=1e-10
        )
        comp = project_T_complement(space, A)
        assert abs(frobenius_inner(TA, comp)) <= 1e-10 * max(1.0, np.linalg.norm(A) ** 2)


def test_support_after_space_contractions():
    # The four operator-norm caps on the compositions and the two
    # single-projector caps, probed on random matrices at several balances.
    stream = RandomStream(probe_seed("contract"))
    t, _ = flat_instance(10, 10, 2, 14, 10.0, probe_seed("continst"))
    support, space = t.support, t.space
    for rho in (0.25, 1.0, 4.0):
        prof = profile(t, rho=rho)
        a, b = prof.alpha(rho), prof.beta(rho)
        for _ in range(30):
            M = stream.gaussian(10, 10)
            assert sharp_norm(project_support(support, M), rho) <= a * entrywise_norm(M, np.inf) + 1e-10
            assert entrywise_norm(project_T(space, M), np.inf) <= b * sharp_norm(M, rho) + 1e-10
            OT = project_support(support, project_T(space, M))
            TO = project_T(space, project_support(support, M))
            assert sharp_norm(OT, rho) <= a * b * sharp_norm(M, rho) + 1e-9
            assert entrywise_norm(OT, 1) <= a * b * entrywise_norm(M, 1) + 1e-9
            assert entrywise_norm(TO, np.inf) <= a * b * entrywise_norm(M, np.inf) + 1e-9


def test_flat_variant_contraction():
    # Dual-norm version of the composition cap, checked with the LP oracle
    # at a size it can afford.
    stream = RandomStream(probe_seed("flatcontract"))
    t, _ = flat_instance(6, 6, 1, 5, 10.0, probe_seed("flatinst"))
    support, space = t.support, t.space
    for rho in (0.5, 1.0, 2.0):
        prof = profile(t, rho=rho)
        ab = prof.alpha(rho) * prof.beta(rho)
        for _ in range(10):
            M = stream.gaussian(6, 6)
            TO = project_T(space, project_support(support, M))
            assert flat_norm(TO, rho) <= ab * flat_norm(M, rho) + 1e-9


def test_space_projection_norm_caps():
    stream = RandomStream(probe_seed("caps"))
    support = gen_support(8, 8, 10, probe_seed("capsup"))
    space = gen_subspaces(8, 8, 2, probe_seed("capsp"))
    kbar = support.kbar
    for _ in range(25):
        M = stream.gaussian(8, 8)
        PT = project_T(space, M)
        PO = project_support(support, M)
        spec = induced_norm(M, "2->2")
        assert induced_norm(PT, "2->2") <= 2.0 * spec + 1e-10
        assert trace_norm(PT) <= 2.0 * space.r * spec + 1e-9
        assert entrywise_norm(PO, 1) <= np.sqrt(kbar) * entrywise_norm(M, 2) + 1e-10
        assert entrywise_norm(PO, 1) <= kbar * entrywise_norm(M, np.inf) + 1e-10


def test_neumann_decoupled_single_step():
    # Support cell outside the rows/columns touched by the space: the
    # composition is zero, so the inverse returns the right-hand side.
    U = np.zeros((4, 1)); U[0, 0] = 1.0
    V = np.zeros((4, 1)); V[1, 0] = 1.0
    space = RowColSpace(U, V)
    support = SupportSet(4, 4, [(3, 3)])
    RHS = np.zeros((4, 4)); RHS[3, 3] = 2.5
    x, stats = neumann_inverse(support, space, "omega", RHS, return_stats=True)
    assert np.array_equal(x, RHS)
    assert stats["iterations"] <= 1


def test_neumann_zero_rhs():
    t, _ = flat_instance(6, 6, 1, 4, 10.0, probe_seed("nzero"))
    x = neumann_inverse(t.support, t.space, "T", np.zeros((6, 6)))
    assert np.array_equal(x, np.zeros((6, 6)))


def test_neumann_dense_vector_residual():
    u = np.full((4, 1), 0.5)
    space = RowColSpace(u, u)
    support = SupportSet(4, 4, [(0, 0)])
    RHS = np.zeros((4, 4)); RHS[0, 0] = 1.0
    x = neumann_inverse(support, space, "omega", RHS, tol=1e-12)
    residual = x - project_support(support, project_T(space, x)) - RHS
    assert np.linalg.norm(residual) <= 1e-9


def test_neumann_fixed_point_both_sides():
    t, _ = flat_instance(12, 12, 2, 15, 10.0, probe_seed("nfix"))
    stream = RandomStream(probe_seed("nfixrhs"))
    RHS = stream.gaussian(12, 12)
    for which in ("omega", "T"):
        x, stats = neumann_inverse(t.support, t.space, which, RHS, tol=1e-12, return_stats=True)
        if which == "omega":
            applied = project_support(t.support, project_T(t.space, x))
        else:
            applied = project_T(t.space, project_support(t.support, x))
        assert np.linalg.norm(x - applied - RHS) <= 2e-12 * max(1.0, np.linalg.norm(RHS))
        assert stats["q"] < 1.0


def test_neumann_nonconvergence_reports_rate():
    # X = X_S = X_L forces the composition to have a fixed direction with
    # eigenvalue 1, so the series cannot converge.
    X = np.zeros((4, 4)); X[0, 0] = 1.0
    t = TargetPair(X, X)
    RHS = X.copy()
    with pytest.raises(NeumannNonConvergence) as err:
        neumann_inverse(t.support, t.space, "omega", RHS, tol=1e-12)
    assert "contraction" in str(err.value)


def test_neumann_rejects_unknown_side():
    t, _ = flat_instance(4, 4, 1, 2, 10.0, probe_seed("nside"))
    with pytest.raises(ValueError):
        neumann_inverse(t.support, t.space, "both", np.zeros((4, 4)))
