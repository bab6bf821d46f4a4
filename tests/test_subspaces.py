import re

import numpy as np
import pytest

import splr.matrices
import splr.subspaces
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
    project_T,
    sign_matrix,
)
from splr.synth import InstanceSpec, gen_instance, gen_subspaces, gen_support

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


def test_support_set_marks_bool_cell_as_its_integer():
    # numpy read [(True, 0)] as a boolean index and marked all of row 0.
    s = SupportSet(3, 3, [(True, 0)])
    assert s.cells == ((1, 0),) and s.kbar == 1


def test_support_set_rejects_numpy_bool_cell_whatever_its_neighbours():
    # np.bool_ is no integer under _is_integer, alone or beside a float cell.
    bad = re.escape(f"cell ({np.True_!r}, 0) must hold integer indices")
    with pytest.raises(ValueError, match=bad):
        SupportSet(3, 3, [(np.True_, 0)])
    with pytest.raises(ValueError, match=bad):
        SupportSet(3, 3, [(np.True_, 0), (1.5, 0)])


def test_support_set_accepts_numpy_integer_cells():
    s = SupportSet(3, 3, [(np.int64(2), np.int32(1)), (np.uint8(0), 2)])
    assert s.cells == ((0, 2), (2, 1))


@pytest.mark.parametrize("cell", [(1.5, 0), (1.0, 0), (0, np.float64(2.0))])
def test_support_set_rejects_float_cell(cell):
    # (1.5, 0) raised numpy's IndexError; a whole float is no index either.
    with pytest.raises(ValueError, match="integer indices"):
        SupportSet(3, 3, [(0, 0), cell])


def test_support_set_names_first_bad_cell_in_input_order():
    with pytest.raises(ValueError, match=re.escape("cell (5, 0) out of range for 3x3")):
        SupportSet(3, 3, [(0, 0), (5, 0), (1.5, 0)])
    with pytest.raises(ValueError, match=re.escape("cell (1.5, 0) must hold integer")):
        SupportSet(3, 3, [(0, 0), (1.5, 0), (5, 0)])
    with pytest.raises(ValueError, match=re.escape("cell (0, 3) out of range")):
        SupportSet(3, 3, [(2, 2), (0, 3), (-1, 0)])
    with pytest.raises(ValueError, match="pairs"):
        SupportSet(3, 3, [(0, 0, 0)])


@pytest.mark.parametrize("value", [2.5, 2.0, float("inf")])
def test_support_set_rejects_non_integer_dimensions(value):
    # SupportSet(2.5, 3, cells) truncated m to 2.
    with pytest.raises(ValueError, match="^m must be an integer of at least 1"):
        SupportSet(value, 3, [(0, 0)])
    with pytest.raises(ValueError, match="^n must be an integer of at least 1"):
        SupportSet(3, value, [(0, 0)])


def test_support_counts():
    # Column 1 holds three cells and row 0 two, so a swapped pair shows.
    s = SupportSet(3, 4, [(0, 0), (0, 1), (1, 1), (2, 1)])
    per_col, per_row = s.counts()
    assert (per_col, per_row) == (3, 2)
    assert SupportSet(3, 4, []).counts() == (0, 0)


def test_rowcol_space_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        RowColSpace(np.ones((3, 2)), np.eye(3)[:, :2])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rowcol_space_rejects_nonfinite_factors(bad):
    # A NaN deviation from orthonormality fails the check, as a large one does.
    good = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        RowColSpace(np.array([[bad], [0.0]]), good)
    with pytest.raises(ValueError, match="orthonormal"):
        RowColSpace(good, np.array([[0.0], [bad]]))


def test_target_pair_derives_support_and_space():
    t, _ = flat_instance(8, 8, 1, 5, 10.0, probe_seed("pair"))
    assert t.support.kbar == 5
    assert t.space.r == 1
    assert set(map(tuple, np.argwhere(t.X_S != 0))) == set(t.support.cells)


def test_target_pair_validates_input_once(monkeypatch):
    # X_S and X_L are validated at the constructor; the support and space
    # are derived from the validated arrays, not validated again.
    real = splr.matrices.as_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for mod in (splr.matrices, splr.subspaces):
        monkeypatch.setattr(mod, "as_matrix", counting)
    t, _ = flat_instance(8, 8, 1, 5, 10.0, probe_seed("pair-once"))
    calls.clear()
    again = TargetPair(t.X_S, t.X_L)
    assert len(calls) == 2
    assert again.support.cells == t.support.cells and again.space.r == 1


def test_orth_matrix_axis_aligned():
    space = RowColSpace.from_matrix(np.diag([2.0, 0.0]))
    expect = np.zeros((2, 2))
    expect[0, 0] = 1.0
    assert np.allclose(orth_matrix(space), expect, atol=1e-12)


def test_orth_matrix_rank_zero():
    space = RowColSpace.from_matrix(np.zeros((3, 3)))
    assert np.array_equal(orth_matrix(space), np.zeros((3, 3)))
    # Empty factors pass the orthonormality check.
    space = RowColSpace(np.zeros((3, 0)), np.zeros((4, 0)))
    assert space.r == 0
    assert np.array_equal(orth_matrix(space), np.zeros((3, 4)))


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
    # Products with m x 0 factors are exact +0.0 zeros, whatever the signs
    # of M's entries, on wide and tall shapes too.
    for m, n in ((2, 2), (1, 5), (5, 1)):
        space = RowColSpace.from_matrix(np.zeros((m, n)))
        M = -np.arange(m * n, dtype=float).reshape(m, n)
        P = project_T(space, M)
        assert P.shape == (m, n) and P.dtype == np.float64
        assert not P.any() and not np.signbit(P).any()


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
    assert np.array_equal(M - project_support(full, M), np.zeros((2, 2)))
    assert np.array_equal(M - project_support(empty, M), M)
    space = RowColSpace(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
    assert np.allclose(M - project_T(space, M), [[0.0, 0.0], [0.0, 4.0]],
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
        comp = A - project_T(space, A)
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
    # A rank-0 space decouples every support: one zero step on either side.
    space = RowColSpace(np.zeros((4, 0)), np.zeros((4, 0)))
    for which in ("omega", "T"):
        x, stats = neumann_inverse(support, space, which, RHS, return_stats=True)
        assert np.array_equal(x, RHS)
        assert stats == {"iterations": 1, "ratios": [0.0], "q": 0.0}


def test_neumann_zero_rhs():
    t, _ = flat_instance(6, 6, 1, 4, 10.0, probe_seed("nzero"))
    x = neumann_inverse(t.support, t.space, "T", np.zeros((6, 6)))
    assert np.array_equal(x, np.zeros((6, 6)))
    for RHS in (np.zeros((6, 5)), np.ones((6, 5))):
        with pytest.raises(ValueError, match=r"RHS must have shape \(6, 6\)"):
            neumann_inverse(t.support, t.space, "T", RHS)


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


def test_neumann_stops_on_full_support():
    # A support covering every cell makes P_Omega the identity, so the
    # composition fixes the space and its step ratio settles at 1 up to
    # rounding (0.786, then 1.0, 1.0, 0.9999999999999998). That ratio must
    # not count as a contraction: the iteration stops at the cap set by the
    # first step instead of one of ~1e17 steps.
    X = gen_instance(InstanceSpec(m=20, n=20, rbar=2, ktilde=0, seed=3)).target.X_L
    t = TargetPair(X, X)
    assert t.support.kbar == 400
    RHS = 0.1 * sign_matrix(X) - project_support(t.support, orth_matrix(t.space))
    with pytest.raises(NeumannNonConvergence) as err:
        neumann_inverse(t.support, t.space, "omega", RHS, tol=1e-12)
    cap = int(re.search(r"exceeded (\d+) steps", str(err.value)).group(1))
    assert cap <= 1000


def test_neumann_rejects_unknown_side():
    t, _ = flat_instance(4, 4, 1, 2, 10.0, probe_seed("nside"))
    with pytest.raises(ValueError):
        neumann_inverse(t.support, t.space, "both", np.zeros((4, 4)))
    # A zero RHS has the zero solution, but its tol is checked all the same.
    for tol in (0.0, -1e-12, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^tol must lie in \(0, inf\), got "):
            neumann_inverse(t.support, t.space, "omega", np.zeros((4, 4)), tol=tol)
