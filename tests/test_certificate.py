import copy
import dataclasses
import math
import re

import numpy as np
import pytest

import splr.certificate
import splr.matrices
import splr.norms
import splr.prox
import splr.subspaces
from splr.certificate import (
    BOUND_NAMES,
    build_certificate,
    perturbation_scales,
    verify_bounds,
)
from splr.incoherence import PreconditionError, check_conditions, profile
from splr.matrices import RandomStream
from splr.norms import entrywise_norm, induced_norm, trace_norm
from splr.solvers import bound_theorem3
from splr.subspaces import (
    NeumannNonConvergence,
    RowColSpace,
    TargetPair,
    neumann_inverse,
    orth_matrix,
    project_support,
    project_T,
    sign_matrix,
)

from .helpers import decoupled_pair, flat_instance, probe_seed, valid_instance


def test_decoupled_certificate_is_exact():
    t = decoupled_pair()
    cert = build_certificate(t, None, 1.0, 1.0, 2.0)
    sg = np.zeros((4, 4)); sg[3, 3] = 1.0
    orth = np.zeros((4, 4)); orth[0, 0] = 1.0; orth[1, 1] = 1.0
    assert np.array_equal(cert.Q_omega, sg)
    assert np.array_equal(cert.Q_T, orth)
    assert cert.feasibility_residuals == (0.0, 0.0)
    # A rank-0 target decouples any support: Q_omega = lambda*sign(X_S) and
    # Q_T is an exact +0.0 matrix, so every space-block bound measures 0.
    X_S = np.zeros((4, 4)); X_S[0, 0] = -5.0; X_S[2, 1] = 3.0
    cert = build_certificate(TargetPair(X_S, np.zeros((4, 4))), None, 0.5, 1.0, 2.0)
    assert np.array_equal(cert.Q_omega, 0.5 * np.sign(X_S))
    assert not cert.Q_T.any() and not np.signbit(cert.Q_T).any()
    assert cert.feasibility_residuals == (0.0, 0.0)
    diag = dict(zip(BOUND_NAMES, cert.bound_diagnostics))
    for name in ("space_block_spectral", "space_block_trace", "space_block_maxabs"):
        assert diag[name][0] == 0.0
    assert cert.all_bounds_satisfied


def test_decoupled_bound_equalities():
    t = decoupled_pair()
    cert = build_certificate(t, None, 1.0, 1.0, 2.0)
    diag = dict(zip(BOUND_NAMES, cert.bound_diagnostics))
    measured, bound, ok = diag["support_block_l1"]
    # k_bar = 1 makes the l1 cap an equality at lambda.
    assert measured == pytest.approx(cert.lam, abs=1e-12)
    assert bound == pytest.approx(cert.lam, rel=1e-12)
    assert ok
    assert cert.all_bounds_satisfied


def test_sum_frobenius_bound_reduces_at_zero_noise():
    t, _, lam, mu = valid_instance(0)
    cert = build_certificate(t, None, lam, mu, 2.0)
    diag = dict(zip(BOUND_NAMES, cert.bound_diagnostics))
    _, bound, _ = diag["sum_frobenius_squared"]
    qo_l1 = entrywise_norm(cert.Q_omega, 1)
    qt_trace = trace_norm(cert.Q_T)
    assert bound == pytest.approx(lam * qo_l1 + qt_trace, rel=1e-12)


def test_feasibility_residuals_small_on_valid_instance():
    t, _, lam, mu = valid_instance(1)
    cert = build_certificate(t, None, lam, mu, 2.0, tol=1e-12)
    assert max(cert.feasibility_residuals) <= 1e-9


def test_space_block_matches_its_neumann_series():
    # Q_T is eliminated in closed form; it must agree with the solution of
    # the space-side equation by the Neumann series of P_T o P_Omega.
    t, E, lam, mu = valid_instance(2, sigma=1e-3)
    tol = 1e-9
    cert = build_certificate(t, E, lam, mu, 2.0, tol=tol)
    E_off_support = E - project_support(t.support, E)
    rhs_space = orth_matrix(t.space) - lam * project_T(t.space, sign_matrix(t.X_S)) \
        - project_T(t.space, E_off_support) / mu
    Q_T = neumann_inverse(t.support, t.space, "T", rhs_space, tol=tol)
    assert np.abs(cert.Q_T - Q_T).max() <= 10.0 * tol


@pytest.mark.parametrize("mu", [0.0, -1.0])
def test_nonpositive_mu_with_perturbation_raises(mu):
    t, E, lam, _ = valid_instance(3, sigma=1e-3)
    prof = profile(t)
    e2, ev, es = perturbation_scales(t.space, E)
    with pytest.raises(ValueError, match="mu must be positive"):
        check_conditions(prof, "regularized", 2.0, lam, mu=mu, eps_2to2=e2, eps_vinf=ev)
    with pytest.raises(ValueError, match="mu must be positive"):
        bound_theorem3(prof, 2.0, lam, mu, e2, ev, es, prof.kbar, prof.rbar)
    with pytest.raises(ValueError, match="mu must be positive"):
        build_certificate(t, E, lam, mu, 2.0)
    # Without a perturbation a nonpositive mu weighs nothing.
    cert = build_certificate(t, None, lam, mu, 2.0)
    assert cert.all_bounds_satisfied


def test_certificate_invariants():
    t, E, lam, mu = valid_instance(2, sigma=1e-3)
    cert = build_certificate(t, E, lam, mu, 2.0)
    off = cert.Q_omega - project_support(t.support, cert.Q_omega)
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(project_T(t.space, cert.Q_T) - cert.Q_T)) <= 1e-9
    for measured, bound, ok in cert.bound_diagnostics:
        assert ok == (measured <= bound * (1 + 1e-8) + 1e-10)


def test_complement_norm_caps():
    t, E, lam, mu = valid_instance(3, sigma=1e-3)
    cert = build_certificate(t, E, lam, mu, 2.0, tol=1e-12)
    assert cert.complement_norms[0] <= lam / 2.0 + 1e-11
    assert cert.complement_norms[1] <= 0.5 + 1e-11


def test_mu_doubling_matches_halved_noise():
    t, E, lam, mu = valid_instance(4, sigma=1e-3)
    a = build_certificate(t, E, lam, 2.0 * mu, 2.0)
    b = build_certificate(t, 0.5 * E, lam, mu, 2.0)
    assert np.array_equal(a.Q_omega, b.Q_omega)
    assert np.array_equal(a.Q_T, b.Q_T)


def test_zero_noise_certificate_independent_of_mu():
    t, _, lam, _ = valid_instance(5)
    a = build_certificate(t, None, lam, 1.0, 2.0)
    b = build_certificate(t, None, lam, 7.5, 2.0)
    assert np.array_equal(a.Q_omega, b.Q_omega)
    assert np.array_equal(a.Q_T, b.Q_T)


def test_residuals_scale_with_tolerance():
    # The fixed-point iteration advances in whole steps and may land deeper
    # than asked, so adjacent tolerances can share an iterate or even swap
    # order. Linear scaling is asserted through the 10*tol cap at every
    # rung plus a net halving across a wide tolerance gap, which clears the
    # step-granularity band.
    t, _, lam, mu = valid_instance(6)
    worst = {}
    for tol in (1e-3, 1e-5, 1e-7):
        cert = build_certificate(t, None, lam, mu, 2.0, tol=tol)
        worst[tol] = max(cert.feasibility_residuals)
        assert worst[tol] <= 10.0 * tol
    assert worst[1e-7] <= 0.5 * worst[1e-3]


def test_lambda_outside_window_raises():
    t, _, lam, mu = valid_instance(7)
    verdict = check_conditions(profile(t), "regularized", 2.0, lam, mu=mu)
    lo, hi = verdict.lambda_window
    with pytest.raises(PreconditionError) as err_hi:
        build_certificate(t, None, hi * 1.5, mu, 2.0)
    assert "upper" in str(err_hi.value)
    with pytest.raises(PreconditionError) as err_lo:
        build_certificate(t, None, lo * 0.5, mu, 2.0)
    assert "lower" in str(err_lo.value)


def test_all_bounds_satisfied_across_valid_instances():
    for i in range(10):
        t, E, lam, mu = valid_instance(10 + i, sigma=1e-3 if i % 2 else 0.0)
        cert = build_certificate(t, E, lam, mu, 2.0)
        assert cert.all_bounds_satisfied
        assert max(cert.feasibility_residuals) <= 1e-9


def test_perturbation_scales_match_direct_norms():
    stream = RandomStream(probe_seed("scales"))
    t, _ = flat_instance(12, 12, 2, 10, 10.0, probe_seed("scaleinst"))
    E = 1e-2 * stream.gaussian(12, 12)
    ie2, iev, istar = perturbation_scales(t.space, E)
    PT = project_T(t.space, E)
    assert ie2 == pytest.approx(induced_norm(E, "2->2"), rel=1e-12)
    assert iev == pytest.approx(
        entrywise_norm(E, np.inf) + entrywise_norm(PT, np.inf), rel=1e-12
    )
    assert istar == pytest.approx(trace_norm(PT), rel=1e-12)


def test_perturbation_scales_reused_on_equal_content(monkeypatch):
    # The last call's scales and P_T(E) come back, without a sigma_1 kernel
    # or a tangent-space core, when U, V and E are equal bit for bit; any
    # other input is measured afresh. Every result equals a cold call's.
    monkeypatch.setattr(splr.certificate, "_last_scales", None)
    stream = RandomStream(probe_seed("scalesmemo"))
    t, _ = flat_instance(20, 16, 2, 30, 10.0, probe_seed("scalesmemoinst"))
    other, _ = flat_instance(20, 16, 2, 30, 10.0, probe_seed("scalesmemoother"))
    E = 1e-2 * stream.gaussian(20, 16)
    E[3, 4] = 0.0
    real_sigma1 = splr.norms._spectral_norm
    real_core = splr.certificate._T_singular_values
    kernels = []

    def counting_sigma1(A):
        kernels.append("sigma1")
        return real_sigma1(A)

    def counting_core(*args):
        kernels.append("core")
        return real_core(*args)
    monkeypatch.setattr(splr.norms, "_spectral_norm", counting_sigma1)
    monkeypatch.setattr(splr.certificate, "_T_singular_values", counting_core)

    def cold(space, E):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(splr.certificate, "_last_scales", None)
            return splr.certificate._perturbation_scales(space, E)

    def measured(space, E, hit):
        kernels.clear()
        scales, PTE = splr.certificate._perturbation_scales(space, E)
        assert sorted(kernels) == ([] if hit else ["core", "sigma1"])
        want_scales, want_PTE = cold(space, E.copy())
        assert [s.hex() for s in scales] == [s.hex() for s in want_scales]
        assert PTE.tobytes() == want_PTE.tobytes()
        assert perturbation_scales(space, E) == scales
        return PTE

    PTE = measured(t.space, E, hit=False)
    with pytest.raises(ValueError, match="read-only"):
        PTE[0, 0] = 1.0
    measured(t.space, E.copy(), hit=True)
    measured(RowColSpace(t.space.U.copy(), t.space.V.copy()), E, hit=True)
    E[0, 0] += 1e-3
    measured(t.space, E, hit=False)
    measured(other.space, E, hit=False)
    signed = E.copy()
    signed[3, 4] = -0.0
    measured(t.space, signed, hit=False)
    measured(t.space, E, hit=False)


def orthonormal(stream, m, k):
    return np.linalg.qr(stream.gaussian(m, k))[0]


def test_space_projection_trace_norm_matches_dense():
    # The trace norm of P_T(E) comes from a 2r x n core after one QR; it
    # must match the sum of the whole dense spectrum of P_T(E).
    stream = RandomStream(probe_seed("factoredtrace"))
    for m, n, r in ((14, 9, 2), (9, 14, 2), (11, 11, 3), (8, 6, 0), (5, 8, 3), (6, 6, 6)):
        space = RowColSpace(orthonormal(stream, m, r), orthonormal(stream, n, r))
        for scale in (1.0, 1e-9, 1e9):
            E = scale * stream.gaussian(m, n)
            dense = trace_norm(project_T(space, E))
            assert perturbation_scales(space, E)[2] == pytest.approx(dense, rel=1e-12)
        star = perturbation_scales(space, np.zeros((m, n)))[2]
        assert star == 0.0 and not np.signbit(star)
    # E = X diag(s) Y^T with orthonormal X = [U, U_perp], Y = [V_perp, V]
    # pairs each u_i with a v_perp and each u_perp with a v_i, so E lies in
    # the tangent space with singular values s. The last three fall between
    # 1e-16 and 1e-10 of the first, below the rank cutoff, and still count
    # on both sides: a trace norm sums every value.
    X, Y = orthonormal(stream, 10, 6), orthonormal(stream, 9, 6)
    space = RowColSpace(X[:, :3], Y[:, 3:])
    s = np.array([1.0, 0.3, 1e-9, 1e-11, 1e-13, 1e-15])
    E = (X * s) @ Y.T
    star = perturbation_scales(space, E)[2]
    assert star == pytest.approx(trace_norm(project_T(space, E)), rel=1e-12)
    assert star == pytest.approx(s.sum(), rel=1e-12)


def test_subgradient_inequality_is_tight_at_base_point():
    # With zero deviations both sides of the probed inequality vanish:
    # the objective difference is zero and so is the certificate pairing.
    t = decoupled_pair()
    cert = build_certificate(t, None, 1.0, 1.0, 2.0)
    Q = cert.Q_omega + cert.Q_T
    lam = cert.lam
    base = lam * entrywise_norm(t.X_S, 1) + trace_norm(t.X_L)
    moved = lam * entrywise_norm(t.X_S + 0.0, 1) + trace_norm(t.X_L + 0.0)
    from splr.matrices import frobenius_inner

    rhs = frobenius_inner(Q, np.zeros((4, 4)))
    assert moved - base == 0.0 == rhs



def test_certificate_validates_input_once(monkeypatch):
    # Validation runs at the public entry, not in the Neumann loop: the
    # number of as_matrix calls must not grow with the number of steps.
    real = splr.matrices.as_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for mod in (splr.matrices, splr.norms, splr.subspaces, splr.certificate, splr.prox):
        monkeypatch.setattr(mod, "as_matrix", counting)
    t, _ = flat_instance(40, 40, 1, 40, 10.0, probe_seed("validatecert"))
    lo, hi = check_conditions(profile(t), "regularized", 2.0, 0.1, mu=1.0).lambda_window
    lam = 0.5 * (lo + hi)
    RHS = RandomStream(probe_seed("validatecertrhs")).gaussian(40, 40)
    steps, counts = [], []
    for tol in (1e-4, 1e-12):
        calls.clear()
        _, stats = neumann_inverse(t.support, t.space, "omega", RHS, tol=tol,
                                   return_stats=True)
        build_certificate(t, None, lam, 1.0, 2.0, tol=tol)
        steps.append(stats["iterations"])
        counts.append(len(calls))
    assert steps[0] < steps[1]
    assert counts[0] == counts[1]
    # With a nonzero E, only E is validated (plus Q_omega and Q_T in
    # verify_bounds), and no 40 x 40 matrix takes a dense SVD: the spectral
    # norms of E, of the off-space part of the total and of Q_omega come
    # from the Gram's top eigenvalue, and the spectra of P_T(E) and Q_T,
    # which lie in the tangent space, from a 2r x n core.
    # The caller's perturbation_scales leaves build_certificate, on the same
    # space and E, two sigma_1 kernels (the off-space complement and
    # Q_omega) and one core (Q_T): the scales of E are not computed again.
    dense, sigma1, cores = [], [], []
    real_svd = splr.matrices._lapack_svd
    real_sigma1 = splr.matrices._spectral_norm
    real_core = splr.matrices._T_singular_values

    def counting_svd(A, compute_uv):
        dense.append(A.shape == (40, 40))
        return real_svd(A, compute_uv)

    def counting_sigma1(A):
        sigma1.append(A.shape)
        return real_sigma1(A)

    def counting_core(*args):
        cores.append(1)
        return real_core(*args)
    monkeypatch.setattr(splr.matrices, "_lapack_svd", counting_svd)
    monkeypatch.setattr(splr.norms, "_spectral_norm", counting_sigma1)
    monkeypatch.setattr(splr.certificate, "_T_singular_values", counting_core)
    noise = RandomStream(probe_seed("validatecertnoise"))
    E = 1e-3 * noise.gaussian(40, 40)
    ie2, iev, _ = perturbation_scales(t.space, E)
    assert sum(dense) == 0
    assert len(sigma1) == 1 and len(cores) == 1
    lo, hi = check_conditions(profile(t), "regularized", 2.0, 0.1, mu=1.0,
                              eps_2to2=ie2, eps_vinf=iev).lambda_window
    for fresh, n_sigma1, n_cores in ((E, 2, 1), (1e-3 * noise.gaussian(40, 40), 3, 2)):
        calls.clear()
        dense.clear()
        sigma1.clear()
        cores.clear()
        build_certificate(t, fresh, 0.5 * (lo + hi), 1.0, 2.0)
        assert len(calls) <= 4
        assert sum(dense) == 0
        assert sigma1 == [(40, 40)] * n_sigma1
        assert len(cores) == n_cores



def test_certificate_stops_on_stalling_series():
    # Support 11 of 12 cells against a rank-1 space (alpha*beta = 3): the
    # Neumann step ratio climbs toward 1, 0.68, 0.979, ..., and is within
    # 1e-12 of 1 from step 20 on. The series must stop 50 steps later, not
    # run on under a cap set by the last ratio below that band.
    G = np.arange(12.0).reshape(3, 4) - 1
    with pytest.raises(NeumannNonConvergence) as err:
        build_certificate(TargetPair(G, np.ones((3, 4))), None, 0.3, None, 2.0)
    assert int(re.search(r"exceeded (\d+) steps", str(err.value)).group(1)) <= 100




def test_verify_bounds_standalone_matches_stored():
    t, E, lam, mu = valid_instance(9, sigma=1e-3)
    cert = build_certificate(t, E, lam, mu, 2.0)
    again = verify_bounds(cert, profile(t))
    assert len(again) == 7
    for (m1, b1, s1), (m2, b2, s2) in zip(cert.bound_diagnostics, again):
        assert m1 == m2 and b1 == b2 and s1 == s2


def test_infinite_scale_without_weight_drops_out_of_the_bounds():
    # At mu = inf every scale has weight 0, so an infinite scale gives the
    # zero scales' bounds; it read NaN bounds (0*inf).
    t, E, lam, mu = valid_instance(9, sigma=1e-3)
    cert = dataclasses.replace(build_certificate(t, E, lam, mu, 2.0), mu=math.inf)
    prof = profile(t)
    free = verify_bounds(dataclasses.replace(cert, eps_2to2=0.0, eps_vinf=0.0), prof)
    for e2, ev in ((math.inf, 0.0), (0.0, math.inf), (math.inf, math.inf)):
        assert verify_bounds(dataclasses.replace(cert, eps_2to2=e2, eps_vinf=ev), prof) == free


def test_overflowed_measurement_fails_its_bound_unless_vacuous():
    # A flat Q_Omega of 1e307 on 30 x 30: its spectral norm, its l1 norm and
    # ||Q_Omega + Q_T||_F^2 overflow, and so does the last one's bound.
    # inf <= inf certifies nothing, so those flags fail; at alpha*beta >= 1
    # the four bounds on the geometric factor are vacuous and hold even
    # for an overflowed measurement.
    t, E, lam, mu = valid_instance(9, sigma=1e-3)
    cert = build_certificate(t, E, lam, mu, 2.0)
    big = dataclasses.replace(cert, Q_omega=np.full(cert.Q_omega.shape, 1e307))
    prof = profile(t)
    vacuous = copy.copy(prof)
    vacuous.product = 2.0
    on_geo = ("support_block_spectral", "space_block_spectral",
              "space_block_maxabs", "support_block_maxabs")
    for p in (prof, vacuous):
        triples = dict(zip(BOUND_NAMES, verify_bounds(big, p)))
        assert triples["support_block_l1"][0] == math.inf
        assert triples["sum_frobenius_squared"] == (math.inf, math.inf, False)
        assert not triples["support_block_l1"][2]
        assert triples["support_block_spectral"][0] == math.inf
        assert triples["support_block_spectral"][2] is (p is vacuous)
    for name in on_geo:
        assert triples[name][1:] == (math.inf, True)


def test_certificate_matches_dense_reference():
    # The certificate's spectra come from the Gram's top eigenvalue and from
    # tangent-space cores. Rebuilt with every spectrum taken from a dense
    # np.linalg.svd, each measurement and bound agrees to 1e-12 relative
    # and the seven flags are equal, on certify-sized flat targets.
    def dense_sigma1(A):
        return float(np.linalg.svd(A, compute_uv=False).max(initial=0.0))

    def dense_T_values(U, X, B, Vt):
        s = np.linalg.svd(U @ X + B @ Vt, compute_uv=False)
        return s[s > 1e-10 * s.max(initial=0.0)]

    def measurements(cert):
        return [cert.eps_2to2, cert.eps_vinf, cert.eps_star_prime,
                *cert.feasibility_residuals, *cert.complement_norms,
                *(v for meas, bnd, _ in cert.bound_diagnostics for v in (meas, bnd))]

    families = ((40, 1, 1.5, (20, 80)), (40, 2, 1.5, (10, 40)),
                (60, 1, 2.0, (30, 120)), (60, 2, 1.5, (30, 120)))
    for fi, (m, r, c, (klo, khi)) in enumerate(families):
        for i in range(3):
            seed = probe_seed("densecert", fi, i)
            kbar = klo + (khi - klo) * i // 2
            t, E = flat_instance(m, m, r, kbar, 10.0, seed, sigma=1e-3)
            ie2, iev, _ = perturbation_scales(t.space, E)
            lo, hi = check_conditions(profile(t), "regularized", c, 0.1, mu=1.0,
                                      eps_2to2=ie2, eps_vinf=iev).lambda_window
            assert lo < hi
            lam = 0.5 * (lo + hi)
            cert = build_certificate(t, E, lam, 1.0, c, tol=1e-9)
            with pytest.MonkeyPatch.context() as mp:
                # An empty slot makes the rebuild measure E's scales with
                # the dense kernels, not reuse the ones cert measured.
                mp.setattr(splr.certificate, "_last_scales", None)
                mp.setattr(splr.norms, "_spectral_norm", dense_sigma1)
                mp.setattr(splr.certificate, "_T_singular_values", dense_T_values)
                ref = build_certificate(t, E, lam, 1.0, c, tol=1e-9)
            assert ref.eps_2to2 == dense_sigma1(E)
            got, want = measurements(cert), measurements(ref)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-12, abs=1e-300)
            assert [ok for *_, ok in cert.bound_diagnostics] \
                == [ok for *_, ok in ref.bound_diagnostics]
