import math
import tracemalloc

import numpy as np
import pytest

from splr.incoherence import (
    IncoherenceProfile,
    PreconditionError,
    check_conditions,
    check_identifiability,
    optimal_rho,
    profile,
    proposition1_bounds,
    simplified_parameters,
)
from splr.matrices import RandomStream
from splr.norms import entrywise_norm, sharp_norm
from splr.subspaces import TargetPair, project_support, project_T, sign_matrix
from splr.synth import InstanceSpec, gen_instance, gen_subspaces

from .helpers import flat_instance, probe_seed


def make_profile(a, b, u, v, w, gamma, kbar=10, rbar=1):
    rho_star = optimal_rho(a, b)
    return IncoherenceProfile(
        a=a, b=b, m0=int(a), n0=int(b), u=u, v=v, w=w, gamma=gamma,
        rho_star=rho_star, rho=rho_star, kbar=kbar, rbar=rbar,
    )


def two_column_pair():
    # Sparse part [[1,0],[-1,0]] against an axis-aligned rank-1 space.
    X_S = np.array([[1.0, 0.0], [-1.0, 0.0]])
    X_L = np.zeros((2, 2))
    X_L[0, 0] = 2.0
    return TargetPair(X_S, X_L)


def test_profile_count_statistics():
    prof = profile(two_column_pair())
    assert prof.a == 2 and prof.b == 1
    assert prof.m0 == 2 and prof.n0 == 1
    assert prof.rho_star == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert prof.alpha_star == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_profile_axis_aligned_space():
    X_S = np.zeros((2, 2)); X_S[1, 1] = 1.0
    X_L = np.zeros((2, 2)); X_L[0, 0] = 3.0
    prof = profile(TargetPair(X_S, X_L), rho=1.0)
    assert prof.u == pytest.approx(1.0, abs=1e-12)
    assert prof.v == pytest.approx(1.0, abs=1e-12)
    assert prof.w == pytest.approx(1.0, abs=1e-12)
    assert prof.beta(1.0) == pytest.approx(3.0, abs=1e-12)
    assert prof.gamma == pytest.approx(1.0, abs=1e-12)


def test_profile_dense_unit_vector_space():
    u = np.full((4, 1), 0.5)
    X_L = 2.0 * (u @ u.T)
    X_S = np.zeros((4, 4)); X_S[0, 0] = 1.0
    prof = profile(TargetPair(X_S, X_L), rho=1.0)
    assert prof.beta(1.0) == pytest.approx(0.75, abs=1e-12)
    assert prof.gamma == pytest.approx(0.25, abs=1e-12)


def test_profile_alpha_matches_sharp_norm():
    t, _ = flat_instance(9, 9, 1, 12, 10.0, probe_seed("alphasharp"))
    prof = profile(t)
    direct = sharp_norm(sign_matrix(t.X_S), prof.rho_star)
    assert prof.alpha_star == pytest.approx(direct, rel=1e-12)


def test_profile_gamma_below_w():
    for k in range(10):
        t, _ = flat_instance(8, 8, 1 + k % 2 and 2 or 1, 6 + k, 10.0, probe_seed("gw", k))
        prof = profile(t)
        assert prof.gamma <= prof.w + 1e-10


def spectral_pair(m, n, r, seed):
    """TargetPair with one support cell and a rank-r X_L on Haar factors."""
    space = gen_subspaces(m, n, r, seed)
    X_S = np.zeros((m, n))
    X_S[0, 0] = 1.0
    return TargetPair(X_S, (space.U * np.arange(r, 0, -1.0)) @ space.V.T)


@pytest.mark.parametrize("m, n, r", [(9, 7, 3), (20, 30, 2), (8, 8, 0), (6, 6, 6),
                                     (5, 8, 5), (1, 7, 1), (1, 7, 0)])
def test_profile_coherence_matches_dense_definitions(m, n, r):
    # u = ||U U^T||_inf is the largest squared row norm of U (the diagonal
    # dominates by Cauchy-Schwarz), and likewise v.
    t = spectral_pair(m, n, r, probe_seed("dense-coh", m, n, r))
    U, V = t.space.U, t.space.V
    prof = profile(t)
    dense = {
        "u": np.abs(U @ U.T).max(),
        "v": np.abs(V @ V.T).max(),
        "w": np.linalg.norm(U, axis=1).max() * np.linalg.norm(V, axis=1).max(),
        "gamma": np.abs(U @ V.T).max(),
    }
    for name, want in dense.items():
        assert math.isclose(getattr(prof, name), want, rel_tol=1e-12, abs_tol=1e-12), name


@pytest.mark.parametrize("m, n", [(1000, 3), (3, 1000)])
def test_profile_forms_no_square_product(m, n):
    # A 1000 x 1000 U U^T (or V V^T) would take 8 MB; the profile needs
    # arrays of the size of U, V and U V^T only.
    t = spectral_pair(m, n, 1, probe_seed("no-square", m))
    tracemalloc.start()
    try:
        profile(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * m * n * 8


def test_optimal_rho_closed_form():
    assert optimal_rho(4.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert optimal_rho(3.0, 3.0) == 1.0
    assert optimal_rho(0.0, 5.0) == 1.0
    assert optimal_rho(5.0, 0.0) == 1.0


def golden_section_min(f, lo, hi, tol=1e-10):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - g * (hi - lo)
    x2 = lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def test_optimal_rho_agrees_with_line_search():
    stream = RandomStream(probe_seed("rhosearch"))
    for k in range(20):
        a = 1.0 + 9.0 * stream.uniforms(1)[0]
        b = 1.0 + 9.0 * stream.uniforms(1)[0]
        u, v, w = 0.01 + 0.2 * stream.uniforms(3)
        prof = make_profile(a, b, u, v, w, gamma=w / 2.0)
        star = optimal_rho(a, b)

        def product(log_rho):
            rho = math.exp(log_rho)
            return prof.alpha(rho) * prof.beta(rho)

        found = golden_section_min(product, math.log(star * 1e-3), math.log(star * 1e3))
        # The product is flat on a plateau around the minimizer when one of
        # the two alpha branches dominates, so compare values not locations.
        assert prof.alpha(star) * prof.beta(star) <= product(found) + 1e-6


def test_rho_star_minimizes_product_on_grid():
    t, _ = flat_instance(10, 12, 2, 16, 10.0, probe_seed("grid"))
    prof = profile(t)
    best = prof.alpha(prof.rho_star) * prof.beta(prof.rho_star)
    for log_rho in np.linspace(-3, 3, 61):
        rho = prof.rho_star * math.exp(log_rho)
        assert prof.alpha(rho) * prof.beta(rho) >= best - 1e-9


def test_identifiability_dense_vector_instance():
    u = np.full((4, 1), 0.5)
    X_L = 2.0 * (u @ u.T)
    X_S = np.zeros((4, 4)); X_S[0, 0] = 1.0
    prof = profile(TargetPair(X_S, X_L), rho=1.0)
    assert prof.product == pytest.approx(0.75, abs=1e-12)
    assert check_identifiability(prof)


def test_identifiability_fails_when_components_coincide():
    X = np.zeros((2, 2)); X[0, 0] = 1.0
    prof = profile(TargetPair(X, X))
    assert prof.alpha_star == 1.0
    assert prof.beta_star == pytest.approx(3.0, abs=1e-12)
    assert not check_identifiability(prof)


def test_identifiability_empty_support():
    X_L = np.outer([1.0, 1.0], [1.0, -1.0])
    prof = profile(TargetPair(np.zeros((2, 2)), X_L))
    assert prof.alpha_star == 0.0
    assert (prof.a, prof.b, prof.m0, prof.n0, prof.kbar) == (0.0, 0.0, 0, 0, 0)
    assert prof.rho_star == 1.0
    assert check_identifiability(prof)
    # A rank-0 target: every coherence term of m x 0 factors is +0.0.
    for X_S in (np.zeros((3, 2)), np.diag([-1.0, 2.0, 0.0])[:, :2]):
        prof = profile(TargetPair(X_S, np.zeros((3, 2))))
        terms = (prof.u, prof.v, prof.w, prof.gamma, prof.beta_star, prof.product)
        assert all(type(x) is float and math.copysign(1.0, x) == 1.0 and x == 0.0
                   for x in terms)
        assert prof.rbar == 0
        assert check_identifiability(prof)


def test_uncertainty_principle():
    # A matrix playing both roles can never satisfy the identifiability
    # product strictly below one.
    stream = RandomStream(probe_seed("uncertain"))
    for k in range(20):
        m = 3 + int(stream.integers(1, 6)[0])
        n = 3 + int(stream.integers(1, 6)[0])
        X = stream.gaussian(m, n)
        mask = stream.uniforms(m * n).reshape(m, n) < 0.4
        X = X * mask
        if not X.any():
            X[0, 0] = 1.0
        prof = profile(TargetPair(X, X))
        assert prof.product >= 1.0 - 1e-9


def test_check_conditions_requires_c_above_one():
    # c = 1, the open end of the premise; tests/test_boundary.py holds the
    # rest of c's rule, and lambda's and the scales'.
    prof = make_profile(1.0, 1.0, 0.02, 0.02, 0.02, 0.01)
    with pytest.raises(ValueError, match=r"^c must lie in \(1, inf\), got 1.0$"):
        check_conditions(prof, "constrained", 1.0, 0.1)


def test_check_conditions_fails_on_nonidentifiable():
    X = np.zeros((2, 2)); X[0, 0] = 1.0
    prof = profile(TargetPair(X, X))
    verdict = check_conditions(prof, "constrained", 2.0, 0.5)
    assert not verdict.passed[0]
    assert not verdict.all_passed


def test_check_conditions_empty_window_when_denominator_nonpositive():
    # alpha*beta = 0.4 with c = 2 makes 1 - ab - c*ab = -0.2.
    t, _ = flat_instance(30, 30, 2, 60, 10.0, probe_seed("denom"))
    prof = profile(t)
    assert prof.product == pytest.approx(0.4, abs=1e-12)
    verdict = check_conditions(prof, "constrained", 2.0, 0.2)
    lo, hi = verdict.lambda_window
    assert lo == math.inf
    assert not verdict.passed[2]


def test_check_conditions_window_brackets_verdict():
    t, _ = flat_instance(30, 30, 1, 20, 10.0, probe_seed("window"))
    prof = profile(t)
    verdict = check_conditions(prof, "constrained", 2.0, 0.2357)
    lo, hi = verdict.lambda_window
    assert lo < 0.2357 < hi
    assert verdict.all_passed
    below = check_conditions(prof, "constrained", 2.0, lo * 0.9)
    assert not below.passed[2]
    above = check_conditions(prof, "constrained", 2.0, hi * 1.1)
    assert not above.passed[1]


def test_closed_form_rule_conditions_pass_noiseless():
    # Premise-satisfying profiles with the rule parameters must pass all
    # three conditions at c=2 when there is no perturbation.  The flat
    # model has gamma = rbar/sqrt(m*n), so at 60x60 the tighter
    # regularized premise (alpha*gamma <= 1/41) only admits rank 1, while
    # the constrained premise (<= 1/15) admits rank 2 as well.
    for k in range(8):
        rbar = 1 + k % 2
        t, _ = flat_instance(60, 60, rbar, 30 + 4 * k, 10.0, probe_seed("rule", k))
        prof = profile(t)
        if rbar == 1:
            lam, mu = simplified_parameters(prof, "regularized")
            verdict = check_conditions(prof, "regularized", 2.0, lam, mu=mu)
            assert verdict.all_passed, (k, verdict.passed)
        lam_c, mu_c = simplified_parameters(prof, "constrained")
        assert mu_c is None
        verdict_c = check_conditions(prof, "constrained", 2.0, lam_c)
        assert verdict_c.all_passed, (k, verdict_c.passed)


def test_closed_form_rule_conditions_pass_with_noise_at_scale():
    # With Gaussian noise the rule's mu is pinned to 4*eps_2to2, and the
    # lower lambda condition carries an eps_vinf/mu term that only falls
    # below the fixed rule lambda once the size is large enough; m = n =
    # 300 is past the crossover (m = n = 200 still fails the third
    # inequality), so the closed-form triple must pass at c = 2 here.
    from splr.certificate import perturbation_scales

    t, E = flat_instance(300, 300, 1, 300, 10.0, probe_seed("rulenoise"), sigma=1e-3)
    prof = profile(t)
    ie2, iev, _ = perturbation_scales(t.space, E)
    lam, mu = simplified_parameters(prof, "regularized", eps_2to2=ie2, eps_vinf=iev)
    verdict = check_conditions(
        prof, "regularized", 2.0, lam, mu=mu, eps_2to2=ie2, eps_vinf=iev
    )
    assert verdict.all_passed, verdict.passed


def test_simplified_parameters_regularized_hand_value():
    # alpha = 41 with gamma = 1/1681 and alpha*beta = 3/41 sits exactly on
    # the premise boundary; the rule gives lambda = (15/82)/41 = 15/3362.
    prof = make_profile(41.0, 41.0, 1.0 / 1681, 1.0 / 1681, 1.0 / 1681, 1.0 / 1681)
    assert prof.product == pytest.approx(3.0 / 41.0, rel=1e-12)
    lam, mu = simplified_parameters(prof, "regularized")
    assert lam == pytest.approx(15.0 / 3362.0, rel=1e-12)
    assert mu == 0.0


def test_simplified_parameters_constrained_premise_failure():
    prof = make_profile(10.0, 10.0, 0.004, 0.004, 0.004, 0.01)
    assert prof.alpha_star * prof.gamma == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(PreconditionError) as err:
        simplified_parameters(prof, "constrained")
    assert "1/15" in str(err.value)


def test_simplified_parameters_constrained_accepts_and_bounds():
    prof = make_profile(10.0, 10.0, 0.0066, 0.0066, 0.0066, 1e-4)
    lam, mu = simplified_parameters(prof, "constrained")
    assert mu is None
    assert lam == pytest.approx(math.sqrt((5.0 / 3.0) * 1e-4 / 10.0), rel=1e-12)
    assert 5.0 * prof.gamma <= lam <= 1.0 / (3.0 * prof.alpha_star)


def test_simplified_parameters_constrained_lambda_in_window():
    # lambda = sqrt((5/3)*gamma/alpha) lies in [5*gamma, 1/(3*alpha)]
    # whenever alpha*gamma <= 1/15: both ends reduce to that premise. The
    # power-of-two alphas put alpha*gamma = 1/15 exactly; t = 0 is gamma = 0.
    cases = [(a, b, t) for a, b in ((1, 1), (4, 4), (1, 4), (2, 3), (7, 5), (30, 2))
             for t in (0.0, 0.01, 0.3, 0.7, 0.999)]
    cases += [(1, 1, 1.0), (4, 4, 1.0), (1, 4, 1.0)]
    for a, b, t in cases:
        alpha = make_profile(a, b, 0.0, 0.0, 0.0, 0.0).alpha_star
        for w in (0.0, 0.1 / alpha):
            prof = make_profile(a, b, 0.0, 0.0, w, t / (15.0 * alpha))
            if t == 1.0:
                assert prof.alpha_star * prof.gamma == 1.0 / 15.0
            lam, _ = simplified_parameters(prof, "constrained")
            lo, hi = 5.0 * prof.gamma, 1.0 / (3.0 * prof.alpha_star)
            assert lo * (1.0 - 1e-12) <= lam <= hi * (1.0 + 1e-12), (a, b, t, w)


def test_simplified_parameters_regularized_premise_failure():
    prof = make_profile(2.0, 2.0, 0.02, 0.02, 0.02, 0.02)
    with pytest.raises(PreconditionError) as err:
        simplified_parameters(prof, "regularized")
    assert "1/41" in str(err.value)


def test_proposition1_hand_values():
    uinf = math.sqrt(2.0 / 100.0)
    alpha_b, beta_b, gamma_b = proposition1_bounds(100, 100, 2, 10, 10, uinf, uinf)
    assert alpha_b == pytest.approx(10.0, rel=1e-12)
    assert beta_b == pytest.approx(0.12, rel=1e-12)
    assert gamma_b == pytest.approx(0.04, rel=1e-12)


def test_proposition1_axis_aligned_vacuous_but_valid():
    # A fully concentrated singular vector inflates c2 to m, making the
    # gamma bound equal rbar: loose, but still above the measured value.
    alpha_b, beta_b, gamma_b = proposition1_bounds(100, 100, 1, 1, 1, 1.0, 1.0)
    assert gamma_b == pytest.approx(1.0, rel=1e-12)
    assert beta_b == pytest.approx(3.0, rel=1e-12)


def test_proposition1_rejects_bad_counts_and_coherences():
    # Each bad count and coherence is a row of tests/test_boundary.py;
    # numpy integers, as an IncoherenceProfile holds them, still pass.
    assert proposition1_bounds(5, 5, np.int64(1), np.int64(1), np.int64(1), 0.5, 0.5) \
        == proposition1_bounds(5, 5, 1, 1, 1, 0.5, 0.5)


def test_proposition1_holds_on_random_instance():
    spec = InstanceSpec(m=60, n=60, rbar=2, ktilde=100, seed=probe_seed("prop1"))
    inst = gen_instance(spec)
    prof = inst.profile
    rho = math.sqrt(60.0 / 60.0)
    space = inst.target.space
    alpha_b, beta_b, gamma_b = proposition1_bounds(
        60, 60, prof.rbar, prof.m0, prof.n0,
        float(np.abs(space.U).max()), float(np.abs(space.V).max()),
    )
    assert prof.alpha(rho) <= alpha_b + 1e-12
    assert prof.beta(rho) <= beta_b + 1e-12
    assert prof.gamma <= gamma_b + 1e-12


def test_composition_cap_when_identifiable():
    t, _ = flat_instance(20, 20, 1, 20, 10.0, probe_seed("compcap"))
    prof = profile(t)
    assert check_identifiability(prof)
    stream = RandomStream(probe_seed("compcapprobe"))
    cap = prof.product
    for _ in range(50):
        M = stream.gaussian(20, 20)
        lhs = entrywise_norm(project_support(t.support, project_T(t.space, M)), 1)
        assert lhs <= cap * entrywise_norm(M, 1) + 1e-9
