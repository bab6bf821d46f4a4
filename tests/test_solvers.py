import functools
import math

import numpy as np
import pytest

import splr.matrices
import splr.norms
import splr.prox
import splr.solvers
from splr.certificate import perturbation_scales
from splr.incoherence import (
    PreconditionError,
    check_conditions,
    default_lambda,
    profile,
    simplified_parameters,
)
from splr.matrices import RandomStream
from splr.norms import entrywise_norm, induced_norm, trace_norm
from splr.solvers import (
    ConstrainedConfig,
    RegularizedConfig,
    bound_theorem2,
    bound_theorem3,
    recovery_errors,
    solve_constrained,
    solve_regularized,
)

from splr.synth import InstanceSpec, gen_instance

from .helpers import flat_instance, probe_seed
from .test_incoherence import make_profile


def regularized_objective(Y, X_S, X_L, lam, mu):
    R = X_S + X_L - Y
    return (0.5 / mu) * float((R ** 2).sum()) + lam * entrywise_norm(X_S, 1) \
        + trace_norm(X_L)


@functools.lru_cache(maxsize=1)
def relaxed_run():
    """One converged relaxed-mode solve shared by the tests below.

    Noise is loud on purpose: the feasibility caps scale with the noise
    norms, so a visible eps leaves the 10*tol exit slack far inside the
    relative tolerance the caps are checked at.
    """
    t, E = flat_instance(16, 16, 1, 8, 10.0, probe_seed("slvrx", 16, 8), 0.2)
    prof = profile(t)
    lam, _ = simplified_parameters(prof, "constrained")
    Y = t.X_S + t.X_L + E
    ev1 = entrywise_norm(E, 1)
    est = trace_norm(E)
    cfg = ConstrainedConfig(lam=lam, eps_v1=ev1, eps_star=est, tol=4e-6)
    return t, prof, lam, ev1, est, Y, solve_constrained(Y, cfg)


def test_regularized_zero_input():
    rep = solve_regularized(np.zeros((6, 5)), RegularizedConfig(lam=1.0, mu=1.0))
    assert np.array_equal(rep.X_S_hat, np.zeros((6, 5)))
    assert np.array_equal(rep.X_L_hat, np.zeros((6, 5)))
    assert rep.converged
    assert rep.objective == 0.0
    assert rep.residual_v1 == rep.residual_star == rep.residual_v2 == 0.0


def test_regularized_small_input_keeps_origin():
    # Zero is stationary when the scaled residual -Y sits inside both dual
    # balls: max-abs within lam*mu and spectral norm within mu.
    lam, mu = 1.0, 0.5
    Y = 0.05 * RandomStream(probe_seed("small")).gaussian(5, 5)
    assert entrywise_norm(Y, np.inf) <= lam * mu
    assert induced_norm(Y, "2->2") <= mu
    rep = solve_regularized(Y, RegularizedConfig(lam=lam, mu=mu))
    assert np.array_equal(rep.X_S_hat, np.zeros((5, 5)))
    assert np.array_equal(rep.X_L_hat, np.zeros((5, 5)))
    assert rep.converged and rep.iterations == 1


def test_regularized_objective_monotone_in_sweeps():
    # tol=0 never triggers the early exit, so a run capped at k sweeps ends
    # exactly at the k-th iterate; the reported objectives must come down.
    t, _ = flat_instance(12, 12, 1, 6, 10.0, probe_seed("mono"))
    Y = t.X_S + t.X_L
    objs = []
    for k in range(1, 9):
        rep = solve_regularized(
            Y, RegularizedConfig(lam=0.3, mu=0.5, tol=0.0, max_iter=k)
        )
        assert rep.iterations == k and not rep.converged
        objs.append(rep.objective)
    for prev, nxt in zip(objs, objs[1:]):
        assert nxt <= prev + 1e-12 * max(1.0, abs(prev))


def test_regularized_report_rederivable():
    t, _ = flat_instance(20, 20, 1, 10, 10.0, probe_seed("rederive"))
    Y = t.X_S + t.X_L
    rep = solve_regularized(Y, RegularizedConfig(lam=0.25, mu=0.2))
    assert rep.converged
    assert rep.diagnostics["kkt_residual"] <= 1e-6
    again = regularized_objective(Y, rep.X_S_hat, rep.X_L_hat, 0.25, 0.2)
    assert abs(rep.objective - again) <= 1e-10 * (1.0 + abs(rep.objective))
    R = rep.X_S_hat + rep.X_L_hat - Y
    assert abs(rep.residual_v1 - entrywise_norm(R, 1)) <= 1e-12
    assert abs(rep.residual_star - trace_norm(R)) <= 1e-12
    assert abs(rep.residual_v2 - entrywise_norm(R, 2)) <= 1e-12


def test_regularized_box_active():
    t, _ = flat_instance(12, 12, 1, 8, 10.0, probe_seed("boxreg"))
    Y = t.X_S + t.X_L
    b = 2.0
    rep = solve_regularized(Y, RegularizedConfig(lam=0.3, mu=0.5, b=b))
    assert rep.converged
    assert entrywise_norm(rep.X_S_hat - Y, np.inf) <= b + 1e-12
    # The box must actually bind for this to exercise the clipped branch.
    assert entrywise_norm(rep.X_S_hat - Y, np.inf) >= b - 1e-6


def box_run(b):
    """The box-active instance above solved at box radius b, with the
    count of entries of X_S on the box edge and the box excess."""
    t, _ = flat_instance(12, 12, 1, 8, 10.0, probe_seed("boxreg"))
    Y = t.X_S + t.X_L
    cfg = RegularizedConfig(lam=0.3, mu=0.5, b=b)
    rep = solve_regularized(Y, cfg)
    dist = np.abs(rep.X_S_hat - Y)
    return cfg, rep, int((dist >= b - 1e-9).sum()), float(dist.max()) - b


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_regularized_box_exits_on_optimality_residual(b):
    # b = 0.5 puts 140 of the 144 entries of X_S on the box edge, b = 2.0
    # only a few. The entrywise gate must apply the one-sided box-edge rules:
    # were it to count edge entries as violations, it would pass late or
    # never, and the spectral block would run at many sweeps.
    cfg, rep, edge, excess = box_run(b)
    assert (edge > 100) if b == 0.5 else (0 < edge < 20)
    assert rep.converged
    assert rep.diagnostics["kkt_residual"] <= cfg.tol
    assert rep.diagnostics["spectral_checks"] <= 2
    assert excess <= 1e-12


def test_regularized_scale_covariance():
    # The objective at (cY, c*mu) is c times the objective at (Y, mu) of the
    # pair scaled down by c, so the split scales with Y.
    t, E = flat_instance(16, 16, 1, 8, 10.0, probe_seed("scalecov"), 0.1)
    Y = t.X_S + t.X_L + E
    base = solve_regularized(Y, RegularizedConfig(lam=0.3, mu=0.5, tol=1e-8))
    assert base.converged
    for c in (1e-3, 0.2, 7.0, 1e3):
        rep = solve_regularized(c * Y, RegularizedConfig(lam=0.3, mu=0.5 * c, tol=1e-8))
        assert rep.converged
        for got, want in ((rep.X_S_hat, base.X_S_hat), (rep.X_L_hat, base.X_L_hat)):
            err = entrywise_norm(got - c * want, 2)
            assert err <= 1e-8 * entrywise_norm(c * want, 2)


def test_regularized_transpose_symmetry():
    t, E = flat_instance(14, 18, 1, 8, 10.0, probe_seed("transpose"), 0.1)
    Y = t.X_S + t.X_L + E
    for b in (math.inf, 1.0):
        cfg = RegularizedConfig(lam=0.3, mu=0.5, b=b, tol=1e-8)
        rep = solve_regularized(Y, cfg)
        rep_t = solve_regularized(Y.T, cfg)
        assert rep.converged and rep_t.converged
        for got, want in ((rep_t.X_S_hat, rep.X_S_hat), (rep_t.X_L_hat, rep.X_L_hat)):
            assert entrywise_norm(got - want.T, 2) <= 1e-8 * entrywise_norm(want, 2)
        assert rep_t.objective == pytest.approx(rep.objective, rel=1e-12)


def test_regularized_max_iter_reports_not_converged():
    t, _ = flat_instance(12, 12, 1, 6, 10.0, probe_seed("cap"))
    Y = t.X_S + t.X_L
    rep = solve_regularized(Y, RegularizedConfig(lam=0.3, mu=0.5, max_iter=2))
    assert not rep.converged and rep.iterations == 2


def test_config_validation_errors():
    with pytest.raises(ValueError):
        solve_regularized(np.zeros((2, 2)), RegularizedConfig(lam=0.0, mu=1.0))
    with pytest.raises(ValueError):
        solve_regularized(np.zeros((2, 2)), RegularizedConfig(lam=1.0, mu=-1.0))
    with pytest.raises(ValueError):
        solve_regularized(np.zeros((2, 2)), RegularizedConfig(lam=1.0, mu=1.0, b=0.0))
    with pytest.raises(ValueError):
        solve_constrained(np.zeros((2, 2)), ConstrainedConfig(lam=1.0, eps_v1=-1.0))
    with pytest.raises(ValueError):
        solve_constrained(np.zeros((2, 2)), ConstrainedConfig(lam=1.0, max_iter=0))


def test_constrained_zero_input():
    rep = solve_constrained(np.zeros((4, 7)), ConstrainedConfig(lam=0.5))
    assert np.array_equal(rep.X_S_hat, np.zeros((4, 7)))
    assert np.array_equal(rep.X_L_hat, np.zeros((4, 7)))
    assert rep.converged


def test_constrained_exact_recovery():
    # Noiseless planted instance inside the admissible-lambda window: the
    # exact-agreement solve must return the planted pair to solver accuracy.
    t, _ = flat_instance(40, 40, 1, 20, 10.0, probe_seed("slv40"))
    prof = profile(t)
    lam, _ = simplified_parameters(prof, "constrained")
    verdict = check_conditions(prof, "regularized", 2.0, lam)
    assert verdict.all_passed
    Y = t.X_S + t.X_L
    cfg = ConstrainedConfig(lam=lam, tol=1e-9)
    rep = solve_constrained(Y, cfg)
    assert rep.converged
    relS = entrywise_norm(rep.X_S_hat - t.X_S, 2) / entrywise_norm(t.X_S, 2)
    relL = entrywise_norm(rep.X_L_hat - t.X_L, 2) / entrywise_norm(t.X_L, 2)
    assert relS <= 1e-6 and relL <= 1e-6
    assert rep.residual_v2 <= 10.0 * cfg.tol
    assert rep.diagnostics["primal_residual"] <= cfg.tol
    assert rep.diagnostics["dual_residual"] <= cfg.tol


def test_constrained_objective_candidate_bound():
    # (Y, 0) is always feasible, so the optimum cannot exceed lam*||Y||_v1.
    Y = RandomStream(probe_seed("cand")).gaussian(8, 8)
    lam = 0.7
    rep = solve_constrained(Y, ConstrainedConfig(lam=lam, tol=1e-9))
    assert rep.converged
    cand = lam * entrywise_norm(Y, 1)
    assert rep.objective <= cand * (1.0 + 1e-9) + 1e-12


def test_constrained_zero_cap_forces_exact_split():
    Y = RandomStream(probe_seed("zcap")).gaussian(6, 6)
    rep = solve_constrained(
        Y, ConstrainedConfig(lam=0.5, eps_v1=0.0, eps_star=5.0, tol=1e-9)
    )
    assert rep.converged
    assert rep.residual_v2 <= 1e-8


@functools.lru_cache(maxsize=1)
def exact_split_run():
    """A noiseless 20x20 rank-2 instance inside the admissible-lambda
    window, split exactly at tol 1e-9; shared by the metamorphic tests."""
    t, _ = flat_instance(20, 20, 2, 20, 10.0, probe_seed("exactmeta"))
    lam = default_lambda(t.shape, profile(t))
    rep = solve_constrained(t.X_S + t.X_L, ConstrainedConfig(lam=lam, tol=1e-9))
    assert rep.converged
    return t, lam, rep


def assert_split_close(rep, X_S, X_L, rel):
    assert rep.converged
    for got, want in ((rep.X_S_hat, X_S), (rep.X_L_hat, X_L)):
        assert entrywise_norm(got - want, 2) <= rel * entrywise_norm(want, 2)


def test_exact_split_scale_covariance():
    # The exact split is positively homogeneous: splitting cY at tolerance
    # c*tol gives c times the split of Y.
    t, lam, base = exact_split_run()
    Y = t.X_S + t.X_L
    for c in (0.25, 4.0):
        rep = solve_constrained(c * Y, ConstrainedConfig(lam=lam, tol=c * 1e-9))
        assert_split_close(rep, c * base.X_S_hat, c * base.X_L_hat, 1e-8)


def test_exact_split_transpose_symmetry():
    t, lam, base = exact_split_run()
    rep = solve_constrained((t.X_S + t.X_L).T, ConstrainedConfig(lam=lam, tol=1e-9))
    assert_split_close(rep, base.X_S_hat.T, base.X_L_hat.T, 1e-9)


def test_exact_split_permutation_invariance():
    t, lam, base = exact_split_run()
    stream = RandomStream(probe_seed("exactperm"))
    rows = np.argsort(stream.uniforms(20))
    cols = np.argsort(stream.uniforms(20))
    Y = (t.X_S + t.X_L)[rows][:, cols]
    rep = solve_constrained(Y, ConstrainedConfig(lam=lam, tol=1e-9))
    assert_split_close(rep, base.X_S_hat[rows][:, cols], base.X_L_hat[rows][:, cols], 1e-9)


def test_exact_split_recovers_planted_pair():
    t, lam, base = exact_split_run()
    assert_split_close(base, t.X_S, t.X_L, 1e-8)
    # Zero corruption (Y = X_L) and zero rank (Y = X_S) each come back whole
    # with an exactly zero other part.
    for Y, S_want, L_want in ((t.X_L, 0.0 * t.X_S, t.X_L), (t.X_S, t.X_S, 0.0 * t.X_L)):
        rep = solve_constrained(Y, ConstrainedConfig(lam=lam, tol=1e-9))
        assert rep.converged
        assert entrywise_norm(rep.X_S_hat - S_want, 2) <= 1e-8 * entrywise_norm(Y, 2)
        assert entrywise_norm(rep.X_L_hat - L_want, 2) <= 1e-8 * entrywise_norm(Y, 2)


def degenerate_inputs():
    """1 x n, m x 1, 1 x 1 and all-zero observations."""
    stream = RandomStream(probe_seed("degenerate"))
    return {
        "row": stream.gaussian(1, 7),
        "column": stream.gaussian(7, 1),
        "scalar": np.array([[3.0]]),
        "zero": np.zeros((5, 6)),
    }


def degenerate_solves(Y, max_iter=100000):
    """Both solvers on Y: penalized without and with a box, exact split,
    and relaxed with a box."""
    lam = 1.0 / math.sqrt(max(Y.shape))
    return (
        solve_regularized(Y, RegularizedConfig(lam=lam, mu=0.5, max_iter=max_iter)),
        solve_regularized(Y, RegularizedConfig(lam=lam, mu=0.5, b=1.0, max_iter=max_iter)),
        solve_constrained(Y, ConstrainedConfig(lam=lam, max_iter=max_iter)),
        solve_constrained(Y, ConstrainedConfig(
            lam=lam, eps_v1=0.1, eps_star=0.1, b=2.0, max_iter=max_iter)),
    )


def assert_finite_report(rep, shape):
    for X in (rep.X_S_hat, rep.X_L_hat):
        assert X.shape == shape and np.all(np.isfinite(X))
    assert math.isfinite(rep.objective) and math.isfinite(rep.residual_v2)


@pytest.mark.parametrize("name", ["row", "column", "scalar", "zero"])
def test_degenerate_shapes_converge(name):
    Y = degenerate_inputs()[name]
    for rep in degenerate_solves(Y):
        assert rep.converged
        assert_finite_report(rep, Y.shape)
        if name == "zero":
            assert not rep.X_S_hat.any() and not rep.X_L_hat.any()


@pytest.mark.parametrize("amplitude", [1e-8, 1e8])
def test_extreme_amplitudes_finish_with_finite_outputs(amplitude):
    # With a small cap a solve may stop short, but it must say so and keep
    # its outputs finite.
    Y = amplitude * RandomStream(probe_seed("amplitude")).gaussian(6, 6)
    for rep in degenerate_solves(Y, max_iter=5):
        assert rep.iterations <= 5
        assert rep.converged or rep.iterations == 5
        assert_finite_report(rep, Y.shape)


def test_constrained_relaxed_residual_caps():
    _, _, _, ev1, est, _, rep = relaxed_run()
    assert rep.converged
    assert rep.residual_v1 <= ev1 * (1.0 + 1e-6)
    assert rep.residual_star <= est * (1.0 + 1e-6)


def test_constrained_relaxed_error_bound():
    t, prof, lam, ev1, est, _, rep = relaxed_run()
    bound = bound_theorem2(prof, 2.0, lam, ev1, est)
    dS = entrywise_norm(rep.X_S_hat - t.X_S, 1)
    dL = entrywise_norm(rep.X_L_hat - t.X_L, 1)
    assert max(dS, dL) <= bound * (1.0 + 1e-6)


def test_constrained_relaxed_report_consistent():
    _, _, lam, _, _, Y, rep = relaxed_run()
    assert rep.diagnostics["primal_residual"] <= 4e-6
    assert rep.diagnostics["dual_residual"] <= 4e-6
    R = rep.X_S_hat + rep.X_L_hat - Y
    assert abs(rep.residual_v1 - entrywise_norm(R, 1)) <= 1e-12
    assert abs(rep.residual_star - trace_norm(R)) <= 1e-12
    assert abs(rep.residual_v2 - entrywise_norm(R, 2)) <= 1e-12
    assert rep.objective <= lam * entrywise_norm(Y, 1) * (1.0 + 1e-9)


def test_constrained_relaxed_iteration_cap_returns_unconverged():
    # Three sweeps cannot reach the caps; the solve must report that rather
    # than fail.
    _, _, lam, ev1, est, Y, _ = relaxed_run()
    rep = solve_constrained(
        Y, ConstrainedConfig(lam=lam, eps_v1=ev1, eps_star=est, max_iter=3)
    )
    assert not rep.converged and rep.iterations == 3
    assert np.isfinite(rep.X_S_hat).all() and np.isfinite(rep.X_L_hat).all()
    assert math.isfinite(rep.objective)


@functools.lru_cache(maxsize=1)
def box_instance():
    """A 30x30 rank-2 instance with +-10 spikes whose unboxed solution has
    entries of X_L above 4, and that unboxed solution."""
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=2, ktilde=30, seed=5))
    lam = 1.0 / math.sqrt(30)
    free = solve_constrained(inst.Y, ConstrainedConfig(lam=lam, tol=1e-6))
    assert free.converged
    return inst.Y, lam, free


def test_constrained_binding_box_on_lowrank():
    Y, lam, free = box_instance()
    b = 3.0
    assert entrywise_norm(free.X_L_hat, np.inf) > b
    rep = solve_constrained(Y, ConstrainedConfig(lam=lam, b=b, tol=1e-6))
    assert rep.converged
    assert entrywise_norm(rep.X_L_hat, np.inf) <= b
    assert rep.residual_v2 <= 1e-5
    # Clipping the free solution's X_L and giving the rest to X_S is
    # feasible, so the boxed optimum cannot be worse.
    L_clip = np.clip(free.X_L_hat, -b, b)
    clipped = lam * entrywise_norm(Y - L_clip, 1) + trace_norm(L_clip)
    assert rep.objective <= clipped


def test_constrained_slack_box_matches_unboxed():
    Y, lam, free = box_instance()
    rep = solve_constrained(Y, ConstrainedConfig(lam=lam, b=10.0, tol=1e-6))
    assert rep.converged
    assert entrywise_norm(rep.X_S_hat - free.X_S_hat, np.inf) <= 1e-6
    assert entrywise_norm(rep.X_L_hat - free.X_L_hat, np.inf) <= 1e-6


def test_solvers_validate_input_once(monkeypatch):
    # Validation runs at the public entry, not in the ADMM loop: the number
    # of as_matrix calls must not grow with the number of sweeps.
    real = splr.matrices.as_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for mod in (splr.matrices, splr.norms, splr.prox, splr.solvers):
        monkeypatch.setattr(mod, "as_matrix", counting)
    t, _ = flat_instance(12, 12, 1, 6, 10.0, probe_seed("validate"))
    Y = t.X_S + t.X_L
    E = 0.1 * RandomStream(probe_seed("validateE")).gaussian(12, 12)
    solves = (
        lambda k: solve_constrained(Y, ConstrainedConfig(lam=0.3, tol=0.0, max_iter=k)),
        lambda k: solve_constrained(Y + E, ConstrainedConfig(
            lam=0.3, eps_v1=entrywise_norm(E, 1), eps_star=trace_norm(E),
            b=2.0, tol=0.0, max_iter=k)),
        lambda k: solve_regularized(Y, RegularizedConfig(
            lam=0.3, mu=0.5, b=2.0, tol=0.0, max_iter=k)),
    )
    for solve in solves:
        counts = []
        for k in (3, 30):
            calls.clear()
            assert solve(k).iterations == k
            counts.append(len(calls))
        assert counts[0] == counts[1]


def test_solvers_deterministic():
    t, _ = flat_instance(14, 14, 1, 7, 10.0, probe_seed("det"))
    Y = t.X_S + t.X_L
    a = solve_regularized(Y, RegularizedConfig(lam=0.3, mu=0.4))
    b = solve_regularized(Y, RegularizedConfig(lam=0.3, mu=0.4))
    assert np.array_equal(a.X_S_hat, b.X_S_hat)
    assert np.array_equal(a.X_L_hat, b.X_L_hat)
    assert a.objective == b.objective and a.iterations == b.iterations

    cfg = ConstrainedConfig(lam=0.3, max_iter=40)
    c = solve_constrained(Y, cfg)
    d = solve_constrained(Y, ConstrainedConfig(lam=0.3, max_iter=40))
    assert np.array_equal(c.X_S_hat, d.X_S_hat)
    assert np.array_equal(c.X_L_hat, d.X_L_hat)
    assert c.diagnostics == d.diagnostics

    E = 0.1 * RandomStream(probe_seed("detE")).gaussian(14, 14)
    cfg_r = dict(lam=0.3, eps_v1=entrywise_norm(E, 1), eps_star=trace_norm(E),
                 max_iter=25)
    e = solve_constrained(Y + E, ConstrainedConfig(**cfg_r))
    f = solve_constrained(Y + E, ConstrainedConfig(**cfg_r))
    assert np.array_equal(e.X_S_hat, f.X_S_hat)
    assert np.array_equal(e.X_L_hat, f.X_L_hat)


def test_regularized_noisy_run_respects_error_bounds():
    t, E = flat_instance(60, 60, 1, 30, 10.0, probe_seed("slv60"), 1e-3)
    prof = profile(t)
    ie2, iev, istar = perturbation_scales(t.space, E)
    lam, mu = simplified_parameters(prof, "regularized", eps_2to2=ie2, eps_vinf=iev)
    Y = t.X_S + t.X_L + E
    rep = solve_regularized(Y, RegularizedConfig(lam=lam, mu=mu))
    assert rep.converged
    b_v1, b_v2, b_star = bound_theorem3(
        prof, 2.0, lam, mu, ie2, iev, istar, prof.kbar, prof.rbar
    )
    dS = rep.X_S_hat - t.X_S
    dL = rep.X_L_hat - t.X_L
    assert entrywise_norm(dS, 1) <= b_v1 * (1.0 + 1e-6)
    assert entrywise_norm(dS, 2) <= b_v2 * (1.0 + 1e-6)
    assert trace_norm(dL) <= b_star * (1.0 + 1e-6)


def test_recovery_errors_match_direct_norms():
    t, _ = flat_instance(10, 10, 1, 5, 10.0, probe_seed("recerr"))
    Y = t.X_S + t.X_L
    rep = solve_constrained(Y, ConstrainedConfig(lam=0.3, max_iter=20))
    errs = recovery_errors(rep, t)
    dS = rep.X_S_hat - t.X_S
    dL = rep.X_L_hat - t.X_L
    assert errs["sparse_v1"] == entrywise_norm(dS, 1)
    assert errs["sparse_v2"] == entrywise_norm(dS, 2)
    assert errs["sparse_trace"] == trace_norm(dS)
    assert errs["lowrank_v1"] == entrywise_norm(dL, 1)
    assert errs["lowrank_v2"] == entrywise_norm(dL, 2)
    assert errs["lowrank_trace"] == trace_norm(dL)


def test_error_bound_constrained_hand_values():
    # No perturbation: exact recovery, zero bound.
    prof = make_profile(1, 1, 0.1, 0.1, 0.05, 0.02)
    assert bound_theorem2(prof, 2.0, 0.5, 0.0, 0.0) == 0.0
    # Zero geometry product: coefficients 5 on eps_v1 and 4 on eps_star/lam.
    flatp = make_profile(1, 1, 0.0, 0.0, 0.0, 0.0)
    got = bound_theorem2(flatp, 2.0, 1.0, 0.3, 0.7)
    assert got == pytest.approx(5.0 * 0.3 + 4.0 * 0.7, rel=1e-12)
    # Product one-half: the ratio becomes 3, giving coefficients 7 and 6.
    halfp = make_profile(1, 1, 0.2, 0.2, 0.1, 0.0)
    assert halfp.product == pytest.approx(0.5, rel=1e-12)
    got = bound_theorem2(halfp, 2.0, 2.0, 1.0, 1.0)
    assert got == pytest.approx(7.0 * 1.0 + 6.0 * 1.0 / 2.0, rel=1e-12)
    # Degenerate geometry and bad parameters are rejected.
    badp = make_profile(2, 2, 0.5, 0.5, 0.5, 0.1)
    with pytest.raises(PreconditionError):
        bound_theorem2(badp, 2.0, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        bound_theorem2(flatp, 1.0, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        bound_theorem2(flatp, 2.0, 0.0, 0.1, 0.1)


def test_error_bound_regularized_hand_formula():
    # Independent recomputation of all three bounds in the zero-noise-scale
    # case, where the two-term rank-growth sum has a short closed form.
    a, b, u, v, w, gamma = 1, 1, 0.10, 0.10, 0.05, 0.02
    kbar, rbar = 10, 2
    prof = make_profile(a, b, u, v, w, gamma, kbar=kbar, rbar=rbar)
    lam, mu, c = 0.2, 0.013, 2.0
    alpha = prof.alpha_star
    ab = prof.product
    geo = 1.0 / (1.0 - ab)
    core = lam + gamma
    growth = lam * (2.0 * kbar * geo) * core \
        + 2.0 * rbar * (2.0 * alpha * geo * core + 1.0)
    share = 1.0 / (1.0 - 1.0 / c)
    want_v1 = geo * (growth * share * mu / lam + lam * kbar * mu
                     + 2.0 * math.sqrt(kbar * rbar) * mu)
    want_star = math.sqrt(2.0 * rbar) * want_v1 \
        + (growth * share / 2.0 + 2.0 * rbar) * mu
    got_v1, got_v2, got_star = bound_theorem3(
        prof, c, lam, mu, 0.0, 0.0, 0.0, kbar, rbar
    )
    assert got_v1 == pytest.approx(want_v1, rel=1e-12)
    assert got_v2 == got_v1
    assert got_star == pytest.approx(want_star, rel=1e-12)
    # A binding box switches the v2 value to the geometric-mean rule.
    box = 1e-4
    _, got_v2_box, _ = bound_theorem3(
        prof, c, lam, mu, 0.0, 0.0, 0.0, kbar, rbar, b=box
    )
    assert got_v2_box == pytest.approx(math.sqrt(2.0 * box * want_v1), rel=1e-12)


def test_error_bound_regularized_limits():
    prof = make_profile(1, 1, 0.1, 0.1, 0.05, 0.02, kbar=5, rbar=1)
    # Exact-recovery limit: no noise scales and vanishing mu.
    assert bound_theorem3(prof, 2.0, 0.3, 0.0, 0.0, 0.0, 0.0, 5, 1) == (0.0, 0.0, 0.0)
    # With zero noise scales every term carries a factor of mu.
    hi = bound_theorem3(prof, 2.0, 0.3, 1e-3, 0.0, 0.0, 0.0, 5, 1)
    lo = bound_theorem3(prof, 2.0, 0.3, 1e-6, 0.0, 0.0, 0.0, 5, 1)
    for big, small in zip(hi, lo):
        assert big == pytest.approx(1000.0 * small, rel=1e-9)
    with pytest.raises(ValueError):
        bound_theorem3(prof, 2.0, 0.3, 0.0, 0.1, 0.0, 0.0, 5, 1)
    badp = make_profile(2, 2, 0.5, 0.5, 0.5, 0.1)
    with pytest.raises(PreconditionError):
        bound_theorem3(badp, 2.0, 0.3, 1e-3, 0.0, 0.0, 0.0, 5, 1)
    with pytest.raises(ValueError):
        bound_theorem3(prof, 1.0, 0.3, 1e-3, 0.0, 0.0, 0.0, 5, 1)
