import dataclasses
import functools
import math
import tracemalloc
import warnings

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
from splr.cli import main as cli_main
from splr.matrices import RandomStream, mix_seed
from splr.matrixio import write_matrix_csv
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
from splr.sweep import SOLVER_TOL, _non_recovery_test
from splr.synth import InstanceSpec, gen_instance

from .helpers import flat_instance, probe_seed
from .test_incoherence import make_profile


def regularized_objective(Y, X_S, X_L, lam, mu):
    R = X_S + X_L - Y
    return (0.5 / mu) * float((R ** 2).sum()) + lam * entrywise_norm(X_S, 1) \
        + trace_norm(X_L)


def brute_force_gap(Y, rep, cfg):
    """The relative duality gap (P - d)/P at the solve's output, recomputed
    from a dense SVD's sigma_1 and the box conjugate entry by entry: with
    R = X_S + X_L - Y, the dual point -R/mu scaled into the spectral ball,
    and into the l1 ball when there is no box."""
    lam, mu, b = cfg.lam, cfg.mu, cfg.b
    R = rep.X_S_hat + rep.X_L_hat - Y
    Q = -R / mu
    primal = regularized_objective(Y, rep.X_S_hat, rep.X_L_hat, lam, mu)
    scale = max(1.0, np.linalg.svd(Q, compute_uv=False)[0])
    if math.isinf(b):
        scale = max(scale, np.abs(Q).max() / lam)
    Q = Q / scale
    conjugate = 0.0
    if not math.isinf(b):
        for q, y in zip(Q.ravel(), Y.ravel()):
            conjugate += max(q * s - lam * abs(s)
                             for s in (y - b, y + b, min(max(0.0, y - b), y + b)))
    dual = float((Q * Y).sum()) - 0.5 * mu * float((Q ** 2).sum()) - conjugate
    return (primal - dual) / primal if primal else primal - dual


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


def test_regularized_zero_input_exits_at_first_sweep():
    # At Y = 0 the first sweep lands on the origin, where P = 0 = d.
    Y = np.zeros((6, 5))
    cfg = RegularizedConfig(lam=1.0, mu=1.0)
    rep = solve_regularized(Y, cfg)
    assert rep.converged and rep.iterations == 1
    assert rep.objective == 0.0 and rep.diagnostics["duality_gap"] == 0.0
    assert brute_force_gap(Y, rep, cfg) == 0.0


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
    # The start penalty mn/(4*||Y||_1) thresholds below sigma_1(Y) on the
    # first sweep; the second sweep lands on the origin.
    assert rep.converged and rep.iterations == 2


def test_regularized_subnormal_input_keeps_origin():
    # mn/(4*||Y||_1) overflows for subnormal entries; the solve must start
    # at 1 instead of at an infinite penalty (which would give NaN centres).
    Y = 1e-310 * RandomStream(probe_seed("subnormal")).gaussian(6, 6)
    rep = solve_regularized(Y, RegularizedConfig(lam=0.35, mu=0.5))
    assert rep.converged
    assert not rep.X_S_hat.any() and not rep.X_L_hat.any()


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
    cfg = RegularizedConfig(lam=0.25, mu=0.2)
    rep = solve_regularized(Y, cfg)
    assert rep.converged
    gap = brute_force_gap(Y, rep, cfg)
    assert gap <= cfg.tol
    assert gap == pytest.approx(rep.diagnostics["duality_gap"], abs=1e-12)
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
    """The box-active instance above solved at box radius b: Y, the config
    and report, the count of entries of X_S on the box edge and the box
    excess."""
    t, _ = flat_instance(12, 12, 1, 8, 10.0, probe_seed("boxreg"))
    Y = t.X_S + t.X_L
    cfg = RegularizedConfig(lam=0.3, mu=0.5, b=b)
    rep = solve_regularized(Y, cfg)
    dist = np.abs(rep.X_S_hat - Y)
    return Y, cfg, rep, int((dist >= b - 1e-9).sum()), float(dist.max()) - b


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_regularized_box_exits_on_optimality_residual(b):
    # b = 0.5 puts 140 of the 144 entries of X_S on the box edge, b = 2.0
    # only a few. The dual's box term is the exact conjugate there, so the
    # gap closes with the solve, and the gap without the spectral term
    # passes at most a sweep or two before the certified one: sigma_1 runs
    # at most twice.
    Y, cfg, rep, edge, excess = box_run(b)
    assert (edge > 100) if b == 0.5 else (0 < edge < 20)
    assert rep.converged
    gap = brute_force_gap(Y, rep, cfg)
    assert gap <= cfg.tol
    assert gap == pytest.approx(rep.diagnostics["duality_gap"], abs=1e-12)
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


def test_regularized_iterations_scale_free():
    # The start penalty mn/(4*||Y||_1) and the rebalancing on eta0*pri
    # against dua both scale as 1/Y, so (cY, c*mu) takes as many sweeps as
    # (Y, mu). A fixed start of 1 takes more sweeps the further c is from 1.
    t, E = flat_instance(16, 16, 1, 8, 10.0, probe_seed("scalecov"), 0.1)
    cases = (
        (t.X_S + t.X_L + E, 0.3, 0.5, 1e-8),
        (RandomStream(1).gaussian(8, 8), 0.35, 0.3, 1e-6),
    )
    for Y, lam, mu, tol in cases:
        counts = set()
        for c in (1.0, 1e-6, 1e-3, 1e3, 1e6):
            rep = solve_regularized(
                c * Y, RegularizedConfig(lam=lam, mu=mu * c, tol=tol, max_iter=1000)
            )
            assert rep.converged, c
            counts.add(rep.iterations)
        assert len(counts) == 1, counts


def overflow_l1_instance():
    """A 120 x 120 Y, and the scale 1e304 at which 4 * ||Y||_1 overflows
    while ||Y||_1 does not."""
    return gen_instance(InstanceSpec(m=120, n=120, rbar=3, ktilde=300, seed=4)).Y, 1e304


def test_regularized_start_penalty_when_4_l1_overflows():
    # mn/(4*||Y||_1) is taken on Y scaled by a power of two, so it stays
    # positive and finite where 4*||Y||_1 overflows (120 x 120 at 1e304)
    # and where ||Y||_1 itself does (6 x 6 near 1e307, which at a start
    # penalty of 1 never rebalances: pri = dua = 0 from the first sweep).
    # The solve keeps its scale-free sweep count.
    near_max = 1.0 + 0.1 * RandomStream(1).gaussian(6, 6)
    for (Y, c), lam, mu in ((overflow_l1_instance(), 1.0 / math.sqrt(120), 0.2),
                            ((near_max, 1e307), 1.0 / math.sqrt(6), 1.0)):
        assert math.isinf(4.0 * entrywise_norm(c * Y, 1))
        reps = [solve_regularized(k * Y, RegularizedConfig(lam=lam, mu=mu * k))
                for k in (1.0, c)]
        assert all(rep.converged for rep in reps)
        assert reps[0].iterations == reps[1].iterations


@pytest.mark.parametrize("b", [math.inf, 1.0])
def test_regularized_solve_is_scale_equivariant_to_the_bit(b):
    # The solve runs on 2^-e*Y with mu and b scaled alike (see
    # solvers._admm), so (2^k*Y, 2^k*mu, 2^k*b) runs the same frame bit for
    # bit as (Y, mu, b): its outputs are exactly 2^k times theirs, its
    # penalties 2^-k times, in as many sweeps.
    t, E = flat_instance(16, 16, 1, 8, 10.0, probe_seed("scalecov"), 0.1)
    Y = t.X_S + t.X_L + E
    base = solve_regularized(Y, RegularizedConfig(lam=0.3, mu=0.5, b=b, tol=1e-8))
    assert base.converged
    for k in (-40, 7, 40):
        c = 2.0 ** k
        rep = solve_regularized(c * Y, RegularizedConfig(lam=0.3, mu=0.5 * c, b=b * c,
                                                         tol=1e-8))
        assert rep.converged and rep.iterations == base.iterations
        assert np.array_equal(rep.X_S_hat, c * base.X_S_hat)
        assert np.array_equal(rep.X_L_hat, c * base.X_L_hat)
        for name in ("objective", "residual_v1", "residual_star", "residual_v2"):
            assert getattr(rep, name) == c * getattr(base, name), name
        d, d0 = rep.diagnostics, base.diagnostics
        assert d["primal_residual"] == c * d0["primal_residual"]
        assert d["penalty_final"] == [p / c for p in d0["penalty_final"]]
        for key in ("dual_residual", "duality_gap", "penalty_rescalings", "spectral_checks"):
            assert d[key] == d0[key], key


@pytest.mark.parametrize("c", [3e307, 5e307, 1e308])
def test_regularized_solve_near_the_float_max(c):
    # When the loop ran on Y as given, this 6 x 6 input overflowed on the
    # first sweep and raised FactorizationError, for mu = 1 and mu = c. On
    # 2^-e*Y nothing overflows: with mu = c the solve converges in the
    # sweeps it takes at c = 1, and with mu = 1, not scaled with Y, it stays
    # unconverged at its cap with finite outputs.
    B = 1.0 + 0.1 * RandomStream(1).gaussian(6, 6)
    B /= np.abs(B).max()
    lam = 1.0 / math.sqrt(6)
    ref = solve_regularized(B, RegularizedConfig(lam=lam, mu=1.0))
    rep = solve_regularized(c * B, RegularizedConfig(lam=lam, mu=c))
    assert ref.converged and rep.converged and rep.iterations == ref.iterations
    capped = solve_regularized(c * B, RegularizedConfig(lam=lam, mu=1.0, max_iter=300))
    assert not capped.converged and capped.iterations == 300
    for r in (rep, capped):
        assert np.all(np.isfinite(r.X_S_hat)) and np.all(np.isfinite(r.X_L_hat))


@pytest.mark.parametrize("mu, b", [(1.0, 2.0), (1e-3, math.inf), (1e-3, 2.0)])
def test_penalized_gap_near_the_float_max(mu, b):
    # At max|Y| = 1e308 the frame's mu is below 2^-1024, so 1/mu is past
    # the float range. The dual point -R/mu was formed as inf*R, NaN where
    # R = 0 (and a warning inside the box's conjugate), and the data term
    # ||R||^2/(2 mu) as inf*||R||*||R||, inf or NaN: the gap read NaN. A box
    # of radius 2 pins X_S to Y at this scale, which the gap certifies.
    B = 1.0 + 0.1 * RandomStream(1).gaussian(6, 6)
    B /= np.abs(B).max()
    cfg = RegularizedConfig(lam=1.0 / math.sqrt(6), mu=mu, b=b, max_iter=200)
    rep = solve_regularized(1e308 * B, cfg)
    assert not math.isnan(rep.diagnostics["duality_gap"])
    assert not math.isnan(rep.objective)
    assert rep.converged == (b < math.inf)


@pytest.mark.parametrize("mu, tol", [(1e-310, 1e-6), (3e-320, 1e-6), (3e-320, math.inf)])
def test_boxed_gap_with_mu_far_below_the_data(mu, tol):
    # The box's conjugate is evaluated at the dual point -R/mu, which is
    # past the float range here: at its candidate S = 0 it formed inf*0,
    # which warned (an error in this suite) and read a NaN gap. That gap
    # certifies nothing: it reads inf, and the solve ends unconverged. At
    # 3e-320 every sweep's gap reads inf, which not even tol = inf takes.
    B = 1.0 + 0.1 * RandomStream(1).gaussian(6, 6)
    B /= np.abs(B).max()
    cfg = RegularizedConfig(lam=1.0 / math.sqrt(6), mu=mu, b=2.0, tol=tol, max_iter=200)
    rep = solve_regularized(B, cfg)
    assert not math.isnan(rep.diagnostics["duality_gap"])
    assert not rep.converged and rep.iterations == 200


def vanishing_mu_input():
    # max|Y| = 3 puts the solve in the frame 2^-2*Y, where mu = 5e-324
    # rounds to 0: the data term divided by zero.
    Y = np.ones((3, 3))
    Y[0, 0] = 3.0
    return Y, 0.5, 5e-324


def test_mu_that_rounds_to_zero_in_the_frame_is_refused():
    Y, lam, mu = vanishing_mu_input()
    with pytest.raises(ValueError, match="^mu"):
        solve_regularized(Y, RegularizedConfig(lam=lam, mu=mu))
    # At 4*mu the frame's mu is the least subnormal, and mu*lam, which the
    # l-inf scale divided by, rounds to 0: that raised ZeroDivisionError.
    # The data term overflows, and a gap over an infinite P reads inf.
    rep = solve_regularized(Y, RegularizedConfig(lam=lam, mu=4 * mu, max_iter=20))
    assert rep.objective == math.inf and rep.diagnostics["duality_gap"] == math.inf


def test_decompose_refuses_mu_that_rounds_to_zero(tmp_path, capsys):
    Y, lam, mu = vanishing_mu_input()
    write_matrix_csv(tmp_path / "Y.csv", Y)
    outputs = [tmp_path / name for name in ("xs.csv", "xl.csv", "report.json")]
    argv = ["decompose", "--input", tmp_path / "Y.csv", "--mode", "regularized",
            "--lambda", lam, "--mu", mu, "--out-sparse", outputs[0],
            "--out-lowrank", outputs[1], "--report", outputs[2]]
    assert cli_main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mu") and "Traceback" not in err
    assert not any(path.exists() for path in outputs)


def test_regularized_report_at_tiny_scales():
    # At c = 1e-200 the residuals' sums of squares are subnormal or 0: the
    # norms must rescale rather than read 0, or the penalty is never
    # rebalanced (102 sweeps, no rescaling) and the objective loses its
    # data term.
    Y, _ = overflow_l1_instance()
    lam = 1.0 / math.sqrt(120)
    ref = solve_regularized(Y, RegularizedConfig(lam=lam, mu=0.2))
    assert ref.converged
    for c in (1e-150, 1e-200):
        rep = solve_regularized(c * Y, RegularizedConfig(lam=lam, mu=0.2 * c))
        assert rep.converged and rep.iterations == ref.iterations
        assert (rep.diagnostics["penalty_rescalings"]
                == ref.diagnostics["penalty_rescalings"])
        assert math.isclose(rep.residual_v2 / c, ref.residual_v2, rel_tol=1e-12)
        assert math.isclose(rep.objective / c, ref.objective, rel_tol=1e-12)


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


def test_configs_are_frozen_and_recheck_on_replace():
    for cfg in (RegularizedConfig(lam=1.0, mu=1.0), ConstrainedConfig(lam=1.0)):
        assert not hasattr(cfg, "validate")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lam = -1.0
        assert dataclasses.replace(cfg, tol=0.5).tol == 0.5


# Factories, not configs: an invalid config cannot be built at collection.
@pytest.mark.parametrize("make", [lambda: RegularizedConfig(lam=math.inf, mu=1.0),
                                  lambda: RegularizedConfig(lam=1.0, mu=math.inf),
                                  lambda: ConstrainedConfig(lam=math.inf)],
                         ids=["RegularizedConfig-lam", "RegularizedConfig-mu",
                              "ConstrainedConfig-lam"])
def test_config_validation_rejects_infinite_lam_and_mu(make):
    with pytest.raises(ValueError, match=r"^(lam|mu) must lie in \(0, inf\), got inf$"):
        make()


@pytest.mark.parametrize("max_iter", [math.inf, 2.5, 2.0])
@pytest.mark.parametrize("make", [lambda k: RegularizedConfig(lam=1.0, mu=1.0, max_iter=k),
                                  lambda k: ConstrainedConfig(lam=1.0, max_iter=k)],
                         ids=["RegularizedConfig", "ConstrainedConfig"])
def test_config_validation_rejects_non_integer_max_iter(make, max_iter):
    # A float count, even a whole one, fails when the config is built rather
    # than as a TypeError from range() inside the solve.
    with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
        make(max_iter)
    assert make(2).max_iter == 2


NAN_CASES = [
    (make, f.name)
    for make in (lambda: RegularizedConfig(lam=1.0, mu=1.0),
                 lambda: ConstrainedConfig(lam=1.0, eps_v1=1.0, eps_star=1.0))
    for f in dataclasses.fields(make()) if f.type in (float, "float", int, "int")
]
NAN_MESSAGES = {
    "lam": r"^lam must lie in \(0, inf\), got nan$", "mu": r"^mu must lie in \(0, inf\), got nan$",
    "b": r"^b must lie in \(0, inf\], got nan$", "tol": r"^tol must lie in \[0, inf\], got nan$",
    "max_iter": "^max_iter must be an integer of at least 1, got nan$",
    "eps_v1": r"^eps_v1 must lie in \[0, inf\], got nan$",
    "eps_star": r"^eps_star must lie in \[0, inf\], got nan$",
}


@pytest.mark.parametrize("make, name", NAN_CASES,
                         ids=[f"{type(m()).__name__}-{n}" for m, n in NAN_CASES])
def test_config_validation_rejects_nan(make, name):
    cfg = make()
    with pytest.raises(ValueError, match=NAN_MESSAGES[name]):
        dataclasses.replace(cfg, **{name: math.nan})
    with pytest.raises(ValueError, match=NAN_MESSAGES[name]):
        type(cfg)(**{**dataclasses.asdict(cfg), name: math.nan})


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


DEGENERATE_SHAPES = [(1, 1), (1, 5), (5, 1), (4, 3), (3, 7)]
DEGENERATE_SCALES = [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]


def degenerate_matrix_cells(shape, c):
    """The zero, rank-1 and Gaussian Y of one (shape, scale) cell, each with
    its four configs: exact and relaxed splits, a boxed exact split and the
    penalized program."""
    m, n = shape
    stream = RandomStream(probe_seed(f"degenerate-matrix-{m}x{n}"))
    lam = 1.0 / math.sqrt(max(m, n))
    for Y in (np.zeros(shape), c * np.outer(stream.gaussian(m, 1), stream.gaussian(1, n)),
              c * stream.gaussian(m, n)):
        caps = {"eps_v1": 0.1 * entrywise_norm(Y, 1), "eps_star": 0.1 * trace_norm(Y)}
        yield Y, [ConstrainedConfig(lam=lam, max_iter=100),
                  ConstrainedConfig(lam=lam, max_iter=100, **caps),
                  ConstrainedConfig(lam=lam, b=0.5 * c, max_iter=100),
                  RegularizedConfig(lam=lam, mu=0.1 * c, max_iter=100)]


@pytest.mark.parametrize("c", DEGENERATE_SCALES)
def test_degenerate_matrix_solves_or_stops_with_finite_report(c):
    # Every (shape, scale, Y, mode) cell either converges with a finite
    # report and a certified gap, or stops unconverged at the cap with a
    # finite report. Convergence at far scales is not asserted: the
    # constrained solver's sweeps still depend on the scale of Y, and many
    # of its far-scale cells end at the cap.
    for shape in DEGENERATE_SHAPES:
        for Y, configs in degenerate_matrix_cells(shape, c):
            for cfg in configs:
                solve = solve_regularized if isinstance(cfg, RegularizedConfig) else solve_constrained
                rep = solve(Y, cfg)
                assert_finite_report(rep, shape)
                assert math.isfinite(rep.residual_v1) and math.isfinite(rep.residual_star)
                if rep.converged:
                    assert rep.diagnostics["duality_gap"] <= cfg.tol
                else:
                    assert rep.iterations == cfg.max_iter


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


def test_slack_box_penalty_at_zero_does_not_end_the_solve():
    # A box that never binds has a primal residual of exactly 0, so its
    # penalty halves at every rescaling while X_L moves; at this scale it
    # reaches 0 at sweep 10,750. The box's centre weight is then 0, which
    # is harmless: the solve must run all its sweeps.
    Y, lam, _ = box_instance()
    rep = solve_constrained(1e8 * Y, ConstrainedConfig(lam=lam, b=1e9, tol=0.0,
                                                       max_iter=11000))
    assert rep.iterations == 11000
    assert rep.diagnostics["penalty_final"][-1] == 0.0
    assert_finite_report(rep, Y.shape)


def test_constrained_binding_tight_box_iteration_ceiling():
    # At b = 1 the box binds. With its own penalty, rebalanced on its own
    # residuals, the box takes 6,401 sweeps, still far from the unboxed 47.
    Y, lam, _ = box_instance()
    rep = solve_constrained(Y, ConstrainedConfig(lam=lam, b=1.0, tol=1e-6))
    assert rep.converged and rep.iterations <= 6800
    assert entrywise_norm(rep.X_L_hat, np.inf) <= 1.0
    assert rep.residual_v2 <= 1e-5


def test_constrained_relaxed_iteration_ceiling():
    # A noisy instance with both residual caps. With one penalty per ball,
    # each rebalanced on its own ball's residuals, it takes 433 sweeps.
    inst = gen_instance(InstanceSpec(m=20, n=20, rbar=2, ktilde=20, sigma=0.01,
                                     seed=100))
    ev1, est = entrywise_norm(inst.E, 1), trace_norm(inst.E)
    rep = solve_constrained(inst.Y, ConstrainedConfig(
        lam=1.0 / math.sqrt(20), eps_v1=ev1, eps_star=est, tol=1e-4))
    assert rep.converged and rep.iterations <= 460
    assert rep.residual_v1 <= ev1 + 1e-3 and rep.residual_star <= est + 1e-3


def test_relaxed_balls_end_at_their_own_penalties():
    # The l1-ball and nuclear-ball blocks are rebalanced apart and end at
    # different penalties; penalty_rescalings counts both.
    inst = gen_instance(InstanceSpec(m=12, n=12, rbar=1, ktilde=10, sigma=0.01,
                                     seed=101))
    rep = solve_constrained(inst.Y, ConstrainedConfig(
        lam=1.0 / math.sqrt(12), eps_v1=entrywise_norm(inst.E, 1),
        eps_star=trace_norm(inst.E), tol=1e-4))
    assert rep.converged
    l1_ball, nuclear_ball = rep.diagnostics["penalty_final"]
    assert l1_ball != nuclear_ball
    assert rep.diagnostics["penalty_rescalings"] >= 2


def certified_objective(Y, rep, cfg):
    """lam*||S||_1 + ||L||_* at the feasible point that a constrained
    solve's duality gap certifies: L = X_L_hat and S = Y - L + rho*R, with
    R = X_S_hat + L - Y scaled by rho into both residual caps (rho = 0 for
    the exact split)."""
    L = rep.X_L_hat
    R = rep.X_S_hat + L - Y
    rho = 0.0
    if cfg.eps_v1 > 0 and cfg.eps_star > 0:
        rho = min(1.0, cfg.eps_v1 / entrywise_norm(R, 1), cfg.eps_star / trace_norm(R))
    return cfg.lam * entrywise_norm(Y - L + rho * R, 1) + trace_norm(L)


def gap_case(mode):
    """An exact split, a relaxed split and a split under a binding box."""
    if mode == "exact":
        t, lam, _ = exact_split_run()
        return t.X_S + t.X_L, ConstrainedConfig(lam=lam, tol=1e-9)
    if mode == "relaxed":
        _, _, lam, ev1, est, Y, _ = relaxed_run()
        return Y, ConstrainedConfig(lam=lam, eps_v1=ev1, eps_star=est, tol=4e-6)
    Y, lam, _ = box_instance()
    return Y, ConstrainedConfig(lam=lam, b=3.0, tol=1e-6)


@pytest.mark.parametrize("mode", ["exact", "relaxed", "box"])
def test_constrained_exit_certifies_the_objective(mode):
    # The reported relative gap is at most tol and, up to rounding, not
    # negative; and the certified point's objective lies within tol*P of
    # that of a solve to tol 1e-12.
    Y, cfg = gap_case(mode)
    rep = solve_constrained(Y, cfg)
    ref = solve_constrained(Y, dataclasses.replace(cfg, tol=1e-12))
    assert rep.converged and ref.converged
    assert -1e-12 <= rep.diagnostics["duality_gap"] <= cfg.tol
    assert rep.diagnostics["spectral_checks"] >= 1
    P = certified_objective(Y, rep, cfg)
    assert abs(P - certified_objective(Y, ref, cfg)) <= cfg.tol * P


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)], ids=["3x0", "0x3"])
def test_empty_input_exits_at_first_sweep(shape):
    # Every mode of both solvers lands on P = 0 = d at the first sweep.
    Y = np.zeros(shape)
    solves = [solve_regularized(Y, RegularizedConfig(lam=1.0, mu=1.0, b=b))
              for b in (math.inf, 1.0)]
    solves += [solve_constrained(Y, ConstrainedConfig(lam=1.0, **kw))
               for kw in ({}, {"eps_v1": 0.1, "eps_star": 0.1}, {"b": 1.0})]
    for rep in solves:
        assert rep.converged and rep.iterations == 1
        assert rep.X_S_hat.shape == rep.X_L_hat.shape == shape
        assert rep.objective == 0.0 and rep.diagnostics["duality_gap"] == 0.0


def test_relaxed_split_at_tiny_scale_returns():
    # Near sweep 10,350 the scaled duals outgrow the caps by 2**53, so a
    # cap falls below half an ulp of the values the balls project.
    Y = 1e-300 * np.array([[1.37, -0.665, 0.352, 0.903, 0.094, -0.743, -0.922]])
    rep = solve_constrained(Y, ConstrainedConfig(
        lam=1.0 / math.sqrt(7), eps_v1=7e-302, eps_star=7e-302, tol=1e-306,
        max_iter=20000))
    assert rep.iterations <= 20000
    assert_finite_report(rep, Y.shape)


def runaway_solve():
    Y = 1e-310 * np.array([[1.37, -0.665, 0.352, 0.903, 0.094, -0.743, -0.922]])
    return solve_constrained(Y, ConstrainedConfig(lam=1.0 / math.sqrt(7), tol=0.0,
                                                  max_iter=12000))


def test_runaway_penalty_ends_the_solve_unconverged():
    # On the data as given, this subnormal row drove the penalty to overflow
    # at sweep 10,240, where the runaway guard ended the solve. In the frame
    # 2^-e*Y (see solvers._admm) its data are normal, the penalty stays
    # finite and balances, and at tol 0 the solve runs to its 12,000 cap
    # unconverged, with a finite report and no NaN. Only in Y's units does
    # the final penalty, about 2^1028, read inf. No input has been found that
    # still reaches the guard, which stays for safety.
    rep = runaway_solve()
    assert not rep.converged and rep.iterations == 12000
    assert rep.diagnostics["penalty_final"] == [math.inf]
    assert_finite_report(rep, (1, 7))
    d = rep.diagnostics
    for value in (rep.residual_v1, rep.residual_star, d["primal_residual"],
                  d["dual_residual"], d["duality_gap"]):
        assert math.isfinite(value)


DIAGNOSTICS_KEYS = {
    "primal_residual", "dual_residual", "penalty_final", "penalty_rescalings",
    "partial_svds", "abandoned_at", "duality_gap", "spectral_checks",
}


def abandoned_solve():
    """The sweep's solve of the 30x30 rank-4 cell at density 0.2 (base seed
    1), which its non-recovery test abandons."""
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=4, ktilde=180,
                                     seed=mix_seed(1, 4, 0, 0)))
    lam = default_lambda((30, 30), inst.profile)
    cfg = ConstrainedConfig(lam=lam, tol=SOLVER_TOL, max_iter=1000)
    return splr.solvers._solve_constrained(inst.Y, cfg, _non_recovery_test(inst, lam))


def regularized_case(**kw):
    inst = gen_instance(InstanceSpec(m=12, n=12, rbar=1, ktilde=10, seed=7))
    return solve_regularized(inst.Y, RegularizedConfig(lam=1.0 / math.sqrt(12), mu=0.1, **kw))


def constrained_case(mode, **kw):
    Y, cfg = gap_case(mode)
    return solve_constrained(Y, dataclasses.replace(cfg, **kw))


@pytest.mark.parametrize("solve, exit_path, blocks", [
    (regularized_case, "converged", 1),
    (functools.partial(regularized_case, b=1.0), "converged", 1),
    (functools.partial(constrained_case, "exact"), "converged", 1),
    (functools.partial(constrained_case, "relaxed"), "converged", 2),
    (functools.partial(constrained_case, "box"), "converged", 2),
    (functools.partial(regularized_case, max_iter=1), "max_iter", 1),
    (functools.partial(constrained_case, "relaxed", max_iter=1), "max_iter", 2),
    (lambda: solve_regularized(np.zeros((3, 0)), RegularizedConfig(lam=1.0, mu=1.0)),
     "converged", 1),
    (lambda: solve_constrained(np.zeros((0, 3)), ConstrainedConfig(lam=1.0)), "converged", 1),
    (runaway_solve, "runaway", 1),
    (abandoned_solve, "abandoned", 1),
    (functools.partial(constrained_case, "relaxed", b=1.0), "converged", 3),
], ids=["regularized", "regularized-box", "exact", "relaxed", "box",
        "regularized-max-iter", "relaxed-max-iter", "empty-regularized",
        "empty-constrained", "runaway-penalty", "abandoned", "relaxed-box"])
def test_every_exit_reports_the_same_diagnostics(solve, exit_path, blocks):
    # One report, built in one place: every exit carries exactly these keys.
    rep = solve()
    diag = rep.diagnostics
    assert set(diag) == DIAGNOSTICS_KEYS
    assert rep.converged == (exit_path == "converged")
    assert (diag["abandoned_at"] is not None) == (exit_path == "abandoned")
    if exit_path == "max_iter":
        assert rep.iterations == 1
    if exit_path == "runaway":
        assert diag["penalty_final"] == [math.inf]
    # A certified exit has taken sigma_bar at least once.
    assert not rep.converged or diag["spectral_checks"] >= 1
    # One penalty per constraint block: the data fit, the exact split or
    # each residual ball, and the box on X_L.
    assert len(diag["penalty_final"]) == blocks


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
    for c, lam in ((1.0, 1.0), (math.nan, 1.0), (2.0, 0.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            bound_theorem2(flatp, c, lam, 0.1, 0.1)


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


def test_zero_factor_against_an_infinite_one_gives_0():
    # 1/mu overflows at mu = 5e-324, and a zero scale times that weight
    # read NaN (0*inf): the lambda window's upper end and all three bounds.
    prof = make_profile(1, 1, 0.1, 0.1, 0.05, 0.02, kbar=5, rbar=1)
    verdict = check_conditions(prof, "regularized", 2.0, 0.3, mu=5e-324, eps_vinf=1e-3)
    assert verdict.lambda_window == (math.inf, -math.inf)
    assert bound_theorem3(prof, 2.0, 0.3, 5e-324, 0.0, 1e-3, 0.0, 5, 1) == (math.inf,) * 3
    # An empty support (alpha = 0, kbar = 0) weights an infinite eps_vinf
    # by 0 in every term, so the bounds are those at eps_vinf = 0.
    empty = make_profile(0, 0, 0.1, 0.1, 0.05, 0.02, kbar=0, rbar=1)
    assert bound_theorem3(empty, 2.0, 0.3, 1e-3, 0.0, math.inf, 0.0, 0, 1) == \
        bound_theorem3(empty, 2.0, 0.3, 1e-3, 0.0, 0.0, 0.0, 0, 1)


@functools.lru_cache(maxsize=1)
def partial_instance():
    """A 160x160 rank-3 split with 2% corruptions: above the partial-SVD
    size rule, small enough for the suite."""
    inst = gen_instance(InstanceSpec(m=160, n=160, rbar=3, ktilde=512,
                                     seed=probe_seed("partial160")))
    return inst.Y, 1.0 / math.sqrt(160)


def partial_solve(mode, max_iter=100000):
    Y, lam = partial_instance()
    if mode == "constrained":
        return solve_constrained(Y, ConstrainedConfig(lam=lam, max_iter=max_iter))
    return solve_regularized(Y, RegularizedConfig(lam=lam, mu=0.2, max_iter=max_iter))


def decline_partial(monkeypatch):
    monkeypatch.setattr(splr.matrices, "_partial_svt", lambda M, t, V: None)


def assert_close_pair(rep, ref, rel):
    for a, b in ((rep.X_S_hat, ref.X_S_hat), (rep.X_L_hat, ref.X_L_hat)):
        assert np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


@pytest.mark.parametrize("mode", ["constrained", "regularized"])
def test_partial_svd_solve_matches_full_svd_solve(monkeypatch, mode):
    fast = partial_solve(mode)
    again = partial_solve(mode)
    decline_partial(monkeypatch)
    ref = partial_solve(mode)
    assert fast.converged and ref.converged
    assert fast.diagnostics["partial_svds"] > 0
    assert ref.diagnostics["partial_svds"] == 0
    assert fast.iterations <= ref.iterations + 2
    assert_close_pair(fast, ref, 1e-9)
    assert np.array_equal(fast.X_S_hat, again.X_S_hat)
    assert np.array_equal(fast.X_L_hat, again.X_L_hat)
    assert fast.iterations == again.iterations


def test_small_solve_takes_no_partial_svd():
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=2, ktilde=30, seed=5))
    rep = solve_constrained(inst.Y, ConstrainedConfig(lam=1.0 / math.sqrt(30)))
    assert rep.converged and rep.diagnostics["partial_svds"] == 0
    rep = solve_regularized(inst.Y, RegularizedConfig(lam=1.0 / math.sqrt(30), mu=0.2))
    assert rep.converged and rep.diagnostics["partial_svds"] == 0


def test_every_spectral_step_is_one_threshold_step(monkeypatch):
    # _admm and the nuclear-ball projection take every spectral step from
    # matrices._threshold_step: one per sweep in an exact split, two in a
    # relaxed one, whose nuclear-ball copy takes a step of its own.
    calls = []
    real = splr.matrices._threshold_step

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(splr.solvers, "_threshold_step", counting)
    monkeypatch.setattr(splr.prox, "_threshold_step", counting)
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=2, ktilde=30, seed=5))
    rep = solve_constrained(inst.Y, ConstrainedConfig(lam=1.0 / math.sqrt(30)))
    assert rep.converged and len(calls) == rep.iterations
    calls.clear()
    inst = gen_instance(InstanceSpec(m=20, n=20, rbar=2, ktilde=20, sigma=0.01,
                                     seed=probe_seed("stepcount")))
    cfg = ConstrainedConfig(lam=1.0 / math.sqrt(20), eps_v1=entrywise_norm(inst.E, 1),
                            eps_star=trace_norm(inst.E), tol=1e-4)
    rep = solve_constrained(inst.Y, cfg)
    assert len(calls) == 2 * rep.iterations
    assert sum(callable(t) for t in calls) == rep.iterations


def rotated(Q, scale, stream):
    """Q's columns moved by about scale and orthonormalized, signs kept."""
    Q2, R = np.linalg.qr(Q + scale * stream.gaussian(*Q.shape))
    return Q2 * np.sign(np.diag(R))


def perturb_partial(monkeypatch, kind):
    """Perturb the triplets of every accepted partial step: values times
    1 + 1e-7 ("inflated"), both singular blocks moved by about 1e-6
    ("rotated"), or the triplet of the smallest value above the threshold
    dropped ("dropped")."""
    real = splr.matrices._partial_svt
    stream = RandomStream(probe_seed("perturb", kind))

    def perturbed(M, t, V):
        out = real(M, t, V)
        if out is None:
            return None
        U, s, Vt = out
        if kind == "inflated":
            s = s * (1.0 + 1e-7)
        elif kind == "rotated":
            U, Vt = rotated(U, 1e-6, stream), rotated(Vt.T, 1e-6, stream).T
        else:
            keep = np.arange(s.size) != np.count_nonzero(s > t) - 1
            U, s, Vt = U[:, keep], s[keep], Vt[keep]
        return U, s, Vt

    monkeypatch.setattr(splr.matrices, "_partial_svt", perturbed)


def count_full_svds(monkeypatch, shape):
    """A list that gains an entry at every m x n SVD with vectors of the
    given shape."""
    real = splr.matrices._lapack_svd
    full = []

    def counting(A, compute_uv):
        if compute_uv and A.shape == shape:
            full.append(A.shape)
        return real(A, compute_uv)

    monkeypatch.setattr(splr.matrices, "_lapack_svd", counting)
    return full


@pytest.mark.parametrize("mode", ["constrained", "regularized"])
@pytest.mark.parametrize("kind", ["inflated", "rotated", "dropped"])
def test_perturbed_partial_steps_end_unconverged(monkeypatch, kind, mode):
    # Partial steps with wrong triplets leave a relative duality gap that no
    # sweep closes (inflated: about 4e-6 in both modes, though the
    # constrained solve's pri and dua fall below 1e-12). Each solve must
    # run to its cap on partial steps and say it did not converge; without
    # the perturbation they converge in 63 and 32 sweeps.
    perturb_partial(monkeypatch, kind)
    rep = partial_solve(mode, max_iter=100)
    assert not rep.converged and rep.iterations == 100
    assert rep.diagnostics["partial_svds"] == 100
    tol = (ConstrainedConfig if mode == "constrained" else RegularizedConfig).tol
    assert rep.diagnostics["duality_gap"] > tol


@pytest.mark.parametrize("mode", ["constrained", "regularized"])
def test_settled_exit_check_takes_no_second_full_svd(monkeypatch, mode):
    # Every sweep, the first one included, takes the partial path, and the
    # duality gap settles the stop on a partial step: the whole solve takes
    # no dense m x n SVD with vectors.
    Y, _ = partial_instance()
    full = count_full_svds(monkeypatch, Y.shape)
    rep = partial_solve(mode)
    assert rep.converged and len(full) == 0
    assert rep.diagnostics["partial_svds"] == rep.iterations
    tol = (ConstrainedConfig if mode == "constrained" else RegularizedConfig).tol
    assert rep.diagnostics["duality_gap"] <= tol


def test_declined_first_step_solve_matches_full_svd_solve(monkeypatch):
    # With noise of 0.3 and lambda = 2/sqrt(160), the first centre keeps
    # more values than the first step's 40-column block holds: the Ritz
    # test declines that step and the full SVD serves it. The solve then
    # falls to rank 3 on partial steps and lands on the full-path solution.
    Y, lam = partial_instance()
    Y = Y + 0.3 * RandomStream(probe_seed("noise160")).gaussian(*Y.shape)
    cfg = RegularizedConfig(lam=2.0 * lam, mu=10.0)
    real = splr.matrices._partial_svt
    accepted = []

    def recording(M, t, V):
        out = real(M, t, V)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(splr.matrices, "_partial_svt", recording)
    rep = solve_regularized(Y, cfg)
    decline_partial(monkeypatch)
    ref = solve_regularized(Y, cfg)
    assert rep.converged and ref.converged
    assert accepted[0] is False and all(accepted[1:])
    assert rep.diagnostics["partial_svds"] == len(accepted) - 1 > 0
    assert np.linalg.matrix_rank(rep.X_L_hat) == 3
    assert rep.iterations <= ref.iterations + 2
    assert_close_pair(rep, ref, 1e-9)


# Traced peaks of the two partial_instance() solves, in m x n float64
# arrays, as measured before the loop kept its work arrays across sweeps.
PEAK_ARRAYS_BEFORE = {"constrained": 10.50, "regularized": 14.45}


@pytest.mark.parametrize("mode", ["constrained", "regularized"])
def test_solve_peak_memory_does_not_grow(mode):
    # tracemalloc counts numpy's buffers and gives the same peak run to run.
    Y, _ = partial_instance()
    tracemalloc.start()
    try:
        partial_solve(mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (Y.size * 8) <= PEAK_ARRAYS_BEFORE[mode]


def test_regularized_finite_report_near_overflow():
    # At |Y| ~ 1e155 the plain sums of squares of the loop's residuals and
    # of the objective overflow; the report must still scale with Y.
    G = RandomStream(1).gaussian(6, 6)
    ref = solve_regularized(G, RegularizedConfig(lam=0.4, mu=0.5))
    assert ref.converged
    for c in (1e155, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_regularized(G * c, RegularizedConfig(lam=0.4, mu=0.5 * c))
        assert rep.converged and rep.iterations == ref.iterations
        assert math.isclose(rep.objective / c, ref.objective, rel_tol=1e-12)
        assert math.isclose(rep.residual_v2 / c, ref.residual_v2, rel_tol=1e-12)
