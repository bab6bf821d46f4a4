"""The validation rule at the public boundary, held by one table.

Each row names a numeric argument of a public callable and gives a call
of that callable, valid in every other argument, as a function of it; the
call's default is a valid value. The row is called with NaN, +inf, -inf,
-1 and 0, and with 1.5 and the whole float 2.0 when the argument is an
integer. A value the row does not accept must raise ValueError itself,
whose message matches the row's pattern for the argument, the anchored
message of its rule (real and integer below): PreconditionError (a
premise of the instance failed) or any other class is not the argument's
rule. A value the row accepts must return, with no
NaN in the result, and pass the row's check of the documented result.

A callable is public when splr exports it, a module lists it in __all__,
or it is certificate.perturbation_scales; so is each public method of a
public class. A numeric parameter of a public callable without a row
fails test_every_numeric_argument_has_a_row.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from dataclasses import dataclass

import numpy as np
import pytest

import splr
from splr.certificate import build_certificate, perturbation_scales
from splr.incoherence import (
    IncoherenceProfile,
    PreconditionError,
    check_conditions,
    default_lambda,
    inverse_mu,
    optimal_rho,
    profile,
    proposition1_bounds,
    simplified_parameters,
)
from splr.matrices import RandomStream, gaussian_matrix, mix_seed
from splr.matrixio import format_float
from splr.norms import entrywise_norm, flat_norm, sharp_norm
from splr.prox import (
    clip_entries,
    project_l1_ball,
    project_nuclear_ball,
    prox_l1_box,
    soft_threshold,
    svt,
)
from splr.solvers import ConstrainedConfig, RegularizedConfig, bound_theorem2, bound_theorem3
from splr.subspaces import SupportSet, TargetPair, neumann_inverse
from splr.sweep import SweepSpec, run_sweep, write_sweep_outputs
from splr.synth import InstanceSpec, gen_subspaces, gen_support

from .helpers import valid_instance

# Parameters that take no number: matrices, structures, configs, names,
# flags, paths and text.
NON_NUMERIC = {
    "self", "M", "A", "B", "V", "X", "Y", "E", "U", "RHS", "X_S", "X_L", "center",
    "cells", "target", "space", "support", "prof", "cfg", "report", "cert", "spec",
    "formulation", "which", "return_stats", "mode", "path", "out_path", "payload",
    "text", "rows", "argv", "magnitude_law",
}
# Result records: built by the library from checked values, not from input.
RECORDS = {"SolveReport", "DualCertificate", "IncoherenceProfile", "GeneratedInstance",
           "ConditionVerdict", "SvdFactors"}

REAL = (math.nan, math.inf, -math.inf, -1.0, 0.0)
INTEGER = (math.nan, math.inf, -math.inf, -1, 0, 1.5, 2.0)

T, E, LAM, MU = valid_instance(0, sigma=1e-3)
PROF = profile(T)
_E2, _EV, _ = perturbation_scales(T.space, E)
# Above the lambda window of (T, E), where build_certificate raises PreconditionError.
ABOVE = 2.0 * check_conditions(PROF, "regularized", 2.0, LAM, mu=MU, eps_2to2=_E2,
                               eps_vinf=_EV).lambda_window[1]
M = RandomStream(3).gaussian(4, 5)
RHS = RandomStream(4).gaussian(*T.shape)


def _spiked_profile():
    # 200 x 200, X_L = 50 u u^T with u flat, spikes of +-5 at (3, 7) and
    # (50, 90): alpha*gamma = 0.005 and alpha*beta = 0.015, inside the
    # regularized rule's premises, so simplified_parameters reaches its
    # scales.
    u = np.full(200, 200 ** -0.5)
    X_S = np.zeros((200, 200))
    X_S[3, 7], X_S[50, 90] = 5.0, -5.0
    return profile(TargetPair(X_S, 50.0 * np.outer(u, u)))


SPIKED = _spiked_profile()
TINY_SWEEP = SweepSpec(m=2, n=2, ranks=(0,), densities=(0.0,), trials=1, base_seed=0,
                       solver_max_iter=5)
INSTANCE = dict(m=5, n=4, rbar=1, ktilde=3, seed=0)
GRID = dict(m=8, n=8, ranks=(1,), densities=(0.1,), trials=1, base_seed=0)


def _same(a, b):
    return a == b or (a != a and b != b)


@dataclass(frozen=True)
class Row:
    """A numeric argument, param of func, and a call valid in every other
    argument (call() is valid as it stands). names is the pattern of the
    argument in a rejection; accepts, the probe values with a documented
    result, which check(value, result) tests when given. base_error is the
    documented error of the valid call, which an invalid value must
    displace; where tells apart two rows of one argument."""

    func: object
    param: str
    call: object
    names: str
    probes: tuple = REAL
    accepts: tuple = ()
    check: object = None
    base_error: type = None
    where: str = ""

    @property
    def id(self):
        return "-".join(filter(None, (self.func.__qualname__, self.param, self.where)))


def _zero_weight(v, out):
    return out == 0.0


def _mu_free_verdict(v, out):
    # Every scale is 0, so mu <= 0 counts as 0 and any mu gives mu=None's
    # verdict; so does mu = inf, which gives every scale weight 0.
    return out == check_conditions(PROF, "regularized", 2.0, LAM)


def _scale_free_verdict(v, out):
    return out == check_conditions(PROF, "constrained", 2.0, LAM)


def real(name, interval):
    """The pattern of the real rule's rejection of name (matrices._check_real)."""
    return f"^{re.escape(name)} must lie in {re.escape(interval)}, got "


def integer(name, low=None):
    """The pattern of the integer rule's rejection of name
    (matrices._check_integer); a seed has no bound, and a rank's upper
    bound follows its lower one."""
    bound = ", got " if low is None else f" of at least {low}"
    return f"^{re.escape(name)} must be an integer{bound}"


# inverse_mu's rule: a mu that is not positive counts as 0, which every
# perturbation scale must then be.
MU_POSITIVE = "^mu must be positive when perturbation scales are nonzero$"
MU_RULE = f"{real('mu', '[-inf, inf]')}|{MU_POSITIVE}"


ROWS = [
    # certificate
    Row(build_certificate, "lam", lambda lam=LAM: build_certificate(T, E, lam, MU, 2.0),
        real("lam", "(0, inf)")),
    Row(build_certificate, "mu", lambda mu=MU: build_certificate(T, E, LAM, mu, 2.0), MU_RULE,
        accepts=(math.inf,)),
    Row(build_certificate, "c", lambda c=2.0: build_certificate(T, E, LAM, MU, c),
        real("c", "(1, inf)")),
    Row(build_certificate, "tol",
        lambda tol=1e-12: build_certificate(T, E, LAM, MU, 2.0, tol=tol),
        real("tol", "(0, inf)")),
    Row(build_certificate, "tol",
        lambda tol=1e-12: build_certificate(T, E, ABOVE, MU, 2.0, tol=tol),
        real("tol", "(0, inf)"), base_error=PreconditionError, where="outside-window"),
    # incoherence
    Row(IncoherenceProfile.alpha, "rho", lambda rho=1.0: PROF.alpha(rho),
        real("rho", "(0, inf)")),
    Row(IncoherenceProfile.beta, "rho", lambda rho=1.0: PROF.beta(rho),
        real("rho", "(0, inf)")),
    Row(profile, "rho", lambda rho=1.0: profile(T, rho), real("rho", "(0, inf)")),
    Row(optimal_rho, "a", lambda a=2.0: optimal_rho(a, 3.0), real("a", "[0, inf)"),
        accepts=(0.0,), check=lambda v, out: out == 1.0),
    Row(optimal_rho, "b", lambda b=3.0: optimal_rho(2.0, b), real("b", "[0, inf)"),
        accepts=(0.0,), check=lambda v, out: out == 1.0),
    Row(check_conditions, "c", lambda c=2.0: check_conditions(PROF, "regularized", c, LAM),
        real("c", "(1, inf)")),
    Row(check_conditions, "lam",
        lambda lam=LAM: check_conditions(PROF, "regularized", 2.0, lam),
        real("lam", "(0, inf)")),
    Row(check_conditions, "mu",
        lambda mu=MU: check_conditions(PROF, "regularized", 2.0, LAM, mu=mu),
        real("mu", "[-inf, inf]"), accepts=(math.inf, -math.inf, -1.0, 0.0),
        check=_mu_free_verdict),
    Row(check_conditions, "eps_2to2",
        lambda e=0.0: check_conditions(PROF, "regularized", 2.0, LAM, mu=MU, eps_2to2=e),
        real("eps_2to2", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(check_conditions, "eps_vinf",
        lambda e=0.0: check_conditions(PROF, "regularized", 2.0, LAM, mu=MU, eps_vinf=e),
        real("eps_vinf", "[0, inf]"), accepts=(math.inf, 0.0)),
    # The constrained form carries no scale, so any scale gives the zero
    # scales' verdict; an infinite one read a NaN window (0*inf).
    Row(check_conditions, "eps_2to2",
        lambda e=0.0: check_conditions(PROF, "constrained", 2.0, LAM, eps_2to2=e),
        real("eps_2to2", "[0, inf]"), accepts=(math.inf, 0.0), check=_scale_free_verdict,
        where="constrained"),
    Row(check_conditions, "eps_vinf",
        lambda e=0.0: check_conditions(PROF, "constrained", 2.0, LAM, eps_vinf=e),
        real("eps_vinf", "[0, inf]"), accepts=(math.inf, 0.0), check=_scale_free_verdict,
        where="constrained"),
    # mu = inf weights an infinite scale by 0.
    Row(check_conditions, "mu",
        lambda mu=MU: check_conditions(PROF, "regularized", 2.0, LAM, mu=mu,
                                       eps_vinf=math.inf), MU_RULE,
        accepts=(math.inf,), check=_mu_free_verdict, where="infinite-scale"),
    Row(simplified_parameters, "eps_2to2",
        lambda e=0.0: simplified_parameters(SPIKED, "regularized", eps_2to2=e),
        real("eps_2to2", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(simplified_parameters, "eps_vinf",
        lambda e=0.0: simplified_parameters(SPIKED, "regularized", eps_vinf=e),
        real("eps_vinf", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(default_lambda, "shape", lambda m=4: default_lambda((m, 5)), integer("m", 1),
        INTEGER, where="m"),
    Row(default_lambda, "shape", lambda n=5: default_lambda((4, n)), integer("n", 1),
        INTEGER, where="n"),
    Row(inverse_mu, "mu", lambda mu=2.0: inverse_mu(mu), real("mu", "[-inf, inf]"),
        accepts=(math.inf, -math.inf, -1.0, 0.0), check=_zero_weight),
    Row(inverse_mu, "scales", lambda s=0.0: inverse_mu(0.0, s), MU_POSITIVE,
        accepts=(0.0,), check=_zero_weight),
    Row(proposition1_bounds, "m", lambda m=5: proposition1_bounds(m, 5, 1, 1, 1, 0.5, 0.5),
        integer("m", 1), INTEGER),
    Row(proposition1_bounds, "n", lambda n=5: proposition1_bounds(5, n, 1, 1, 1, 0.5, 0.5),
        integer("n", 1), INTEGER),
    Row(proposition1_bounds, "rbar",
        lambda r=1: proposition1_bounds(5, 5, r, 1, 1, 0.5, 0.5),
        integer("rbar", 0), INTEGER, accepts=(0,),
        check=lambda v, out: out == (math.inf, 0.0, 0.0)),
    Row(proposition1_bounds, "m0", lambda k=1: proposition1_bounds(5, 5, 1, k, 1, 0.5, 0.5),
        integer("m0", 0), INTEGER, accepts=(0,)),
    Row(proposition1_bounds, "n0", lambda k=1: proposition1_bounds(5, 5, 1, 1, k, 0.5, 0.5),
        integer("n0", 0), INTEGER, accepts=(0,)),
    Row(proposition1_bounds, "Uinf",
        lambda x=0.5: proposition1_bounds(5, 5, 1, 1, 1, x, 0.5),
        real("Uinf", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(proposition1_bounds, "Vinf",
        lambda x=0.5: proposition1_bounds(5, 5, 1, 1, 1, 0.5, x),
        real("Vinf", "[0, inf]"), accepts=(math.inf, 0.0)),
    # matrices
    Row(RandomStream, "seed", lambda s=7: RandomStream(s), integer("seed"), INTEGER,
        accepts=(-1, 0)),
    Row(RandomStream.uniforms, "count", lambda k=2: RandomStream(1).uniforms(k),
        integer("count", 0), INTEGER, accepts=(0,)),
    Row(RandomStream.normals, "count", lambda k=2: RandomStream(1).normals(k),
        integer("count", 0), INTEGER, accepts=(0,)),
    Row(RandomStream.integers, "count", lambda k=2: RandomStream(1).integers(k, 6),
        integer("count", 0), INTEGER, accepts=(0,)),
    Row(RandomStream.integers, "bound", lambda b=6: RandomStream(1).integers(2, b),
        integer("bound", 1), INTEGER),
    Row(RandomStream.gaussian, "m", lambda m=2: RandomStream(1).gaussian(m, 3),
        integer("m", 0), INTEGER, accepts=(0,)),
    Row(RandomStream.gaussian, "n", lambda n=3: RandomStream(1).gaussian(2, n),
        integer("n", 0), INTEGER, accepts=(0,)),
    Row(gaussian_matrix, "m", lambda m=2: gaussian_matrix(m, 3, 1), integer("m", 1),
        INTEGER),
    Row(gaussian_matrix, "n", lambda n=3: gaussian_matrix(2, n, 1), integer("n", 1),
        INTEGER),
    Row(gaussian_matrix, "seed", lambda s=1: gaussian_matrix(2, 3, s), integer("seed"),
        INTEGER, accepts=(-1, 0)),
    Row(mix_seed, "seed", lambda s=1: mix_seed(s, 2), integer("seed"), INTEGER,
        accepts=(-1, 0)),
    Row(mix_seed, "parts", lambda p=2: mix_seed(1, p), integer("parts[0]"), INTEGER,
        accepts=(-1, 0)),
    # matrixio: every double has its shortest round-trip decimal.
    Row(format_float, "x", lambda x=0.5: format_float(x), "", accepts=REAL,
        check=lambda v, out: _same(float(out), v)),
    # norms
    Row(entrywise_norm, "p", lambda p=1: entrywise_norm(M, p),
        "^unsupported entry-wise norm order: ", REAL + (3,), accepts=(math.inf,),
        check=lambda v, out: out == np.abs(M).max()),
    Row(sharp_norm, "rho", lambda rho=1.0: sharp_norm(M, rho), real("rho", "(0, inf)")),
    Row(flat_norm, "rho", lambda rho=1.0: flat_norm(M, rho), real("rho", "(0, inf)")),
    # prox: a threshold or radius of inf is allowed, and b = inf is no box.
    Row(soft_threshold, "t", lambda t=0.5: soft_threshold(M, t), real("t", "[0, inf]"),
        accepts=(math.inf, 0.0),
        check=lambda v, out: np.array_equal(out, M if v == 0 else np.zeros_like(M))),
    Row(svt, "t", lambda t=0.5: svt(M, t), real("t", "[0, inf]"),
        accepts=(math.inf, 0.0),
        check=lambda v, out: np.allclose(out, M if v == 0 else np.zeros_like(M))),
    Row(prox_l1_box, "t", lambda t=0.5: prox_l1_box(M, M, t, 1.0), real("t", "[0, inf]"),
        accepts=(math.inf, 0.0)),
    Row(prox_l1_box, "b", lambda b=1.0: prox_l1_box(M, M, 0.5, b), real("b", "(0, inf]"),
        accepts=(math.inf,),
        check=lambda v, out: np.array_equal(out, soft_threshold(M, 0.5))),
    Row(clip_entries, "b", lambda b=1.0: clip_entries(M, b), real("b", "(0, inf]"),
        accepts=(math.inf,),
        check=lambda v, out: np.array_equal(out, M)),
    Row(project_l1_ball, "eps", lambda eps=1.0: project_l1_ball(M, eps),
        real("eps", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(project_nuclear_ball, "eps", lambda eps=1.0: project_nuclear_ball(M, eps),
        real("eps", "[0, inf]"), accepts=(math.inf, 0.0)),
    # solvers
    Row(RegularizedConfig, "lam", lambda lam=1.0: RegularizedConfig(lam=lam, mu=1.0),
        real("lam", "(0, inf)")),
    Row(RegularizedConfig, "mu", lambda mu=1.0: RegularizedConfig(lam=1.0, mu=mu),
        real("mu", "(0, inf)")),
    Row(RegularizedConfig, "b", lambda b=1.0: RegularizedConfig(lam=1.0, mu=1.0, b=b),
        real("b", "(0, inf]"), accepts=(math.inf,)),
    Row(RegularizedConfig, "tol", lambda tol=1e-6: RegularizedConfig(lam=1.0, mu=1.0, tol=tol),
        real("tol", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(RegularizedConfig, "max_iter",
        lambda k=10: RegularizedConfig(lam=1.0, mu=1.0, max_iter=k), integer("max_iter", 1),
        INTEGER),
    Row(ConstrainedConfig, "lam", lambda lam=1.0: ConstrainedConfig(lam=lam),
        real("lam", "(0, inf)")),
    Row(ConstrainedConfig, "eps_v1", lambda e=1.0: ConstrainedConfig(lam=1.0, eps_v1=e),
        real("eps_v1", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(ConstrainedConfig, "eps_star", lambda e=1.0: ConstrainedConfig(lam=1.0, eps_star=e),
        real("eps_star", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(ConstrainedConfig, "b", lambda b=1.0: ConstrainedConfig(lam=1.0, b=b),
        real("b", "(0, inf]"), accepts=(math.inf,)),
    Row(ConstrainedConfig, "tol", lambda tol=1e-9: ConstrainedConfig(lam=1.0, tol=tol),
        real("tol", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(ConstrainedConfig, "max_iter", lambda k=10: ConstrainedConfig(lam=1.0, max_iter=k),
        integer("max_iter", 1), INTEGER),
    Row(bound_theorem2, "c", lambda c=2.0: bound_theorem2(PROF, c, LAM, 0.1, 0.1),
        real("c", "(1, inf)")),
    Row(bound_theorem2, "lam", lambda lam=LAM: bound_theorem2(PROF, 2.0, lam, 0.1, 0.1),
        real("lam", "(0, inf)")),
    Row(bound_theorem2, "eps_v1", lambda e=0.1: bound_theorem2(PROF, 2.0, LAM, e, 0.1),
        real("eps_v1", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(bound_theorem2, "eps_star", lambda e=0.1: bound_theorem2(PROF, 2.0, LAM, 0.1, e),
        real("eps_star", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(bound_theorem3, "c",
        lambda c=2.0: bound_theorem3(PROF, c, LAM, MU, 0.1, 0.1, 0.1, 5, 1),
        real("c", "(1, inf)")),
    Row(bound_theorem3, "lam",
        lambda lam=LAM: bound_theorem3(PROF, 2.0, lam, MU, 0.1, 0.1, 0.1, 5, 1),
        real("lam", "(0, inf)")),
    # Every scale is 0, so mu <= 0 counts as 0.
    Row(bound_theorem3, "mu",
        lambda mu=MU: bound_theorem3(PROF, 2.0, LAM, mu, 0.0, 0.0, 0.0, 5, 1),
        real("mu", "[-inf, inf]"), accepts=(math.inf, -math.inf, -1.0, 0.0)),
    # mu = inf weights an infinite scale by 0, and the bounds are vacuous.
    Row(bound_theorem3, "mu",
        lambda mu=MU: bound_theorem3(PROF, 2.0, LAM, mu, 0.0, math.inf, 0.0, 5, 1),
        MU_RULE,
        accepts=(math.inf,),
        check=lambda v, out: out == (math.inf,) * 3, where="infinite-scale"),
    Row(bound_theorem3, "eps_2to2",
        lambda e=0.1: bound_theorem3(PROF, 2.0, LAM, MU, e, 0.1, 0.1, 5, 1),
        real("eps_2to2", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(bound_theorem3, "eps_vinf",
        lambda e=0.1: bound_theorem3(PROF, 2.0, LAM, MU, 0.1, e, 0.1, 5, 1),
        real("eps_vinf", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(bound_theorem3, "eps_star_prime",
        lambda e=0.1: bound_theorem3(PROF, 2.0, LAM, MU, 0.1, 0.1, e, 5, 1),
        real("eps_star_prime", "[0, inf]"), accepts=(math.inf, 0.0)),
    Row(bound_theorem3, "kbar",
        lambda k=5: bound_theorem3(PROF, 2.0, LAM, MU, 0.1, 0.1, 0.1, k, 1),
        integer("kbar", 0), INTEGER, accepts=(0,)),
    # A term weighted by a zero count is a sum over an empty support: 0,
    # even where its factor is infinite (0*inf read NaN).
    Row(bound_theorem3, "kbar",
        lambda k=5: bound_theorem3(PROF, 2.0, LAM, MU, 0.1, math.inf, 0.1, k, 1),
        integer("kbar", 0), INTEGER, accepts=(0,), where="infinite-eps_vinf"),
    Row(bound_theorem3, "kbar",
        lambda k=5: bound_theorem3(PROF, 2.0, LAM, math.inf, 0.0, 0.0, 0.0, k, 1),
        integer("kbar", 0), INTEGER, accepts=(0,), where="infinite-mu"),
    Row(bound_theorem3, "rbar",
        lambda r=1: bound_theorem3(PROF, 2.0, LAM, MU, 0.1, 0.1, 0.1, 5, r),
        integer("rbar", 0), INTEGER, accepts=(0,)),
    Row(bound_theorem3, "b",
        lambda b=1.0: bound_theorem3(PROF, 2.0, LAM, MU, 0.1, 0.1, 0.1, 5, 1, b=b),
        real("b", "(0, inf]"), accepts=(math.inf,)),
    # subspaces
    Row(SupportSet, "m", lambda m=3: SupportSet(m, 3, [(0, 0)]), integer("m", 1), INTEGER),
    Row(SupportSet, "n", lambda n=3: SupportSet(3, n, [(0, 0)]), integer("n", 1), INTEGER),
    Row(neumann_inverse, "tol",
        lambda tol=1e-12: neumann_inverse(T.support, T.space, "omega", RHS, tol=tol),
        real("tol", "(0, inf)")),
    # sweep
    Row(SweepSpec, "m", lambda m=8: SweepSpec(**{**GRID, "m": m}), integer("m", 1), INTEGER),
    Row(SweepSpec, "n", lambda n=8: SweepSpec(**{**GRID, "n": n}), integer("n", 1), INTEGER),
    Row(SweepSpec, "ranks", lambda r=1: SweepSpec(**{**GRID, "ranks": (r,)}),
        integer("ranks[0]", 0), INTEGER, accepts=(0,)),
    Row(SweepSpec, "densities", lambda d=0.1: SweepSpec(**{**GRID, "densities": (d,)}),
        real("densities[0]", "[0, 1]"), REAL + (1.5,), accepts=(0.0,)),
    Row(SweepSpec, "trials", lambda k=1: SweepSpec(**{**GRID, "trials": k}),
        integer("trials", 1), INTEGER),
    Row(SweepSpec, "base_seed", lambda s=0: SweepSpec(**{**GRID, "base_seed": s}),
        integer("base_seed"), INTEGER, accepts=(-1, 0)),
    Row(SweepSpec, "solver_max_iter",
        lambda k=10: SweepSpec(**{**GRID, "solver_max_iter": k}),
        integer("solver_max_iter", 1), INTEGER),
    Row(run_sweep, "jobs", lambda jobs=1: run_sweep(TINY_SWEEP, jobs=jobs),
        integer("jobs", 1), INTEGER),
    # Relative to the test's working directory, a fresh temporary one.
    Row(write_sweep_outputs, "jobs",
        lambda jobs=1: write_sweep_outputs(TINY_SWEEP, "sweep.csv", jobs=jobs),
        integer("jobs", 1), INTEGER),
    # synth
    Row(InstanceSpec, "m", lambda m=5: InstanceSpec(**{**INSTANCE, "m": m}), integer("m", 1),
        INTEGER),
    Row(InstanceSpec, "n", lambda n=4: InstanceSpec(**{**INSTANCE, "n": n}), integer("n", 1),
        INTEGER),
    Row(InstanceSpec, "rbar", lambda r=1: InstanceSpec(**{**INSTANCE, "rbar": r}),
        integer("rbar", 0), INTEGER, accepts=(0,)),
    Row(InstanceSpec, "ktilde", lambda k=3: InstanceSpec(**{**INSTANCE, "ktilde": k}),
        integer("ktilde", 0), INTEGER, accepts=(0,)),
    Row(InstanceSpec, "amplitude",
        lambda a=10.0: InstanceSpec(**INSTANCE, amplitude=a), real("amplitude", "(0, inf)")),
    Row(InstanceSpec, "sigma", lambda s=0.1: InstanceSpec(**INSTANCE, sigma=s),
        real("sigma", "[0, inf)"), accepts=(0.0,)),
    Row(InstanceSpec, "seed", lambda s=0: InstanceSpec(**{**INSTANCE, "seed": s}),
        integer("seed"), INTEGER, accepts=(-1, 0)),
    Row(gen_support, "m", lambda m=4: gen_support(m, 4, 2, 1), integer("m", 1), INTEGER),
    Row(gen_support, "n", lambda n=4: gen_support(4, n, 2, 1), integer("n", 1), INTEGER),
    Row(gen_support, "ktilde", lambda k=2: gen_support(4, 4, k, 1), integer("ktilde", 0),
        INTEGER, accepts=(0,)),
    Row(gen_support, "seed", lambda s=1: gen_support(4, 4, 2, s), integer("seed"), INTEGER,
        accepts=(-1, 0)),
    Row(gen_subspaces, "m", lambda m=4: gen_subspaces(m, 4, 1, 1), integer("m", 1),
        INTEGER),
    Row(gen_subspaces, "n", lambda n=4: gen_subspaces(4, n, 1, 1), integer("n", 1),
        INTEGER),
    Row(gen_subspaces, "rbar", lambda r=1: gen_subspaces(4, 4, r, 1), integer("rbar", 0),
        INTEGER, accepts=(0,)),
    Row(gen_subspaces, "seed", lambda s=1: gen_subspaces(4, 4, 1, s), integer("seed"),
        INTEGER, accepts=(-1, 0)),
]


def _has_nan(x):
    if isinstance(x, float):
        return math.isnan(x)
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "f" and bool(np.isnan(x).any())
    if isinstance(x, (tuple, list)):
        return any(_has_nan(v) for v in x)
    if isinstance(x, dict):
        return any(_has_nan(v) for v in x.values())
    if dataclasses.is_dataclass(x):
        return any(_has_nan(getattr(x, f.name)) for f in dataclasses.fields(x))
    return False


def _label(func):
    return f"{func.__module__}.{func.__qualname__}"


def public_callables():
    """Every public callable of splr, by label: the exported names, every
    module's __all__, certificate.perturbation_scales, and each public
    method of a public class; not exceptions, nor the constructors of
    result records."""
    objects = [getattr(splr, name) for name in dir(splr) if not name.startswith("_")]
    for info in pkgutil.iter_modules(splr.__path__):
        module = importlib.import_module(f"splr.{info.name}")
        objects += [getattr(module, name) for name in getattr(module, "__all__", ())]
    objects.append(perturbation_scales)
    found = {}
    for obj in objects:
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for name, member in vars(obj).items():
                if not name.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, classmethod)):
                    found[_label(getattr(obj, name))] = getattr(obj, name)
            if obj.__name__ in RECORDS:
                continue
        if callable(obj) and not inspect.ismodule(obj):
            found[_label(obj)] = obj
    return found


def missing_rows(callables, rows):
    """The numeric parameters, as 'label(param)', of the callables that no
    row covers."""
    covered = {(_label(row.func), row.param) for row in rows}
    return sorted(
        f"{label}({param})"
        for label, func in callables.items()
        for param in inspect.signature(func).parameters
        if param not in NON_NUMERIC and (label, param) not in covered
    )


def test_every_numeric_argument_has_a_row():
    public = public_callables()
    assert missing_rows(public, ROWS) == []
    for row in ROWS:
        assert _label(row.func) in public, row.id
        assert row.param in inspect.signature(row.func).parameters, row.id


def test_a_new_numeric_argument_without_a_row_fails():
    def widened(M, t, width=1):
        return soft_threshold(M, t)

    rows = [Row(widened, "t", lambda t=0.5: widened(M, t), "threshold")]
    assert missing_rows({_label(widened): widened}, rows) == [f"{_label(widened)}(width)"]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_public_argument_follows_its_rule(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if row.base_error is None:
        row.call()
    else:
        with pytest.raises(row.base_error):
            row.call()
    failures = []
    for value in row.probes:
        accepted = any(_same(value, a) for a in row.accepts)
        try:
            out = row.call(value)
        except Exception as exc:  # every outcome is recorded
            if accepted or type(exc) is not ValueError or not re.search(row.names, str(exc)):
                failures.append(f"{value!r}: {type(exc).__name__}: {exc}")
            continue
        if not accepted:
            failures.append(f"{value!r} returned {out!r}")
        elif _has_nan(out) or (row.check is not None and not row.check(value, out)):
            failures.append(f"{value!r} gave {out!r}")
    assert failures == []


def test_default_lambda_takes_a_pair_of_dimensions():
    with pytest.raises(ValueError, match=r"shape must be a pair \(m, n\)"):
        default_lambda((5,))
    assert default_lambda((4, 9)) == 1.0 / 3.0
