"""Incoherence diagnostics: the alpha/beta/gamma quantities of a target
decomposition, the optimal balancing parameter, identifiability, the
recovery-condition checks for both formulations, the simplified parameter
rules, and the coherence bounds with inferred constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IncoherenceProfile",
    "ConditionVerdict",
    "PreconditionError",
    "profile",
    "optimal_rho",
    "check_identifiability",
    "check_conditions",
    "simplified_parameters",
    "default_lambda",
    "proposition1_bounds",
]


class PreconditionError(ValueError):
    """A stated precondition (premise inequality, condition check) failed."""


def optimal_rho(a, b):
    """Balance point sqrt(b/a) minimizing the scaled count norm (and hence
    its products with the coherence terms); 1 when either count is zero."""
    if a < 0 or b < 0:
        raise ValueError("counts must be nonnegative")
    if a == 0 or b == 0:
        return 1.0
    return math.sqrt(b / a)


@dataclass
class IncoherenceProfile:
    """Sparsity pattern counts and subspace coherence of a target pair.

    a and b are the max nonzero counts per column and per row of the sparse
    sign pattern (equal to its 1->1 and inf->inf norms since entries are
    +-1); u, v, w are the three subspace coherence terms; gamma is the
    entry-wise max of the spectral-sign matrix. alpha_star, beta_star and
    product are evaluated at `rho`, which defaults to the optimal balance
    point rho_star.
    """

    a: float
    b: float
    m0: int
    n0: int
    u: float
    v: float
    w: float
    gamma: float
    rho_star: float
    rho: float
    kbar: int
    rbar: int
    alpha_star: float = field(init=False)
    beta_star: float = field(init=False)
    product: float = field(init=False)

    def __post_init__(self):
        self.alpha_star = self.alpha(self.rho)
        self.beta_star = self.beta(self.rho)
        self.product = self.alpha_star * self.beta_star

    def alpha(self, rho=None):
        """max(rho*a, b/rho): the balanced count norm at rho."""
        r = self.rho if rho is None else rho
        if r <= 0:
            raise ValueError("rho must be positive")
        if self.a == 0 and self.b == 0:
            return 0.0
        return max(r * self.a, self.b / r)

    def beta(self, rho=None):
        """u/rho + v*rho + w: subspace coherence at rho."""
        r = self.rho if rho is None else rho
        if r <= 0:
            raise ValueError("rho must be positive")
        return self.u / r + self.v * r + self.w


def profile(target, rho=None):
    """Compute the incoherence profile of a target pair, evaluated at `rho`
    (optimal balance point when omitted)."""
    m0, n0 = target.support.counts()
    a = float(m0)
    b = float(n0)
    space = target.space
    if space.r:
        UUt = space.U @ space.U.T
        VVt = space.V @ space.V.T
        u = float(np.abs(UUt).max())
        v = float(np.abs(VVt).max())
        w = float(
            np.sqrt((space.U ** 2).sum(axis=1).max())
            * np.sqrt((space.V ** 2).sum(axis=1).max())
        )
        gamma = float(np.abs(space.U @ space.V.T).max())
    else:
        u = v = w = gamma = 0.0
    rho_star = optimal_rho(a, b)
    return IncoherenceProfile(
        a=a, b=b, m0=m0, n0=n0, u=u, v=v, w=w, gamma=gamma,
        rho_star=rho_star, rho=rho_star if rho is None else float(rho),
        kbar=target.support.kbar, rbar=space.r,
    )


def check_identifiability(prof):
    """True iff the alpha*beta product at the optimal balance point is < 1,
    which guarantees the support and row/column spaces intersect only at 0."""
    return prof.alpha(prof.rho_star) * prof.beta(prof.rho_star) < 1.0


@dataclass
class ConditionVerdict:
    """Outcome of the three-part recovery condition check: one flag per
    inequality and the (lambda_min, lambda_max) window they imply."""

    passed: tuple
    lambda_window: tuple

    @property
    def all_passed(self):
        return all(self.passed)


def check_conditions(prof, formulation, c, lam, mu=None,
                     eps_2to2=0.0, eps_vinf=0.0):
    """Evaluate the three recovery-condition inequalities exactly as stated.

    The regularized form uses the perturbation scales divided by mu; the
    constrained form is the same with those terms zeroed. Returns the
    per-condition verdicts and the implied feasible lambda window.
    """
    if c <= 1:
        raise ValueError("c must exceed 1")
    if formulation not in ("constrained", "regularized"):
        raise ValueError(f"unknown formulation {formulation!r}")
    if formulation == "constrained":
        ie2 = iev = 0.0
    else:
        if eps_2to2 or eps_vinf:
            if mu is None or mu <= 0:
                raise ValueError("regularized conditions with nonzero perturbation need mu > 0")
            ie2 = eps_2to2 / mu
            iev = eps_vinf / mu
        else:
            ie2 = iev = 0.0

    alpha = prof.alpha_star
    beta = prof.beta_star
    ab = prof.product
    gamma = prof.gamma

    cond1 = ab < 1.0
    if alpha > 0:
        lam_max = ((1.0 - ab) * (1.0 - c * ie2) - c * alpha * iev - c * alpha * gamma) / (c * alpha)
    else:
        lam_max = math.inf
    denom = 1.0 - ab - c * ab
    if denom > 0:
        lam_min = c * (gamma + (2.0 - ab) * iev) / denom
    else:
        lam_min = math.inf
    cond2 = lam <= lam_max
    cond3 = denom > 0 and lam >= lam_min
    return ConditionVerdict(
        passed=(cond1, cond2, cond3), lambda_window=(lam_min, lam_max),
    )


def simplified_parameters(prof, formulation, eps_2to2=0.0, eps_vinf=0.0):
    """Closed-form (lambda, mu) from the simplified sufficient premises.

    Regularized: requires alpha*gamma <= 1/41 and alpha*beta <= 3/41; returns
    lambda = (15/82)/alpha and mu = max(4*eps_2to2, (2/15)*eps_vinf/lambda).
    Constrained: requires alpha*gamma <= 1/15 and alpha*beta <= 1/5; returns
    lambda = sqrt((5/3)*gamma/alpha) with mu = None, verifying the window
    membership 5*gamma <= lambda <= 1/(3*alpha) defensively.
    """
    alpha = prof.alpha(prof.rho_star)
    beta = prof.beta(prof.rho_star)
    gamma = prof.gamma
    ag = alpha * gamma
    ab = alpha * beta
    if formulation == "regularized":
        if ag > 1.0 / 41.0:
            raise PreconditionError(f"alpha*gamma = {ag:.6g} exceeds 1/41")
        if ab > 3.0 / 41.0:
            raise PreconditionError(f"alpha*beta = {ab:.6g} exceeds 3/41")
        if alpha == 0:
            raise PreconditionError("support is empty; no parameter rule applies")
        lam = (15.0 / 82.0) / alpha
        mu = max(4.0 * eps_2to2, (2.0 / 15.0) * eps_vinf / lam)
        return lam, mu
    if formulation == "constrained":
        if ag > 1.0 / 15.0:
            raise PreconditionError(f"alpha*gamma = {ag:.6g} exceeds 1/15")
        if ab > 1.0 / 5.0:
            raise PreconditionError(f"alpha*beta = {ab:.6g} exceeds 1/5")
        if alpha == 0:
            raise PreconditionError("support is empty; no parameter rule applies")
        lam = math.sqrt((5.0 / 3.0) * gamma / alpha)
        lo, hi = 5.0 * gamma, 1.0 / (3.0 * alpha)
        slack = 1e-12 * max(1.0, hi)
        if not (lo - slack <= lam <= hi + slack):
            raise PreconditionError(
                f"lambda = {lam:.6g} falls outside [{lo:.6g}, {hi:.6g}]"
            )
        return lam, None
    raise ValueError(f"unknown formulation {formulation!r}")


def default_lambda(shape, prof=None, formulation="constrained"):
    """The weight used when none is given: the closed-form lambda of
    simplified_parameters when a profile is supplied and its rule yields a
    positive value, else 1/sqrt(max(m, n))."""
    if prof is not None:
        try:
            lam, _ = simplified_parameters(prof, formulation)
        except PreconditionError:
            lam = 0.0
        if lam > 0:
            return lam
    return 1.0 / math.sqrt(max(shape))


def proposition1_bounds(m, n, rbar, m0, n0, Uinf, Vinf):
    """Coherence bounds at the dimension-balanced rho = sqrt(n/m), with the
    premise constants inferred from the instance itself.

    c1 = max(m0*rbar/m, n0*rbar/n) and c2 = max(m*Uinf^2, n*Vinf^2), giving
    alpha <= (c1/rbar)*sqrt(mn), beta <= 3*c2*rbar/sqrt(mn), and
    gamma <= c2*rbar/sqrt(mn). Vacuous (inf, 0, 0) when the rank is zero.
    """
    if rbar == 0:
        return math.inf, 0.0, 0.0
    c1 = max(m0 * rbar / m, n0 * rbar / n)
    c2 = max(m * Uinf ** 2, n * Vinf ** 2)
    root = math.sqrt(m * n)
    return (c1 / rbar) * root, 3.0 * c2 * rbar / root, c2 * rbar / root
