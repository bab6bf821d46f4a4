"""Dual-certificate construction and verification.

Builds the two-block certificate (one block supported on the sparse
pattern, one inside the low-rank row/column space) by inverting the
composed projector via a Neumann series, then measures the feasibility
equations, the complement-norm caps, and the seven norm bounds that make
the certificate useful. Also provides a direct subgradient membership and
strong-monotonicity probe for a total certificate matrix.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .incoherence import PreconditionError, check_conditions, profile
from .matrices import RandomStream, as_matrix, frobenius_inner
from .norms import entrywise_norm, induced_norm, trace_norm
from .subspaces import (
    neumann_inverse,
    orth_matrix,
    project_support,
    project_support_complement,
    project_T,
    project_T_complement,
    sign_matrix,
)

__all__ = [
    "BOUND_NAMES",
    "DualCertificate",
    "build_certificate",
    "verify_bounds",
    "subgradient_check",
]

# Order of bound_diagnostics entries; each is (measured, bound, satisfied).
BOUND_NAMES = (
    "support_block_spectral",
    "space_block_spectral",
    "space_block_trace",
    "space_block_maxabs",
    "support_block_maxabs",
    "support_block_l1",
    "sum_frobenius_squared",
)

_BOUND_REL_SLACK = 1e-8
_BOUND_ABS_SLACK = 1e-10


@dataclass
class DualCertificate:
    """The two certificate blocks plus every measurement made on them.

    feasibility_residuals: max-abs residuals of the two on-pattern
    equations (support side, space side). complement_norms: max-abs norm
    off the support and spectral norm off the space, to compare against
    lambda/c and 1/c. bound_diagnostics: seven (measured, bound, satisfied)
    triples in BOUND_NAMES order. The perturbation scales eps_2to2,
    eps_vinf, eps_star_prime are measured on E at build time; E is not kept.
    """

    Q_omega: np.ndarray
    Q_T: np.ndarray
    lam: float
    mu: float
    c: float
    eps_2to2: float
    eps_vinf: float
    eps_star_prime: float
    feasibility_residuals: tuple
    complement_norms: tuple
    bound_diagnostics: list = field(default_factory=list)

    @property
    def all_bounds_satisfied(self):
        return all(ok for _, _, ok in self.bound_diagnostics)


def _inv_mu(mu):
    return 1.0 / mu if mu and mu > 0 else 0.0


def perturbation_scales(space, E):
    """(spectral norm of E, max-abs of E plus max-abs of its space
    projection, trace norm of the space projection)."""
    PTE = project_T(space, E)
    return (
        induced_norm(E, "2->2"),
        entrywise_norm(E, np.inf) + entrywise_norm(PTE, np.inf),
        trace_norm(PTE),
    )


def build_certificate(target, E, lam, mu, c, tol=1e-12):
    """Construct the dual certificate for a target pair under perturbation E.

    Both feasibility residuals come out at most 10*tol, so they scale
    linearly with the requested tolerance. When the identifiability
    product alpha*beta is below 1, the lambda window is well defined and
    a lambda outside it raises PreconditionError. With the product at or above 1 no window exists;
    construction is still attempted (fully decoupled patterns converge
    regardless) and the four bounds that rest on the geometric factor are
    reported as vacuous. Neumann non-convergence propagates.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    support, space = target.support, target.space
    m, n = target.shape
    if E is None:
        E = np.zeros((m, n))
    E = as_matrix(E, "E")
    if E.shape != (m, n):
        raise ValueError("E must match the target shape")

    eps_2to2, eps_vinf, eps_star_prime = perturbation_scales(space, E)
    if np.any(E) and (mu is None or mu <= 0):
        raise ValueError("a nonzero perturbation requires mu > 0")
    prof = profile(target)
    verdict = check_conditions(
        prof, "regularized", c, lam,
        mu=mu if (mu and mu > 0) else None,
        eps_2to2=eps_2to2, eps_vinf=eps_vinf,
    )
    if prof.product < 1.0 and not verdict.all_passed:
        lo, hi = verdict.lambda_window
        if not verdict.passed[1]:
            raise PreconditionError(
                f"lambda = {lam:.6g} exceeds the admissible upper limit {hi:.6g}"
            )
        raise PreconditionError(
            f"lambda = {lam:.6g} falls below the admissible lower limit {lo:.6g}"
        )

    sg = sign_matrix(target.X_S)
    om = orth_matrix(space)
    imu = _inv_mu(mu)
    E_off_space = E - project_T(space, E)
    E_off_support = E - project_support(support, E)
    rhs_support = lam * sg - project_support(support, om) \
        - imu * project_support(support, E_off_space)
    rhs_space = om - lam * project_T(space, sg) \
        - imu * project_T(space, E_off_support)

    Q_omega = neumann_inverse(support, space, "omega", rhs_support, tol=tol)
    Q_T = neumann_inverse(support, space, "T", rhs_space, tol=tol)

    total = Q_omega + Q_T + imu * E
    on_support = project_support(support, total)
    on_space = project_T(space, total)
    feas = (
        entrywise_norm(on_support - lam * sg, np.inf),
        entrywise_norm(on_space - om, np.inf),
    )
    compl = (
        entrywise_norm(total - on_support, np.inf),
        induced_norm(total - on_space, "2->2"),
    )
    cert = DualCertificate(
        Q_omega=Q_omega, Q_T=Q_T, lam=float(lam),
        mu=float(mu) if mu is not None else 0.0, c=float(c),
        eps_2to2=eps_2to2, eps_vinf=eps_vinf, eps_star_prime=eps_star_prime,
        feasibility_residuals=feas, complement_norms=compl,
    )
    cert.bound_diagnostics = verify_bounds(cert, prof)
    return cert


def _flag(measured, bound):
    return measured <= bound * (1.0 + _BOUND_REL_SLACK) + _BOUND_ABS_SLACK


def verify_bounds(cert, prof):
    """Evaluate the seven certificate norm bounds; returns the
    (measured, bound, satisfied) triples in BOUND_NAMES order.

    When alpha*beta >= 1 the geometric factor is undefined, so the four
    bounds built on it are reported as +inf (vacuously satisfied); the
    remaining three do not involve it and are evaluated as usual.
    """
    alpha = prof.alpha_star
    ab = prof.product
    gamma = prof.gamma
    imu = _inv_mu(cert.mu)
    iev = imu * cert.eps_vinf
    ie2 = imu * cert.eps_2to2
    lam = cert.lam
    core = lam + gamma + iev
    geo = 1.0 / (1.0 - ab) if ab < 1.0 else math.inf

    qo_spec = induced_norm(cert.Q_omega, "2->2")
    qt_spec = induced_norm(cert.Q_T, "2->2")
    qt_trace = trace_norm(cert.Q_T)
    qt_max = entrywise_norm(cert.Q_T, np.inf)
    qo_max = entrywise_norm(cert.Q_omega, np.inf)
    qo_l1 = entrywise_norm(cert.Q_omega, 1)
    sum_sq = entrywise_norm(cert.Q_omega + cert.Q_T, 2) ** 2

    pairs = [
        (qo_spec, alpha * geo * core),
        (qt_spec, 2.0 * alpha * geo * core + 1.0 + 2.0 * ie2),
        (qt_trace, 2.0 * prof.rbar * qt_spec),
        (qt_max, geo * core),
        (qo_max, 2.0 * geo * core),
        (qo_l1, prof.kbar * qo_max),
        (sum_sq, lam * qo_l1 * (1.0 + iev / lam) + qt_trace * (1.0 + 2.0 * ie2)),
    ]
    return [(meas, bnd, _flag(meas, bnd)) for meas, bnd in pairs]


def subgradient_check(target, Q_total, lam, c, probes, seed):
    """Verify Q_total is a simultaneous subgradient at the target and probe
    the strong-monotonicity inequality it implies.

    Membership: on-support entries equal lambda times the sign pattern and
    every entry is at most lambda in magnitude (scaled-l1 side); the space
    projection equals the orientation matrix and the spectral norm is at
    most 1 (trace side). Failure raises PreconditionError. Then samples
    `probes` random matrix pairs and returns the worst violation of

        objective(X_S, X_L) - objective(target)
            >= <Q, delta_S + delta_L>
               + (1 - 1/c) * (lambda*||off-support part of delta_S||_1
                              + ||off-space part of delta_L||_trace)

    as max(rhs - lhs); nonpositive means no violation observed.
    """
    if probes < 1:
        raise ValueError("probes must be at least 1")
    if c <= 1:
        raise ValueError("c must exceed 1")
    Q = as_matrix(Q_total, "Q_total")
    support, space = target.support, target.space
    sg = sign_matrix(target.X_S)
    om = orth_matrix(space)

    tol = 1e-9
    r_support = entrywise_norm(project_support(support, Q) - lam * sg, np.inf)
    if r_support > tol * max(1.0, lam):
        raise PreconditionError(
            f"on-support equality residual {r_support:.3g} breaks scaled-l1 membership"
        )
    q_max = entrywise_norm(Q, np.inf)
    if q_max > lam * (1.0 + tol):
        raise PreconditionError(
            f"max-abs {q_max:.6g} exceeds lambda = {lam:.6g}; not a scaled-l1 subgradient"
        )
    r_space = entrywise_norm(project_T(space, Q) - om, np.inf)
    if r_space > tol:
        raise PreconditionError(
            f"space-projection residual {r_space:.3g} breaks trace-norm membership"
        )
    q_spec = induced_norm(Q, "2->2")
    if q_spec > 1.0 + tol:
        raise PreconditionError(
            f"spectral norm {q_spec:.6g} exceeds 1; not a trace-norm subgradient"
        )

    m, n = target.shape
    stream = RandomStream(seed)
    base = lam * entrywise_norm(target.X_S, 1) + trace_norm(target.X_L)
    amp = max(
        1.0,
        entrywise_norm(target.X_S, np.inf),
        entrywise_norm(target.X_L, np.inf),
    )
    share = 1.0 - 1.0 / c
    worst = -math.inf
    for _ in range(probes):
        scale = amp * 10.0 ** (2.0 * stream.uniforms(1)[0] - 1.0)
        delta_S = scale * stream.gaussian(m, n)
        delta_L = scale * stream.gaussian(m, n)
        X_S = target.X_S + delta_S
        X_L = target.X_L + delta_L
        lhs = lam * entrywise_norm(X_S, 1) + trace_norm(X_L) - base
        rhs = frobenius_inner(Q, delta_S + delta_L) + share * (
            lam * entrywise_norm(project_support_complement(support, delta_S), 1)
            + trace_norm(project_T_complement(space, delta_L))
        )
        worst = max(worst, rhs - lhs)
    return worst
