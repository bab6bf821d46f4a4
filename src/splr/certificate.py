"""Dual-certificate construction and verification.

Builds the two-block certificate (one block supported on the sparse
pattern, one inside the low-rank row/column space) from one Neumann series
and one closed form, then measures the feasibility equations, the
complement-norm caps, and the seven norm bounds that make the certificate
useful.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .incoherence import PreconditionError, _weighted_scales, check_conditions, inverse_mu, profile
from .matrices import _T_singular_values, _check_real, as_matrix
from .norms import _entrywise_norm, _induced_norm
from .subspaces import (
    RowColSpace,
    _neumann_inverse,
    _project_support,
    _project_T,
    _project_T_factored,
    orth_matrix,
)

__all__ = [
    "BOUND_NAMES",
    "DualCertificate",
    "build_certificate",
    "verify_bounds",
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
    space is the target's row/column space, in whose tangent space Q_T
    lies; verify_bounds takes Q_T's spectrum through it.
    """

    Q_omega: np.ndarray
    Q_T: np.ndarray
    space: RowColSpace
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


def perturbation_scales(space, E):
    """(spectral norm of E, max-abs of E plus max-abs of its space
    projection, trace norm of the space projection). The trace norm,
    eps*' of the paper, sums the whole spectrum of the projection's 2r x n
    core: no value is cut at the rank cutoff, which decides ranks only."""
    return _perturbation_scales(space, as_matrix(E, "E", (space.m, space.n)))[0]


# The last call's (key, scales, P_T(E)), or None. A certify op asks for the
# scales of one (space, E) twice: the caller's perturbation_scales places
# lambda in the window, then build_certificate needs them again.
_last_scales = None


def _perturbation_scales(space, E):
    """perturbation_scales of a validated E, and the space projection P_T(E).

    P_T(E) = U (U^T E) + B V^T has rank at most 2r, so its trace norm
    comes from the factors (U^T E, B); the spectral norm of E comes from
    the top eigenvalue of its Gram. Neither takes a dense SVD.

    The result of the last call is kept, keyed by the shapes and bytes of
    U, V and E (all float64), and returned again when every one of them is
    equal bit for bit: the key covers every input the result depends on, so
    an E edited in place or a different space misses. P_T(E) is returned
    read-only, since later callers share it. The slot holds copies of U, V
    and E and one m x n P_T(E), and is replaced by one assignment, so a
    thread reads either the old entry or the new one.
    """
    global _last_scales
    key = tuple((A.shape, A.tobytes()) for A in (space.U, space.V, E))
    last = _last_scales
    if last is not None and last[0] == key:
        return last[1], last[2]
    PTE, UtE, B = _project_T_factored(space, E)
    star = _T_singular_values(space.U, UtE, B, space.V.T).sum()
    scales = (
        _induced_norm(E, "2->2"),
        _entrywise_norm(E, np.inf) + _entrywise_norm(PTE, np.inf),
        float(star),
    )
    PTE.flags.writeable = False
    _last_scales = (key, scales, PTE)
    return scales, PTE


def build_certificate(target, E, lam, mu, c, tol=1e-12):
    """Construct the dual certificate for a target pair under perturbation E.

    Q = Q_omega + Q_T + E/mu must satisfy P_Omega(Q) = lambda*sign(X_S)
    and P_T(Q) = U V^T. One Neumann series (of P_Omega o P_T) gives
    Q_omega; the space equation then gives Q_T = U V^T - P_T(Q_omega +
    E/mu) in closed form. The support-side residual is at most 10*tol, so
    it scales linearly with the requested tolerance; the space-side one is
    rounding. A nonzero E needs mu > 0. When the identifiability product
    alpha*beta is below 1, the lambda window is well defined and a lambda
    outside it raises PreconditionError. With the product at or above 1 no
    window exists; construction is still attempted (fully decoupled
    patterns converge regardless) and the four bounds that rest on the
    geometric factor are reported as vacuous. Neumann non-convergence
    propagates. The premises on c and lambda are those of check_conditions.
    """
    _check_real("(0, inf)", tol=tol)
    support, space = target.support, target.space
    E = np.zeros(target.shape) if E is None else as_matrix(E, "E", target.shape)

    (eps_2to2, eps_vinf, eps_star_prime), PTE = _perturbation_scales(space, E)
    imu = inverse_mu(mu, eps_2to2, eps_vinf, eps_star_prime)
    prof = profile(target)
    verdict = check_conditions(
        prof, "regularized", c, lam, mu=mu,
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

    sg = np.sign(target.X_S)
    om = orth_matrix(space)
    rhs_support = lam * sg - _project_support(support, om) \
        - imu * _project_support(support, E - PTE)
    Q_omega, _ = _neumann_inverse(support, space, "omega", rhs_support, tol)
    Q_T = om - _project_T(space, Q_omega + imu * E)

    total = Q_omega + Q_T + imu * E
    on_support = _project_support(support, total)
    on_space = _project_T(space, total)
    feas = (
        _entrywise_norm(on_support - lam * sg, np.inf),
        _entrywise_norm(on_space - om, np.inf),
    )
    compl = (
        _entrywise_norm(total - on_support, np.inf),
        _induced_norm(total - on_space, "2->2"),
    )
    cert = DualCertificate(
        Q_omega=Q_omega, Q_T=Q_T, space=space, lam=float(lam),
        mu=float(mu) if mu is not None else 0.0, c=float(c),
        eps_2to2=eps_2to2, eps_vinf=eps_vinf, eps_star_prime=eps_star_prime,
        feasibility_residuals=feas, complement_norms=compl,
    )
    cert.bound_diagnostics = verify_bounds(cert, prof)
    return cert


def _flag(measured, bound, vacuous=False):
    """measured <= bound up to the slack. A measurement that overflowed (inf
    or NaN) satisfies only a vacuous bound: it was never computed."""
    if vacuous:
        return True
    return math.isfinite(measured) and \
        measured <= bound * (1.0 + _BOUND_REL_SLACK) + _BOUND_ABS_SLACK


def verify_bounds(cert, prof):
    """Evaluate the seven certificate norm bounds; returns the
    (measured, bound, satisfied) triples in BOUND_NAMES order.

    When alpha*beta >= 1 the geometric factor is undefined, so the four
    bounds built on it are reported as +inf (vacuously satisfied); the
    remaining three do not involve it and are evaluated as usual. Any other
    bound fails when its measurement overflows to inf, whatever the bound.
    Q_T lies in the tangent space of cert.space, so its spectrum comes from
    the factors of its projection there, without a dense SVD.
    """
    alpha = prof.alpha_star
    ab = prof.product
    gamma = prof.gamma
    ie2, iev = _weighted_scales(cert.mu, cert.eps_2to2, cert.eps_vinf)
    lam = cert.lam
    core = lam + gamma + iev
    geo = 1.0 / (1.0 - ab) if ab < 1.0 else math.inf

    Q_omega = as_matrix(cert.Q_omega, "Q_omega")
    Q_T = as_matrix(cert.Q_T, "Q_T", Q_omega.shape)
    qo_spec = _induced_norm(Q_omega, "2->2")
    _, UtQ, B = _project_T_factored(cert.space, Q_T)
    qt_sv = _T_singular_values(cert.space.U, UtQ, B, cert.space.V.T)
    qt_spec = float(qt_sv.max(initial=0.0))
    qt_trace = float(qt_sv.sum())
    qt_max = _entrywise_norm(Q_T, np.inf)
    qo_max = _entrywise_norm(Q_omega, np.inf)
    qo_l1 = _entrywise_norm(Q_omega, 1)
    q_sum = _entrywise_norm(Q_omega + Q_T, 2)
    sum_sq = q_sum * q_sum  # inf past the float range, where ** raises

    vac = not ab < 1.0  # then the four bounds on geo are vacuous
    triples = [
        (qo_spec, alpha * geo * core, vac),
        (qt_spec, 2.0 * alpha * geo * core + 1.0 + 2.0 * ie2, vac),
        (qt_trace, 2.0 * prof.rbar * qt_spec, False),
        (qt_max, geo * core, vac),
        (qo_max, 2.0 * geo * core, vac),
        (qo_l1, prof.kbar * qo_max, False),
        (sum_sq, lam * qo_l1 * (1.0 + iev / lam) + qt_trace * (1.0 + 2.0 * ie2),
         False),
    ]
    return [(meas, bnd, _flag(meas, bnd, v)) for meas, bnd, v in triples]
