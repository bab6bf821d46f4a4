"""Synthetic instance generation: uniform random supports (drawn with
replacement and collapsed), Haar-distributed singular subspaces via
sign-fixed QR, sparse entries from a fixed or dead-zone-uniform magnitude
law, and optional i.i.d. Gaussian noise.
"""

import math
from dataclasses import dataclass

import numpy as np

from .certificate import perturbation_scales
from .incoherence import IncoherenceProfile, profile
from .matrices import RandomStream, _check_integer, _check_real, _orthonormalize, mix_seed
from .subspaces import RowColSpace, SupportSet, TargetPair

__all__ = [
    "InstanceSpec",
    "GeneratedInstance",
    "gen_support",
    "gen_subspaces",
    "gen_instance",
]

MAGNITUDE_LAWS = ("fixed", "uniform")

# Sub-stream tags so the support, subspaces, spectrum, magnitudes, and
# noise draws never overlap even though they share one instance seed.
_TAG_SUPPORT = 1
_TAG_SUBSPACES = 2
_TAG_SPECTRUM = 3
_TAG_MAGNITUDES = 4
_TAG_NOISE = 5


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one random instance.

    ktilde counts support draws (with replacement, so the realized support
    can be smaller); magnitude_law is "fixed" (entries +-amplitude) or
    "uniform" (uniform magnitude in [0.1*amplitude, amplitude] with random
    sign, so no entry sits near zero); sigma is the noise level.
    """

    m: int
    n: int
    rbar: int
    ktilde: int
    amplitude: float = 10.0
    magnitude_law: str = "fixed"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_integer(1, m=self.m, n=self.n)
        _check_integer(0, min(self.m, self.n), rbar=self.rbar)
        _check_integer(0, ktilde=self.ktilde)
        _check_integer(-math.inf, seed=self.seed)
        _check_real("(0, inf)", amplitude=self.amplitude)
        if self.magnitude_law not in MAGNITUDE_LAWS:
            raise ValueError(f"magnitude_law must be one of {MAGNITUDE_LAWS}")
        _check_real("[0, inf)", sigma=self.sigma)


@dataclass
class GeneratedInstance:
    """Observed matrix plus everything needed to score a solve against it."""

    Y: np.ndarray
    target: TargetPair
    E: np.ndarray
    profile: IncoherenceProfile
    eps_2to2: float
    eps_vinf: float
    eps_star_prime: float


def gen_support(m, n, ktilde, seed):
    """ktilde uniform cell draws with replacement, collapsed to a set."""
    _check_integer(1, m=m, n=n)
    _check_integer(0, ktilde=ktilde)
    mask = np.zeros(m * n, dtype=bool)
    mask[RandomStream(seed).integers(ktilde, m * n)] = True
    return SupportSet._from_mask(mask.reshape(m, n))


def gen_subspaces(m, n, rbar, seed):
    """Independent orthonormal factors from QR of Gaussian draws, with the
    R diagonal forced positive so the factors are reproducible."""
    _check_integer(1, m=m, n=n)
    _check_integer(0, min(m, n), rbar=rbar)
    stream = RandomStream(seed)
    U = _orthonormalize(stream.gaussian(m, rbar))
    V = _orthonormalize(stream.gaussian(n, rbar))
    return RowColSpace(U, V)


def gen_instance(spec):
    """Assemble the Y = X_S + X_L + E instance that `spec` describes, along
    with the incoherence profile and the measured perturbation scales of E."""
    m, n = spec.m, spec.n
    drawn = gen_support(m, n, spec.ktilde, mix_seed(spec.seed, _TAG_SUPPORT))
    space = gen_subspaces(m, n, spec.rbar, mix_seed(spec.seed, _TAG_SUBSPACES))

    if spec.rbar:
        draws = RandomStream(mix_seed(spec.seed, _TAG_SPECTRUM)).uniforms(spec.rbar)
        scale = math.sqrt(m * n) / spec.rbar
        svals = np.sort(1.0 + draws)[::-1] * scale
        X_L = (space.U * svals) @ space.V.T
    else:
        X_L = np.zeros((m, n))

    X_S = np.zeros((m, n))
    k = drawn.kbar
    stream = RandomStream(mix_seed(spec.seed, _TAG_MAGNITUDES))
    signs = 2.0 * stream.integers(k, 2).astype(float) - 1.0
    if spec.magnitude_law == "fixed":
        vals = signs * spec.amplitude
    else:
        mags = spec.amplitude * (0.1 + 0.9 * stream.uniforms(k))
        vals = signs * mags
    # Boolean indexing is row-major, the order of drawn.cells.
    X_S[drawn.mask] = vals

    if spec.sigma > 0:
        E = spec.sigma * RandomStream(mix_seed(spec.seed, _TAG_NOISE)).gaussian(m, n)
        eps_2to2, eps_vinf, eps_star_prime = perturbation_scales(space, E)
    else:
        # Every scale of an all-zero E is +0.0.
        E = np.zeros((m, n))
        eps_2to2 = eps_vinf = eps_star_prime = 0.0

    Y = X_S + X_L + E
    # X_L = U diag(svals) V^T with the drawn factors, so the pair needs no
    # SVD. The support is read off X_S, since a uniform-law entry at a
    # subnormal amplitude can round to zero on a drawn cell.
    support = SupportSet._from_mask(X_S != 0)
    target = TargetPair._from_parts(X_S, X_L, support, space)
    return GeneratedInstance(
        Y=Y, target=target, E=E, profile=profile(target),
        eps_2to2=eps_2to2, eps_vinf=eps_vinf, eps_star_prime=eps_star_prime,
    )
