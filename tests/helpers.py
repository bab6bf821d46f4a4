"""Shared test fixtures: hand-built low-coherence instances with known
incoherence numbers, used wherever a test needs a target pair that is
guaranteed to satisfy the recovery conditions.

The "flat" construction keeps every coherence statistic at its floor:
singular vectors with constant-magnitude entries give u = v = rbar/m and
gamma = rbar/sqrt(m*n) exactly, and a generalized-permutation support
keeps the per-row/per-column counts balanced at ceil(kbar/m).
"""

import zlib

import numpy as np

from splr.certificate import perturbation_scales
from splr.incoherence import check_conditions, profile
from splr.matrices import RandomStream, mix_seed
from splr.subspaces import TargetPair


def flat_space(m, n, rbar, stream):
    """Orthonormal factors whose entries all share one magnitude.

    rbar=1 uses random sign vectors; rbar=2 pairs the all-ones direction
    with a balanced +/- split, then flips row signs at random.  Requires
    even m and n when rbar=2.
    """
    if rbar == 1:
        su = np.where(stream.uniforms(m) < 0.5, -1.0, 1.0) / np.sqrt(m)
        sv = np.where(stream.uniforms(n) < 0.5, -1.0, 1.0) / np.sqrt(n)
        return su[:, None], sv[:, None]
    if rbar != 2:
        raise ValueError("flat_space supports rbar in {1, 2}")

    def factor(k):
        if k % 2:
            raise ValueError("rbar=2 flat factors need an even dimension")
        ones = np.ones(k)
        idx = np.argsort(stream.uniforms(k))
        half = np.ones(k)
        half[idx[: k // 2]] = -1.0
        signs = np.where(stream.uniforms(k) < 0.5, -1.0, 1.0)
        return (np.stack([ones, half], axis=1) / np.sqrt(k)) * signs[:, None]

    return factor(m), factor(n)


def flat_instance(m, n, rbar, kbar, amplitude, seed, sigma=0.0):
    """Target pair with flat singular subspaces and a balanced support.

    The support places kbar cells along shifted generalized diagonals
    (i, (perm[i] + t) mod n), so each row holds at most ceil(kbar/m)
    cells and each column the same.  Entries are +/-amplitude.

    Returns:
        (TargetPair, E) where E is sigma * standard Gaussian (zeros when
        sigma == 0).
    """
    stream = RandomStream(seed)
    U, V = flat_space(m, n, rbar, stream)
    svals = np.sort(1.0 + stream.uniforms(rbar))[::-1] * np.sqrt(m * n) / rbar
    X_L = (U * svals) @ V.T

    full, extra = divmod(kbar, m)
    perm = np.argsort(stream.uniforms(m))
    X_S = np.zeros((m, n))
    signs = np.where(stream.uniforms(kbar) < 0.5, -1.0, 1.0) * amplitude
    k = 0
    for shift in range(full + (1 if extra else 0)):
        rows = range(m) if shift < full else range(extra)
        for i in rows:
            X_S[i, (perm[i] + shift) % n] = signs[k]
            k += 1

    E = sigma * stream.gaussian(m, n) if sigma > 0 else np.zeros((m, n))
    return TargetPair(X_S, X_L), E


def decoupled_pair():
    """Rank-2 space on the first two coordinates, support at (3,3).

    The support never meets a row or column the space touches, so both
    projector compositions vanish.
    """
    X_L = np.zeros((4, 4))
    X_L[0, 0] = 2.0
    X_L[1, 1] = 1.0
    X_S = np.zeros((4, 4))
    X_S[3, 3] = 5.0
    return TargetPair(X_S, X_L)


def valid_instance(i, sigma=0.0):
    # kbar stays below the side length so every row and column holds at
    # most one support cell; denser patterns shrink the c=2 window to a
    # point on this matrix size.
    t, E = flat_instance(30, 30, 1, 3 + 2 * (i % 14), 10.0, probe_seed("vcert", i), sigma)
    prof = profile(t)
    mu = 1.0
    ie2, iev, _ = perturbation_scales(t.space, E)
    verdict = check_conditions(prof, "regularized", 2.0, 0.1, mu=mu, eps_2to2=ie2, eps_vinf=iev)
    lo, hi = verdict.lambda_window
    assert lo < hi
    return t, E, 0.5 * (lo + hi), mu


def probe_seed(*parts):
    """Stable sub-seed for a test-local random stream.

    String parts are folded to integers with crc32 so each test can label
    its stream by name.
    """
    ints = [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts]
    return mix_seed(20260814, *ints)
