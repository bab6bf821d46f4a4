"""Benchmark-owned input construction.

Everything here depends only on numpy and the workload seed, so an edit to
the library or to its tests cannot move the benchmark's inputs. The flat
construction keeps every coherence statistic of a target pair at its floor:
singular vectors with constant-magnitude entries, and a support laid along
shifted generalized diagonals so each row and column holds at most
ceil(kbar / m) cells.
"""

import zlib

import numpy as np


def rng(seed, *labels):
    """Independent generator for one labelled piece of a workload's inputs."""
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF]
    for label in labels:
        if isinstance(label, str):
            label = zlib.crc32(label.encode())
        words.append(int(label) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(words))


def sub_seed(seed, *labels):
    """A 63-bit integer seed for a library call, derived like rng()."""
    return int(rng(seed, *labels).integers(0, 2 ** 63 - 1))


def random_signs(gen, count):
    return np.where(gen.random(count) < 0.5, -1.0, 1.0)


def flat_space(m, n, rbar, gen):
    """Orthonormal factors whose entries all share one magnitude.

    rbar = 1 uses random sign vectors; rbar = 2 pairs the all-ones
    direction with a balanced +/- split, then flips row signs at random,
    and needs even m and n.
    """
    if rbar == 1:
        U = random_signs(gen, m)[:, None] / np.sqrt(m)
        V = random_signs(gen, n)[:, None] / np.sqrt(n)
        return U, V
    if rbar != 2:
        raise ValueError("flat_space supports rbar in {1, 2}")

    def factor(k):
        if k % 2:
            raise ValueError("rbar = 2 flat factors need an even dimension")
        half = np.ones(k)
        half[gen.permutation(k)[: k // 2]] = -1.0
        cols = np.stack([np.ones(k), half], axis=1) / np.sqrt(k)
        return cols * random_signs(gen, k)[:, None]

    return factor(m), factor(n)


def flat_instance(m, n, rbar, kbar, amplitude, sigma, gen):
    """(X_S, X_L, E) with flat singular subspaces and a balanced support.

    The kbar support cells sit at (i, (perm[i] + t) mod n) for shifts
    t = 0, 1, ...; entries are +/-amplitude; E is sigma times a standard
    Gaussian matrix (zeros when sigma is 0).
    """
    U, V = flat_space(m, n, rbar, gen)
    svals = np.sort(1.0 + gen.random(rbar))[::-1] * np.sqrt(m * n) / rbar
    X_L = (U * svals) @ V.T

    X_S = np.zeros((m, n))
    perm = gen.permutation(m)
    values = random_signs(gen, kbar) * amplitude
    for k in range(kbar):
        shift, i = divmod(k, m)
        X_S[i, (perm[i] + shift) % n] = values[k]

    E = sigma * gen.standard_normal((m, n)) if sigma > 0 else np.zeros((m, n))
    return X_S, X_L, E


def write_csv(path, M):
    """Headerless CSV with enough digits to round-trip every double."""
    np.savetxt(path, M, delimiter=",", fmt="%.17g")
