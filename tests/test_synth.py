import dataclasses
import math
import sys

import numpy as np
import pytest

import splr.certificate
import splr.matrices
from splr.certificate import perturbation_scales
from splr.incoherence import check_identifiability, profile, proposition1_bounds
from splr.matrices import RandomStream, mix_seed
from splr.norms import entrywise_norm, induced_norm
from splr.subspaces import TargetPair, orth_matrix, project_T
from splr.synth import (
    _TAG_SUPPORT,
    MAGNITUDE_LAWS,
    InstanceSpec,
    gen_instance,
    gen_subspaces,
    gen_support,
)

from .helpers import probe_seed


def test_spec_validation_errors():
    # A rank above min(m, n) and an unknown law; each number alone is a row
    # of tests/test_boundary.py.
    with pytest.raises(ValueError):
        InstanceSpec(m=5, n=5, rbar=6, ktilde=3)
    with pytest.raises(ValueError):
        InstanceSpec(m=5, n=5, rbar=1, ktilde=3, magnitude_law="cauchy")


@pytest.mark.parametrize("law", MAGNITUDE_LAWS)
@pytest.mark.parametrize("amplitude", [5e-324, sys.float_info.min])
def test_tiny_amplitude_support_is_the_nonzero_cells(law, amplitude):
    # At 5e-324 a uniform-law entry can round to zero on a drawn cell; the
    # fixed law keeps every drawn cell at +-amplitude.
    spec = InstanceSpec(m=12, n=12, rbar=1, ktilde=40, amplitude=amplitude,
                        magnitude_law=law, seed=probe_seed("tiny"))
    target = gen_instance(spec).target
    assert np.array_equal(target.support.mask, target.X_S != 0)
    if law == "fixed":
        drawn = gen_support(12, 12, 40, mix_seed(spec.seed, _TAG_SUPPORT))
        assert np.array_equal(target.support.mask, drawn.mask)
        assert np.all(np.abs(target.X_S[drawn.mask]) == amplitude)


@pytest.mark.parametrize("value", [2.5, 2.0, math.inf])
@pytest.mark.parametrize("name, message", [("m", "^m must be an integer"),
                                           ("n", "^n must be an integer"),
                                           ("rbar", "^rbar must be an integer"),
                                           ("ktilde", "ktilde"), ("seed", "seed")],
                         ids=["m-dimensions", "n-dimensions", "rbar-rank", "ktilde-ktilde",
                              "seed-seed"])
def test_spec_rejects_non_integer_counts_and_seed(name, message, value):
    # A float count or seed, even a whole one, fails at the spec rather
    # than as a TypeError inside numpy or a fractional draw count.
    fields = dict(m=5, n=5, rbar=1, ktilde=3, seed=0)
    with pytest.raises(ValueError, match=message):
        InstanceSpec(**dict(fields, **{name: value}))
    InstanceSpec(**dict(fields, **{name: 2}))


@pytest.mark.parametrize("value", [2.5, 2.0, math.inf])
def test_generators_reject_non_integer_counts(value):
    # gen_support(4, 4, 2.5, 1) drew 3 cells, and gen_subspaces passed a
    # float rank on to numpy.
    with pytest.raises(ValueError, match="ktilde"):
        gen_support(4, 4, value, 1)
    with pytest.raises(ValueError, match="^rbar must be an integer"):
        gen_subspaces(4, 4, value, 1)


@pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (2.5, 4), (4, 4.0)])
def test_gen_subspaces_rejects_bad_dimensions(m, n):
    # gen_support's rule: gen_subspaces(0, 5, 0, 1) built a 0 x 0 space.
    with pytest.raises(ValueError, match="^[mn] must be an integer of at least 1"):
        gen_subspaces(m, n, 0, 1)
    with pytest.raises(ValueError, match="^[mn] must be an integer of at least 1"):
        gen_support(m, n, 1, 1)


def test_numpy_integer_seed_gives_the_python_int_instance():
    spec = dict(m=12, n=10, rbar=2, ktilde=15, sigma=0.1)
    a = gen_instance(InstanceSpec(seed=np.int64(3), **spec))
    b = gen_instance(InstanceSpec(seed=3, **spec))
    for X, Z in ((a.Y, b.Y), (a.target.X_S, b.target.X_S), (a.E, b.E)):
        assert np.array_equal(X, Z)


def test_support_empty_when_no_draws():
    sup = gen_support(8, 9, 0, probe_seed("sup0"))
    assert sup.kbar == 0 and sup.cells == ()
    assert not sup.mask.any() and sup.mask.shape == (8, 9)
    # No draws and rank 0: every part of the instance is +0.0.
    for law in MAGNITUDE_LAWS:
        inst = gen_instance(InstanceSpec(m=8, n=9, rbar=0, ktilde=0, magnitude_law=law,
                                         seed=probe_seed("inst0")))
        for X in (inst.Y, inst.target.X_S, inst.target.X_L, inst.E):
            assert X.shape == (8, 9) and X.dtype == np.float64
            assert not X.any() and not np.signbit(X).any()
        assert inst.profile.kbar == inst.profile.rbar == 0
        assert inst.profile.product == 0.0


def test_support_draws_collapse_and_stay_in_range():
    stream_cases = [(7, 11, 5), (20, 20, 100), (3, 3, 50)]
    for i, (m, n, kt) in enumerate(stream_cases):
        sup = gen_support(m, n, kt, probe_seed("suprng", i))
        assert sup.kbar <= kt
        assert all(0 <= r < m and 0 <= c < n for r, c in sup.cells)
    a = gen_support(10, 10, 30, probe_seed("supdet"))
    b = gen_support(10, 10, 30, probe_seed("supdet"))
    assert a.cells == b.cells
    c = gen_support(10, 10, 30, probe_seed("supdet2"))
    assert set(a.cells) != set(c.cells)


def test_support_collision_mean_matches_expectation():
    # Drawing with replacement, the expected number of distinct cells is
    # mn*(1 - (1 - 1/mn)^ktilde); the seed-ensemble mean must sit within 2%.
    mn = 100 * 100
    expect = mn * (1.0 - (1.0 - 1.0 / mn) ** 500)
    sizes = [gen_support(100, 100, 500, probe_seed("coll", s)).kbar
             for s in range(200)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - expect) <= 0.02 * expect


def test_subspaces_zero_rank_empty_factors():
    sp = gen_subspaces(6, 4, 0, probe_seed("sub0"))
    assert sp.U.shape == (6, 0) and sp.V.shape == (4, 0)


def test_subspaces_orthonormal_and_deterministic():
    for i, (m, n, r) in enumerate([(12, 9, 3), (30, 30, 5), (8, 20, 2)]):
        sp = gen_subspaces(m, n, r, probe_seed("subq", i))
        assert np.abs(sp.U.T @ sp.U - np.eye(r)).max() <= 1e-10
        assert np.abs(sp.V.T @ sp.V - np.eye(r)).max() <= 1e-10
    a = gen_subspaces(15, 15, 3, probe_seed("subdet"))
    b = gen_subspaces(15, 15, 3, probe_seed("subdet"))
    assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)


def test_subspace_coherence_scale_over_seeds():
    # For Haar factors the peak entry of U U^T concentrates near
    # rbar*log(m)/m up to constants; the test pins a generous envelope on
    # the seed-ensemble median of the measured value times m/rbar.
    vals = []
    for s in range(50):
        sp = gen_subspaces(200, 200, 4, probe_seed("coh", s))
        vals.append(float(np.abs(sp.U @ sp.U.T).max()) * 200.0 / 4.0)
    vals.sort()
    median = vals[len(vals) // 2]
    assert 0.5 <= median <= 20.0


def test_instance_noiseless_has_zero_perturbation(monkeypatch):
    # An all-zero E has the scales +0.0, without a tangent-space spectrum.
    def fail(*args):
        raise AssertionError("spectrum of an all-zero E computed")

    with monkeypatch.context() as mp:
        mp.setattr(splr.certificate, "_T_singular_values", fail)
        inst = gen_instance(InstanceSpec(m=20, n=15, rbar=2, ktilde=12,
                                         seed=probe_seed("nless")))
    assert not inst.E.any()
    scales = (inst.eps_2to2, inst.eps_vinf, inst.eps_star_prime)
    assert scales == perturbation_scales(inst.target.space, inst.E) == (0.0, 0.0, 0.0)
    assert [math.copysign(1.0, x) for x in scales] == [1.0] * 3
    assert np.array_equal(inst.Y, inst.target.X_S + inst.target.X_L)


def test_instance_reproducible():
    spec = InstanceSpec(m=18, n=22, rbar=2, ktilde=25, sigma=1e-2,
                        magnitude_law="uniform", seed=probe_seed("repro"))
    a = gen_instance(spec)
    b = gen_instance(spec)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.E, b.E)
    assert a.target.support.cells == b.target.support.cells
    assert a.profile == b.profile


def test_instance_assembly_is_exact_sum():
    inst = gen_instance(InstanceSpec(m=14, n=14, rbar=1, ktilde=10, sigma=0.05,
                                     seed=probe_seed("sum")))
    assert np.array_equal(inst.Y, inst.target.X_S + inst.target.X_L + inst.E)


def test_fixed_magnitude_law():
    inst = gen_instance(InstanceSpec(m=16, n=16, rbar=1, ktilde=40,
                                     amplitude=7.0, seed=probe_seed("mfix")))
    X_S = inst.target.X_S
    vals = X_S[X_S != 0]
    assert len(vals) == inst.target.support.kbar
    assert np.all(np.abs(vals) == 7.0)


def test_uniform_magnitude_law_avoids_dead_zone():
    inst = gen_instance(InstanceSpec(m=16, n=16, rbar=1, ktilde=40,
                                     amplitude=7.0, magnitude_law="uniform",
                                     seed=probe_seed("munif")))
    vals = inst.target.X_S[inst.target.X_S != 0]
    assert len(vals) == inst.target.support.kbar
    assert np.all(np.abs(vals) >= 0.1 * 7.0)
    assert np.all(np.abs(vals) <= 7.0)


def test_singular_values_within_declared_range():
    m, n, rbar = 24, 18, 3
    inst = gen_instance(InstanceSpec(m=m, n=n, rbar=rbar, ktilde=0,
                                     seed=probe_seed("sval")))
    s = np.linalg.svd(inst.target.X_L, compute_uv=False)[:rbar]
    scale = math.sqrt(m * n) / rbar
    assert np.all(s >= scale - 1e-9) and np.all(s <= 2.0 * scale + 1e-9)


def test_identifiability_rate_at_sparse_density():
    # At ktilde=10 the support is sparse enough that the Haar model stays
    # identifiable on at least 90% of seeds (measured 46/50).
    hits = 0
    for s in range(50):
        inst = gen_instance(InstanceSpec(m=60, n=60, rbar=2, ktilde=10,
                                         seed=probe_seed("idrate", 10, s)))
        hits += check_identifiability(inst.profile)
    assert hits >= 45


def test_identifiability_vanishes_at_dense_support():
    # ktilde=180 at this size puts the incoherence product far above 1
    # (median near 3) on every probed seed; density this high is outside
    # the identifiable regime of the Haar model.
    hits = 0
    for s in range(50):
        inst = gen_instance(InstanceSpec(m=60, n=60, rbar=2, ktilde=180,
                                         seed=probe_seed("idrate", 180, s)))
        hits += check_identifiability(inst.profile)
    assert hits == 0


def test_noise_norm_envelopes_over_seeds():
    sigma = 1.0
    mn = 100 * 100
    cap_spectral = sigma * (10.0 + 10.0) + 6.0 * sigma
    cap_maxabs = 5.0 * sigma * math.sqrt(math.log(mn))
    ok_spectral = ok_maxabs = 0
    for s in range(100):
        inst = gen_instance(InstanceSpec(m=100, n=100, rbar=0, ktilde=0,
                                         sigma=sigma, seed=probe_seed("env", s)))
        ok_spectral += induced_norm(inst.E, "2->2") <= cap_spectral
        ok_maxabs += entrywise_norm(inst.E, np.inf) <= cap_maxabs
    assert ok_spectral >= 95
    assert ok_maxabs >= 95


def test_coherence_bounds_hold_on_every_generated_instance():
    specs = [
        InstanceSpec(m=20, n=30, rbar=1, ktilde=8, seed=probe_seed("p1", 0)),
        InstanceSpec(m=30, n=30, rbar=2, ktilde=40, sigma=1e-3,
                     seed=probe_seed("p1", 1)),
        InstanceSpec(m=40, n=25, rbar=3, ktilde=60, magnitude_law="uniform",
                     seed=probe_seed("p1", 2)),
        InstanceSpec(m=15, n=15, rbar=0, ktilde=12, seed=probe_seed("p1", 3)),
        InstanceSpec(m=50, n=50, rbar=2, ktilde=0, seed=probe_seed("p1", 4)),
        InstanceSpec(m=60, n=20, rbar=1, ktilde=100, sigma=0.05,
                     seed=probe_seed("p1", 5)),
    ]
    for spec in specs:
        inst = gen_instance(spec)
        prof = inst.profile
        rho = math.sqrt(spec.n / spec.m)
        space = inst.target.space
        uinf = float(np.abs(space.U).max()) if space.U.size else 0.0
        vinf = float(np.abs(space.V).max()) if space.V.size else 0.0
        alpha_b, beta_b, gamma_b = proposition1_bounds(
            spec.m, spec.n, prof.rbar, prof.m0, prof.n0, uinf, vinf
        )
        assert prof.alpha(rho) <= alpha_b + 1e-12
        assert prof.beta(rho) <= beta_b + 1e-12
        assert prof.gamma <= gamma_b + 1e-12


REDERIVED_SPECS = [
    InstanceSpec(m=12, n=9, rbar=0, ktilde=20, seed=probe_seed("rederive", 0)),
    InstanceSpec(m=12, n=9, rbar=1, ktilde=20, sigma=0.1, seed=probe_seed("rederive", 1)),
    InstanceSpec(m=12, n=9, rbar=9, ktilde=20, magnitude_law="uniform",
                 seed=probe_seed("rederive", 2)),
    InstanceSpec(m=8, n=8, rbar=8, ktilde=10, sigma=1e-3, seed=probe_seed("rederive", 3)),
    InstanceSpec(m=1, n=7, rbar=1, ktilde=3, seed=probe_seed("rederive", 4)),
    InstanceSpec(m=1, n=7, rbar=0, ktilde=3, sigma=0.5, seed=probe_seed("rederive", 5)),
    InstanceSpec(m=20, n=30, rbar=3, ktilde=0, seed=probe_seed("rederive", 6)),
]


@pytest.mark.parametrize("spec", REDERIVED_SPECS)
def test_generated_target_equals_rederived_one(spec):
    # The generated pair carries the support and factors it drew; the
    # public constructor finds them again from X_S and X_L.
    inst = gen_instance(spec)
    drawn, again = inst.target, TargetPair(inst.target.X_S, inst.target.X_L)
    assert drawn.support.cells == again.support.cells
    assert np.array_equal(drawn.support.mask, again.support.mask)
    assert drawn.space.r == again.space.r == spec.rbar
    assert np.abs(orth_matrix(drawn.space) - orth_matrix(again.space)).max() <= 1e-12
    stream = RandomStream(probe_seed("rederive-probe"))
    for _ in range(3):
        M = stream.gaussian(spec.m, spec.n)
        assert np.abs(project_T(drawn.space, M) - project_T(again.space, M)).max() <= 1e-12
    want = dataclasses.asdict(profile(again))
    for name, value in dataclasses.asdict(inst.profile).items():
        assert math.isclose(value, want[name], rel_tol=1e-12, abs_tol=0.0), name


def test_gen_instance_takes_no_svd_of_the_instance(monkeypatch):
    real = splr.matrices._lapack_svd
    shapes = []

    def recording(A, compute_uv):
        shapes.append(A.shape)
        return real(A, compute_uv)
    monkeypatch.setattr(splr.matrices, "_lapack_svd", recording)
    for sigma in (0.0, 0.1):
        gen_instance(InstanceSpec(m=12, n=9, rbar=2, ktilde=20, sigma=sigma,
                                  seed=probe_seed("nosvd")))
    assert (12, 9) not in shapes
