import functools
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import splr.sweep
from splr.incoherence import default_lambda
from splr.matrices import FactorizationError
from splr.solvers import (
    ConstrainedConfig,
    _solve_constrained,
    recovery_errors,
    solve_constrained,
)
from splr.sweep import (
    AGGREGATE_HEADER,
    DETAIL_HEADER,
    SweepSpec,
    format_aggregate_csv,
    format_detail_csv,
    run_sweep,
    sweep_output_paths,
    write_sweep_outputs,
)
from splr.synth import InstanceSpec, gen_instance


def small_spec():
    return SweepSpec(
        m=16, n=16, ranks=(0, 1, 2), densities=(0.0, 0.02, 0.05, 0.1, 0.2),
        trials=3, base_seed=20260814,
    )


@functools.lru_cache(maxsize=1)
def base_run():
    return run_sweep(small_spec())


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(), densities=(0.1,), trials=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(1,), densities=(), trials=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(9,), densities=(0.1,), trials=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(1,), densities=(1.5,), trials=1, base_seed=0)
    with pytest.raises(ValueError, match="densities"):
        SweepSpec(m=8, n=8, ranks=(1,), densities=(math.nan,), trials=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(1,), densities=(0.1,), trials=0, base_seed=0)


def test_sweep_rows_deterministic_and_job_invariant():
    rows_a, agg_a = base_run()
    rows_b, agg_b = run_sweep(small_spec(), jobs=3)
    assert format_detail_csv(rows_a) == format_detail_csv(rows_b)
    assert format_aggregate_csv(agg_a) == format_aggregate_csv(agg_b)


def test_zero_density_always_succeeds():
    rows, agg = base_run()
    for rank, density, _, _, _, _, _, success in rows:
        if density == 0.0:
            assert success
    for rank, density, trials, successes, rate in agg:
        if density == 0.0:
            assert successes == trials and rate == 1.0


def test_success_flags_match_threshold():
    rows, _ = base_run()
    threshold = splr.sweep.SUCCESS_THRESHOLD
    for _, _, _, _, _, err_s, err_l, success in rows:
        within = err_s <= threshold and err_l <= threshold
        # success additionally requires solver convergence, so it can only
        # be stricter than the error test.
        if success:
            assert within
        elif within:
            assert not success  # non-convergence recorded despite small error


def test_aggregate_consistent_with_detail():
    spec = small_spec()
    rows, agg = base_run()
    assert len(rows) == len(spec.ranks) * len(spec.densities) * spec.trials
    assert len(agg) == len(spec.ranks) * len(spec.densities)
    idx = 0
    for rank, density, trials, successes, rate in agg:
        block = rows[idx: idx + spec.trials]
        idx += spec.trials
        assert all(r[0] == rank and r[1] == density for r in block)
        assert successes == sum(1 for r in block if r[7])
        assert rate == successes / trials


def test_success_rate_trend_in_density():
    # Denser supports are harder; at fixed rank the success rate must come
    # down as density grows, with at most one sampling-noise inversion.
    _, agg = base_run()
    by_rank = {}
    for rank, density, _, _, rate in agg:
        by_rank.setdefault(rank, []).append((density, rate))
    for rank, cells in by_rank.items():
        rates = [rate for _, rate in sorted(cells)]
        inversions = sum(1 for a, b in zip(rates, rates[1:]) if b > a + 1e-12)
        assert inversions <= 1


def test_output_paths_insert_agg_suffix():
    assert sweep_output_paths("/x/y.csv") == ("/x/y.csv", "/x/y.agg.csv")
    assert sweep_output_paths("plain") == ("plain", "plain.agg")


def test_written_outputs_byte_identical_across_runs(tmp_path):
    spec = SweepSpec(m=12, n=12, ranks=(1,), densities=(0.0, 0.05), trials=2,
                     base_seed=7)
    p1, a1 = write_sweep_outputs(spec, tmp_path / "one.csv")
    p2, a2 = write_sweep_outputs(spec, tmp_path / "two.csv", jobs=2)
    detail_1 = open(p1, "rb").read()
    detail_2 = open(p2, "rb").read()
    assert detail_1 == detail_2
    assert open(a1, "rb").read() == open(a2, "rb").read()
    assert detail_1.decode().splitlines()[0] == DETAIL_HEADER
    assert open(a1).read().splitlines()[0] == AGGREGATE_HEADER


def test_sweep_csvs_invariant_under_blas_threads(tmp_path):
    # Each run is a fresh interpreter, so OPENBLAS_NUM_THREADS is set before
    # numpy loads its BLAS; the two runs must write the same bytes.
    src = os.path.dirname(os.path.dirname(splr.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / f"threads{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "splr.cli", "sweep", "--m", "30", "--n", "30",
             "--ranks", "1:2", "--densities", "0.02:0.06:0.02", "--trials", "2",
             "--seed", "7", "--out", str(out)],
            env=env, check=True, timeout=120,
        )
        outputs.append(tuple(open(path, "rb").read()
                             for path in sweep_output_paths(out)))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].decode().splitlines()) == 1 + 2 * 3 * 2


def test_factorization_failure_scores_cell_as_failed(monkeypatch):
    def fail(Y, cfg, abandon):
        raise FactorizationError("SVD did not converge")

    monkeypatch.setattr(splr.sweep, "_solve_constrained", fail)
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.1,), trials=2, base_seed=3)
    rows, agg = run_sweep(spec)
    for row in rows:
        assert math.isinf(row[5]) and math.isinf(row[6]) and not row[7]
    assert agg == [(1, 0.1, 2, 0, 0.0)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_solver_bug_propagates_out_of_sweep(monkeypatch, jobs):
    def broken(Y, cfg, abandon):
        raise TypeError("solver bug")

    monkeypatch.setattr(splr.sweep, "_solve_constrained", broken)
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.1,), trials=2, base_seed=3)
    with pytest.raises(TypeError, match="solver bug"):
        run_sweep(spec, jobs=jobs)


@pytest.mark.parametrize("cpus, trials, expected", [(4, 6, 4), (4, 3, 3), (None, 6, None)])
def test_thread_pool_capped_by_cpus_and_cells(monkeypatch, cpus, trials, expected):
    # A recording stand-in for the executor: the test starts no thread.
    created = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(splr.sweep, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(splr.sweep.os, "cpu_count", lambda: cpus)
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.05,), trials=trials,
                     base_seed=3, solver_max_iter=50)
    rows, agg = run_sweep(spec, jobs=10 ** 6)
    # os.cpu_count() may return None; the sweep then runs serially.
    assert created == ([] if expected is None else [expected])
    assert (rows, agg) == run_sweep(spec)


def test_solve_constrained_signature_unchanged():
    # The sweep's abandon predicate reaches the loop through a private path.
    assert list(inspect.signature(splr.solve_constrained).parameters) == ["Y", "cfg"]


def _objective(lam, S, L):
    return lam * float(np.abs(S).sum()) + float(np.linalg.svd(L, compute_uv=False).sum())


@pytest.mark.parametrize("rank, ktilde, seed", [(2, 60, 1), (0, 60, 2), (3, 0, 3), (0, 0, 4)])
def test_planted_margin_bounds_objective_on_success_set(rank, ktilde, seed):
    # Every pair within the success test's relative Frobenius errors has
    # f >= f0 - margin; moving along -sign(S0) and -U V^T reaches the bound.
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=rank, ktilde=ktilde, seed=seed))
    target = inst.target
    S0, L0 = target.X_S, target.X_L
    lam = 1.0 / math.sqrt(30)
    f0, margin = splr.sweep._planted_bound(target, lam)
    assert f0 == pytest.approx(_objective(lam, S0, L0), rel=1e-12)
    delta = splr.sweep.SUCCESS_THRESHOLD
    radius_S = delta * max(1.0, np.linalg.norm(S0))
    radius_L = delta * max(1.0, np.linalg.norm(L0))
    stream = np.random.default_rng(seed)

    def unit(D):
        norm = np.linalg.norm(D)
        return D / norm if norm > 0 else D

    sign_dir = unit(np.sign(S0))
    uv_dir = unit(target.space.U @ target.space.V.T)
    directions = [(sign_dir, uv_dir), (-sign_dir, -uv_dir),
                  (-sign_dir, uv_dir), (sign_dir, -uv_dir)]
    directions += [(unit(stream.standard_normal((30, 30))),
                    unit(stream.standard_normal((30, 30)))) for _ in range(20)]
    slack = 1e-12 * max(1.0, f0)
    for dS, dL in directions:
        for scale in (1.0, stream.uniform()):
            f = _objective(lam, S0 + scale * radius_S * dS, L0 + scale * radius_L * dL)
            assert f >= f0 - margin - slack
    tight = _objective(lam, S0 - radius_S * sign_dir, L0 - radius_L * uv_dir)
    assert tight == pytest.approx(f0 - margin, abs=slack)


@pytest.mark.parametrize("rank, ktilde, seed", [(1, 45, 0), (1, 45, 1), (2, 45, 0), (1, 90, 3)])
def test_recovered_cell_never_trips_abandon(rank, ktilde, seed):
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=rank, ktilde=ktilde, seed=seed))
    lam = default_lambda((30, 30), inst.profile)
    cfg = ConstrainedConfig(lam=lam, tol=splr.sweep.SOLVER_TOL, max_iter=1000)
    calls = []

    def counted(X_L, s):
        calls.append(None)
        return test(X_L, s)

    test = splr.sweep._non_recovery_test(inst, lam)
    with_test = _solve_constrained(inst.Y, cfg, counted)
    plain = solve_constrained(inst.Y, cfg)
    assert with_test.converged and len(calls) == with_test.iterations // 10 > 0
    errors = recovery_errors(with_test, inst.target)
    threshold = splr.sweep.SUCCESS_THRESHOLD
    assert errors["sparse_v2"] <= threshold * np.linalg.norm(inst.target.X_S)
    assert errors["lowrank_v2"] <= threshold * np.linalg.norm(inst.target.X_L)
    assert with_test.diagnostics["abandoned_at"] is None
    assert plain.diagnostics["abandoned_at"] is None
    assert with_test.iterations == plain.iterations
    assert np.array_equal(with_test.X_S_hat, plain.X_S_hat)
    assert np.array_equal(with_test.X_L_hat, plain.X_L_hat)


@pytest.mark.parametrize("settings", [{"eps_v1": 0.5, "eps_star": 0.5}, {"b": 2.0}])
def test_public_solver_never_abandons(settings):
    inst = gen_instance(InstanceSpec(m=12, n=12, rbar=1, ktilde=10, seed=5))
    rep = solve_constrained(inst.Y, ConstrainedConfig(lam=1 / math.sqrt(12), tol=1e-6,
                                                      max_iter=200, **settings))
    assert rep.diagnostics["abandoned_at"] is None


def test_abandoned_cell_stops_unconverged_and_fails(monkeypatch):
    calls, solves = [], []

    def recording(Y, cfg, abandon):
        def counted(X_L, s):
            calls.append(None)
            return abandon(X_L, s)

        report = _solve_constrained(Y, cfg, counted)
        solves.append((Y, cfg, report))
        return report

    monkeypatch.setattr(splr.sweep, "_solve_constrained", recording)
    spec = SweepSpec(m=30, n=30, ranks=(4,), densities=(0.2,), trials=1, base_seed=1,
                     solver_max_iter=1000)
    (row,), _ = run_sweep(spec)
    (Y, cfg, report), = solves
    at = report.diagnostics["abandoned_at"]
    assert not report.converged
    assert at is not None and 10 < at < cfg.max_iter and at % 10 == 0
    assert report.iterations == at
    assert len(calls) == at // 10
    assert not row[7] and math.isfinite(row[5]) and math.isfinite(row[6])
    # Without the test, the same cell at the same cap fails as well.
    plain = solve_constrained(Y, cfg)
    target = gen_instance(InstanceSpec(m=30, n=30, rbar=4, ktilde=180, seed=row[3])).target
    assert np.array_equal(target.X_S + target.X_L, Y)
    errors = recovery_errors(plain, target)
    threshold = splr.sweep.SUCCESS_THRESHOLD
    assert not (plain.converged
                and errors["sparse_v2"] <= threshold * np.linalg.norm(target.X_S)
                and errors["lowrank_v2"] <= threshold * np.linalg.norm(target.X_L))
