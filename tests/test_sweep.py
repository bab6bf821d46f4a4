import concurrent.futures
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
from splr.matrices import FactorizationError, thin_svd
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
    # The grid's shape; each number in it is a row of tests/test_boundary.py.
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(), densities=(0.1,), trials=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(1,), densities=(), trials=1, base_seed=0)
    with pytest.raises(ValueError):
        SweepSpec(m=8, n=8, ranks=(9,), densities=(0.1,), trials=1, base_seed=0)


@pytest.mark.parametrize("value", [math.inf, 2.5, 2.0])
@pytest.mark.parametrize("name, message", [("m", "^m must be an integer"),
                                           ("n", "^n must be an integer"),
                                           ("trials", "trials"),
                                           ("solver_max_iter", "solver_max_iter"),
                                           ("ranks", "ranks"),
                                           ("base_seed", "base_seed")],
                         ids=["m-dimensions", "n-dimensions", "trials-trials",
                              "solver_max_iter-solver_max_iter", "ranks-ranks",
                              "base_seed-base_seed"])
def test_spec_rejects_non_integer_counts(name, message, value):
    # A float count or seed, even a whole one, fails at the spec rather than as a
    # TypeError inside run_sweep or a silent truncation.
    fields = dict(m=8, n=8, ranks=(1,), densities=(0.1,), trials=1, base_seed=0)
    fields[name] = (value,) if name == "ranks" else value
    with pytest.raises(ValueError, match=message):
        SweepSpec(**fields)
    SweepSpec(**dict(fields, **{name: (2,) if name == "ranks" else 2}))


def test_numpy_integer_base_seed_gives_the_python_int_rows():
    # np.int64 passes the spec's integer rule, and used to raise
    # OverflowError in the seed mixing inside run_sweep.
    fields = dict(m=8, n=8, ranks=(1,), densities=(0.1,), trials=2)
    rows_np, agg_np = run_sweep(SweepSpec(base_seed=np.int64(5), **fields))
    rows, agg = run_sweep(SweepSpec(base_seed=5, **fields))
    assert format_detail_csv(rows_np) == format_detail_csv(rows)
    assert format_aggregate_csv(agg_np) == format_aggregate_csv(agg)


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


def test_eigenvalue_failure_scores_cell_as_failed(monkeypatch):
    # A failed eigvalsh (sigma_bar of the exit gap) is a non-convergence
    # like a failed SVD: it scores its own cell failed, with inf errors,
    # and the sweep goes on. Cells that never reach it keep their rows.
    spec = SweepSpec(m=12, n=12, ranks=(1, 4), densities=(0.02, 0.3), trials=2, base_seed=5)
    want, _ = run_sweep(spec)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rows, agg = run_sweep(spec)
    failed = [row for row in rows if math.isinf(row[5])]
    assert failed and all(math.isinf(row[6]) and not row[7] for row in failed)
    assert all(row == ref for row, ref in zip(rows, want) if row not in failed)
    assert sum(a[3] for a in agg) == sum(row[7] for row in rows)


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

    # run_sweep imports the executor when it needs threads.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(splr.sweep.os, "cpu_count", lambda: cpus)
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.05,), trials=trials,
                     base_seed=3, solver_max_iter=50)
    rows, agg = run_sweep(spec, jobs=10 ** 6)
    # os.cpu_count() may return None; the sweep then runs serially.
    assert created == ([] if expected is None else [expected])
    assert (rows, agg) == run_sweep(spec)


@pytest.mark.parametrize("jobs", [1.5, 2.0, 0, -3])
def test_jobs_must_be_a_positive_integer(jobs):
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.05,), trials=1, base_seed=3,
                     solver_max_iter=50)
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(spec, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, True])
def test_jobs_of_one_runs_serially(jobs):
    # True is the integer 1, as for every count.
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.05,), trials=1, base_seed=3,
                     solver_max_iter=50)
    assert run_sweep(spec, jobs=jobs) == run_sweep(spec)


def test_import_loads_no_thread_pool():
    # A serial sweep needs neither concurrent.futures nor the logging it
    # loads, so importing the package loads neither.
    src = os.path.dirname(os.path.dirname(splr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, splr; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_solve_constrained_signature_unchanged():
    # The sweep's abandon predicate reaches the loop through a private path.
    assert list(inspect.signature(splr.solve_constrained).parameters) == ["Y", "cfg"]


def _objective(lam, S, L):
    return lam * float(np.abs(S).sum()) + float(np.linalg.svd(L, compute_uv=False).sum())


@pytest.mark.parametrize("rank, ktilde, seed",
                         [(2, 60, 1), (0, 60, 2), (3, 0, 3), (0, 0, 4), (8, 300, 2)])
def test_planted_margin_bounds_objective_on_success_set(rank, ktilde, seed):
    # Every pair within the success test's relative Frobenius errors whose
    # residual S + L - Y is at most SOLVER_TOL has f >= f0 - margin.
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=rank, ktilde=ktilde, seed=seed))
    target = inst.target
    S0, L0 = target.X_S, target.X_L
    lam = 1.0 / math.sqrt(30)
    f0 = splr.sweep._planted_objective(target, lam)
    margin = splr.sweep._planted_margin(target, lam)
    assert f0 == pytest.approx(_objective(lam, S0, L0), rel=1e-12)
    delta, tol = splr.sweep.SUCCESS_THRESHOLD, splr.sweep.SOLVER_TOL
    a, b = max(1.0, np.linalg.norm(S0)), max(1.0, np.linalg.norm(L0))
    # The subgradients and the margin built from them.
    G_S, G_L = splr.sweep._closest_subgradients(target, lam)
    on = target.support.mask
    assert np.array_equal(G_S[on], lam * np.sign(S0[on]))
    assert np.abs(G_S).max(initial=0.0) <= lam
    U, V = target.space.U, target.space.V
    W = G_L - U @ V.T
    assert np.abs(U.T @ W).max(initial=0.0) <= 1e-12
    assert np.abs(W @ V).max(initial=0.0) <= 1e-12
    assert np.linalg.norm(W, 2) <= 1.0 + 1e-12
    assert margin == pytest.approx(
        delta * min(a, b) * np.linalg.norm(G_S - G_L)
        + tol * max(np.linalg.norm(G_S), np.linalg.norm(G_L)), rel=1e-12)
    # Never above the margin of the two subgradient blocks taken apart.
    old = delta * (lam * math.sqrt(target.support.kbar) * a + math.sqrt(target.space.r) * b)
    assert margin <= old
    if rank and ktilde:
        assert margin < 0.1 * old

    stream = np.random.default_rng(seed)

    def unit(D):
        norm = np.linalg.norm(D)
        return D / norm if norm > 0 else D

    radius = delta * min(a, b) - tol
    coupled = unit(G_S - G_L)
    directions = [coupled, -coupled]
    directions += [unit(stream.standard_normal((30, 30))) for _ in range(20)]
    residuals = [np.zeros((30, 30)), -tol * unit(G_S), -tol * unit(G_L),
                 tol * unit(stream.standard_normal((30, 30)))]
    slack = 1e-12 * max(1.0, f0)
    for D in directions:
        for scale in (1.0, stream.uniform()):
            for e in residuals:
                # S + L - Y = e, and both errors stay within the success test.
                for S, L in ((S0 + scale * radius * D, L0 - scale * radius * D + e),
                             (S0 + scale * radius * D + e, L0 - scale * radius * D)):
                    assert np.linalg.norm(S - S0) <= delta * a
                    assert np.linalg.norm(L - L0) <= delta * b
                    assert _objective(lam, S, L) >= f0 - margin - slack


def test_planted_margin_nearly_reached_where_planted_pair_is_not_optimal():
    # On an instance whose planted pair is not optimal, the feasible step
    # along -(G_S - G_L) to the edge of the success set lowers f by more
    # than half the margin: the bound is within a factor of two of tight.
    target = gen_instance(InstanceSpec(m=30, n=30, rbar=8, ktilde=300, seed=2)).target
    S0, L0 = target.X_S, target.X_L
    lam = 1.0 / math.sqrt(30)
    f0 = splr.sweep._planted_objective(target, lam)
    margin = splr.sweep._planted_margin(target, lam)
    G_S, G_L = splr.sweep._closest_subgradients(target, lam)
    radius = splr.sweep.SUCCESS_THRESHOLD * min(np.linalg.norm(S0), np.linalg.norm(L0))
    D = radius * (G_S - G_L) / np.linalg.norm(G_S - G_L)
    assert f0 - 0.5 * margin > _objective(lam, S0 - D, L0 + D) >= f0 - margin


def _count_margin_svds(monkeypatch):
    """Record each SVD the sweep module itself takes (the margin's); the
    solver's threshold steps take theirs in prox."""
    calls = []

    def counted(A):
        calls.append(A.shape)
        return thin_svd(A)

    monkeypatch.setattr(splr.sweep, "thin_svd", counted)
    return calls


@pytest.mark.parametrize("rank, ktilde, seed", [(1, 45, 0), (1, 45, 1), (2, 45, 0), (1, 90, 3)])
def test_recovered_cell_never_trips_abandon(monkeypatch, rank, ktilde, seed):
    margin_svds = _count_margin_svds(monkeypatch)
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
    # The objective never fell far enough to need the margin.
    assert margin_svds == []


@pytest.mark.parametrize("settings", [{"eps_v1": 0.5, "eps_star": 0.5}, {"b": 2.0}])
def test_public_solver_never_abandons(settings):
    inst = gen_instance(InstanceSpec(m=12, n=12, rbar=1, ktilde=10, seed=5))
    rep = solve_constrained(inst.Y, ConstrainedConfig(lam=1 / math.sqrt(12), tol=1e-6,
                                                      max_iter=200, **settings))
    assert rep.diagnostics["abandoned_at"] is None


def _abandoned_cell(monkeypatch, spec):
    """Run the one-cell spec, check that its solve was abandoned, and
    return its row, its planted pair and the solve without the test."""
    calls, solves = [], []
    margin_svds = _count_margin_svds(monkeypatch)

    def recording(Y, cfg, abandon):
        def counted(X_L, s):
            calls.append(None)
            return abandon(X_L, s)

        report = _solve_constrained(Y, cfg, counted)
        solves.append((Y, cfg, report))
        return report

    monkeypatch.setattr(splr.sweep, "_solve_constrained", recording)
    (row,), _ = run_sweep(spec)
    (Y, cfg, report), = solves
    at = report.diagnostics["abandoned_at"]
    assert not report.converged
    assert at is not None and 10 < at < cfg.max_iter and at % 10 == 0
    assert report.iterations == at
    assert len(calls) == at // 10
    # The margin is computed once.
    assert len(margin_svds) == splr.sweep.MARGIN_PASSES
    assert not row[7] and math.isfinite(row[5]) and math.isfinite(row[6])
    (rank,), (density,) = spec.ranks, spec.densities
    ktilde = int(round(density * spec.m * spec.n))
    target = gen_instance(InstanceSpec(m=spec.m, n=spec.n, rbar=rank, ktilde=ktilde,
                                       seed=row[3])).target
    assert np.array_equal(target.X_S + target.X_L, Y)
    return row, at, target, solve_constrained(Y, cfg)


def _passes_success_test(report, target):
    errors = recovery_errors(report, target)
    threshold = splr.sweep.SUCCESS_THRESHOLD
    return (report.converged
            and errors["sparse_v2"] <= threshold * np.linalg.norm(target.X_S)
            and errors["lowrank_v2"] <= threshold * np.linalg.norm(target.X_L))


def test_abandoned_cell_stops_unconverged_and_fails(monkeypatch):
    spec = SweepSpec(m=30, n=30, ranks=(4,), densities=(0.2,), trials=1, base_seed=1,
                     solver_max_iter=1000)
    _, _, target, plain = _abandoned_cell(monkeypatch, spec)
    # Without the test, the same cell at the same cap fails as well.
    assert not _passes_success_test(plain, target)


def test_cell_at_the_cap_without_the_coupled_margin_abandons(monkeypatch):
    # The margin of the two subgradient blocks taken apart, with a slack of
    # 1e-5*f0, left this cell to run to the cap.
    spec = SweepSpec(m=30, n=30, ranks=(4,), densities=(0.09,), trials=1,
                     base_seed=3269124617377818898, solver_max_iter=1000)
    _, at, target, plain = _abandoned_cell(monkeypatch, spec)
    assert at <= 200
    assert not plain.converged and plain.iterations == 1000


def test_uncapped_wrong_split_abandons_long_before_it_converges(monkeypatch):
    spec = SweepSpec(m=30, n=30, ranks=(2,), densities=(0.21,), trials=1,
                     base_seed=3405518497848117532)
    _, at, target, plain = _abandoned_cell(monkeypatch, spec)
    # Without the test the solve converges, to a split outside the success
    # set, after ten times as many sweeps.
    assert plain.converged and plain.iterations >= 10 * at
    assert not _passes_success_test(plain, target)
