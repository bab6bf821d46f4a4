import functools
import math
import os
import subprocess
import sys

import pytest

import splr.sweep
from splr.matrices import FactorizationError
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
    def fail(Y, cfg):
        raise FactorizationError("SVD did not converge")

    monkeypatch.setattr(splr.sweep, "solve_constrained", fail)
    spec = SweepSpec(m=8, n=8, ranks=(1,), densities=(0.1,), trials=2, base_seed=3)
    rows, agg = run_sweep(spec)
    for row in rows:
        assert math.isinf(row[5]) and math.isinf(row[6]) and not row[7]
    assert agg == [(1, 0.1, 2, 0, 0.0)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_solver_bug_propagates_out_of_sweep(monkeypatch, jobs):
    def broken(Y, cfg):
        raise TypeError("solver bug")

    monkeypatch.setattr(splr.sweep, "solve_constrained", broken)
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
