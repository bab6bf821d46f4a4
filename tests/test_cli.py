import json
import math
import shutil
import subprocess

import numpy as np
import pytest

import splr.cli
from splr.cli import main
from splr.matrices import RandomStream
from splr.matrixio import read_matrix_csv, write_matrix_csv
from splr.norms import entrywise_norm, trace_norm
from splr.solvers import ConstrainedConfig, RegularizedConfig
from splr.synth import InstanceSpec, gen_instance

from .helpers import flat_instance, probe_seed
from .test_solvers import degenerate_inputs

REPORT_KEYS = {
    "mode", "lambda", "mu_or_eps", "iterations", "converged", "objective",
    "residual_v1", "residual_star", "residual_v2", "wall_time_seconds",
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def decompose_args(tmp_path, input_path, mode, *extra):
    return [
        "decompose", "--input", input_path, "--mode", mode,
        "--out-sparse", tmp_path / "xs.csv",
        "--out-lowrank", tmp_path / "xl.csv",
        "--report", tmp_path / "report.json",
        *extra,
    ]


def write_decoupled_pair(tmp_path):
    X_L = np.zeros((4, 4))
    X_L[0, 0] = 2.0
    X_L[1, 1] = 1.0
    X_S = np.zeros((4, 4))
    X_S[3, 3] = 5.0
    sp, lp = tmp_path / "dec_s.csv", tmp_path / "dec_l.csv"
    write_matrix_csv(sp, X_S)
    write_matrix_csv(lp, X_L)
    return sp, lp


def test_decompose_zero_matrix(tmp_path):
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, np.zeros((4, 4)))
    code = run_cli(*decompose_args(tmp_path, ypath, "regularized", "--mu", 1.0))
    assert code == 0
    assert not read_matrix_csv(tmp_path / "xs.csv").any()
    assert not read_matrix_csv(tmp_path / "xl.csv").any()
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == REPORT_KEYS
    assert report["converged"] is True and report["mode"] == "regularized"


def test_decompose_report_residuals_rederivable(tmp_path):
    t, E = flat_instance(16, 16, 1, 8, 10.0, probe_seed("cliround"), 1e-2)
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, t.X_S + t.X_L + E)
    code = run_cli(*decompose_args(
        tmp_path, ypath, "regularized", "--mu", 0.05, "--lambda", 0.3
    ))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    Y = read_matrix_csv(ypath)
    R = read_matrix_csv(tmp_path / "xs.csv") + read_matrix_csv(tmp_path / "xl.csv") - Y
    assert abs(report["residual_v1"] - entrywise_norm(R, 1)) <= 1e-9
    assert abs(report["residual_star"] - trace_norm(R)) <= 1e-9
    assert abs(report["residual_v2"] - entrywise_norm(R, 2)) <= 1e-9


def test_decompose_constrained_recovers_generated_instance(tmp_path):
    prefix = tmp_path / "inst"
    assert run_cli("generate", "--m", 20, "--n", 20, "--rank", 1,
                   "--ktilde", 10, "--seed", 11, "--out-prefix", prefix) == 0
    code = run_cli(*decompose_args(
        tmp_path, f"{prefix}_Y.csv", "constrained",
        "--eps-v1", 0.0, "--eps-star", 0.0,
    ))
    assert code == 0
    for out_name, target_name in (("xs.csv", "_XS.csv"), ("xl.csv", "_XL.csv")):
        got = read_matrix_csv(tmp_path / out_name)
        want = read_matrix_csv(f"{prefix}{target_name}")
        rel = entrywise_norm(got - want, 2) / max(1.0, entrywise_norm(want, 2))
        assert rel <= 1e-6


def test_diagnose_identifiable_instance(tmp_path):
    t, _ = flat_instance(20, 20, 1, 10, 10.0, probe_seed("clidiag"))
    sp, lp = tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(sp, t.X_S)
    write_matrix_csv(lp, t.X_L)
    rpt = tmp_path / "diag.json"
    assert run_cli("diagnose", "--sparse", sp, "--lowrank", lp, "--report", rpt) == 0
    report = json.loads(rpt.read_text())
    assert report["identifiable"] is True
    assert report["alpha_beta"] < 1.0
    assert report["constrained_lambda_min"] <= report["constrained_lambda"] \
        <= report["constrained_lambda_max"]


def test_diagnose_equal_pair_reports_obstruction(tmp_path):
    M = np.ones((3, 3))
    sp, lp = tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(sp, M)
    write_matrix_csv(lp, M)
    rpt = tmp_path / "diag.json"
    assert run_cli("diagnose", "--sparse", sp, "--lowrank", lp, "--report", rpt) == 0
    report = json.loads(rpt.read_text())
    assert report["alpha_beta"] >= 1.0 - 1e-9
    assert report["identifiable"] is False


def test_diagnose_empty_sparse_component(tmp_path):
    t, _ = flat_instance(10, 10, 2, 5, 10.0, probe_seed("cliempty"))
    sp, lp = tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(sp, np.zeros((10, 10)))
    write_matrix_csv(lp, t.X_L)
    rpt = tmp_path / "diag.json"
    assert run_cli("diagnose", "--sparse", sp, "--lowrank", lp, "--report", rpt) == 0
    assert json.loads(rpt.read_text())["alpha"] == 0.0


def test_certify_decoupled_pair(tmp_path):
    sp, lp = write_decoupled_pair(tmp_path)
    rpt = tmp_path / "cert.json"
    code = run_cli("certify", "--sparse", sp, "--lowrank", lp,
                   "--lambda", 1.0, "--mu", 1.0, "--c", 2.0, "--report", rpt)
    assert code == 0
    report = json.loads(rpt.read_text())
    assert report["all_satisfied"] is True
    assert report["feasibility_support"] <= 1e-9
    assert report["feasibility_space"] <= 1e-9
    # Disjoint components: off-support the witness is exactly the singular
    # pair product, with max-abs entry 1, which exceeds the strict cap for
    # any lambda.  The report surfaces both sides without conflating them
    # with the norm bounds.
    assert abs(report["complement_support"] - 1.0) <= 1e-12
    assert report["complement_support"] > report["complement_support_cap"]


def test_certify_lambda_outside_window_exits_3(tmp_path, capsys):
    t, _ = flat_instance(30, 30, 1, 15, 10.0, probe_seed("clicert"))
    sp, lp = tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(sp, t.X_S)
    write_matrix_csv(lp, t.X_L)
    rpt = tmp_path / "cert.json"
    code = run_cli("certify", "--sparse", sp, "--lowrank", lp,
                   "--lambda", 50.0, "--mu", 1.0, "--c", 2.0, "--report", rpt)
    assert code == 3
    err = capsys.readouterr().err
    assert "precondition failed" in err and "upper" in err
    assert not rpt.exists()


def test_certify_report_continuous_in_noise(tmp_path):
    t, _ = flat_instance(30, 30, 1, 15, 10.0, probe_seed("clicert"))
    sp, lp = tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(sp, t.X_S)
    write_matrix_csv(lp, t.X_L)
    E = 1e-10 * np.ones((30, 30))
    assert entrywise_norm(E, 2) <= 1e-8
    ep = tmp_path / "e.csv"
    write_matrix_csv(ep, E)
    base, shifted = tmp_path / "a.json", tmp_path / "b.json"
    lam = 0.25
    assert run_cli("certify", "--sparse", sp, "--lowrank", lp,
                   "--lambda", lam, "--mu", 1.0, "--c", 2.0, "--report", base) == 0
    assert run_cli("certify", "--sparse", sp, "--lowrank", lp, "--noise", ep,
                   "--lambda", lam, "--mu", 1.0, "--c", 2.0, "--report", shifted) == 0
    a = json.loads(base.read_text())
    b = json.loads(shifted.read_text())
    assert a["complement_support"] <= a["complement_support_cap"] + 1e-11
    assert a["complement_space"] <= a["complement_space_cap"] + 1e-11
    assert set(a) == set(b)
    for key, av in a.items():
        if isinstance(av, float):
            assert abs(av - b[key]) <= 1e-6, key


def test_generate_writes_instance_files(tmp_path):
    prefix = tmp_path / "gen"
    code = run_cli("generate", "--m", 12, "--n", 9, "--rank", 2, "--ktilde", 15,
                   "--sigma", 0.01, "--seed", 5, "--out-prefix", prefix)
    assert code == 0
    Y = read_matrix_csv(f"{prefix}_Y.csv")
    X_S = read_matrix_csv(f"{prefix}_XS.csv")
    X_L = read_matrix_csv(f"{prefix}_XL.csv")
    E = read_matrix_csv(f"{prefix}_E.csv")
    assert Y.shape == X_S.shape == X_L.shape == E.shape == (12, 9)
    assert np.array_equal(Y, X_S + X_L + E)
    meta = json.loads(open(f"{prefix}_meta.json").read())
    assert meta["m"] == 12 and meta["n"] == 9
    assert meta["kbar"] == int(np.count_nonzero(X_S))
    assert meta["rbar"] == 2


def test_sweep_cli_deterministic_and_density_zero(tmp_path):
    args = ["sweep", "--m", 12, "--n", 12, "--ranks", "1:2",
            "--densities", "0:0.05:0.05", "--trials", 2, "--seed", 7]
    assert run_cli(*args, "--out", tmp_path / "one.csv") == 0
    assert run_cli(*args, "--out", tmp_path / "two.csv", "--jobs", 2) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.agg.csv").read_bytes() == (tmp_path / "two.agg.csv").read_bytes()
    for line in (tmp_path / "one.agg.csv").read_text().splitlines()[1:]:
        rank, density, trials, successes, rate = line.split(",")
        if float(density) == 0.0:
            assert float(rate) == 1.0


def test_exit_code_io_errors(tmp_path, capsys):
    code = run_cli(*decompose_args(tmp_path, tmp_path / "missing.csv",
                                   "regularized", "--mu", 1.0))
    assert code == 1
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    assert run_cli(*decompose_args(tmp_path, ragged, "regularized", "--mu", 1.0)) == 1
    assert "line 2" in capsys.readouterr().err
    bad = tmp_path / "nan.csv"
    bad.write_text("1,nan\n2,3\n")
    assert run_cli(*decompose_args(tmp_path, bad, "regularized", "--mu", 1.0)) == 1


def test_exit_code_non_convergence(tmp_path):
    t, _ = flat_instance(8, 8, 1, 4, 10.0, probe_seed("clinoconv"))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, t.X_S + t.X_L)
    code = run_cli(*decompose_args(tmp_path, ypath, "constrained",
                                   "--max-iter", 1))
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["converged"] is False


@pytest.mark.parametrize("mode", ["regularized", "constrained"])
@pytest.mark.parametrize("kind", ["row", "column", "scalar", "zero", 1e-8, 1e8])
def test_decompose_degenerate_inputs_exit_cleanly(tmp_path, mode, kind):
    # Degenerate shapes solve outright; extreme amplitudes under a small
    # iteration cap may stop short, which must show as exit 2 with finite
    # outputs, never as a crash.
    capped = not isinstance(kind, str)
    if capped:
        Y = kind * RandomStream(probe_seed("amplitude")).gaussian(6, 6)
    else:
        Y = degenerate_inputs()[kind]
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, Y)
    extra = ["--mu", 0.5] if mode == "regularized" else []
    if capped:
        extra += ["--max-iter", 5]
    code = run_cli(*decompose_args(tmp_path, ypath, mode, *extra))
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if report["converged"] else 2)
    if not capped:
        assert code == 0
    for name in ("xs.csv", "xl.csv"):
        X = read_matrix_csv(tmp_path / name)
        assert X.shape == Y.shape and np.all(np.isfinite(X))
    assert all(math.isfinite(report[key]) for key in ("objective", "residual_v2"))


def test_usage_errors_exit_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("decompose", "--input", tmp_path / "y.csv", "--mode", "sideways",
                "--out-sparse", tmp_path / "a.csv",
                "--out-lowrank", tmp_path / "b.csv",
                "--report", tmp_path / "r.json")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("transmogrify")
    assert exc.value.code == 1


def test_box_argument_accepts_inf_and_finite(tmp_path):
    t, _ = flat_instance(10, 10, 1, 5, 10.0, probe_seed("clibox"))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, t.X_S + t.X_L)
    assert run_cli(*decompose_args(tmp_path, ypath, "regularized",
                                   "--mu", 0.5, "--b", "inf")) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "regularized",
                                   "--mu", 0.5, "--b", 3.5)) == 0
    Y = read_matrix_csv(ypath)
    X_S = read_matrix_csv(tmp_path / "xs.csv")
    assert entrywise_norm(X_S - Y, np.inf) <= 3.5 + 1e-12


def test_tol_defaults_to_each_config_default(tmp_path, monkeypatch):
    seen = []
    for name in ("solve_regularized", "solve_constrained"):
        real = getattr(splr.cli, name)

        def spy(Y, cfg, real=real):
            seen.append(cfg.tol)
            return real(Y, cfg)
        monkeypatch.setattr(splr.cli, name, spy)
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, np.eye(3))
    assert run_cli(*decompose_args(tmp_path, ypath, "regularized", "--mu", 0.5)) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "constrained")) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "regularized", "--mu", 0.5,
                                   "--tol", 1e-4)) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "constrained",
                                   "--tol", 1e-4)) == 0
    assert seen == [RegularizedConfig(lam=1.0, mu=1.0).tol,
                    ConstrainedConfig(lam=1.0).tol, 1e-4, 1e-4]
    assert seen[:2] == [1e-6, 1e-9]


def test_constrained_binding_box_exits_cleanly(tmp_path):
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=2, ktilde=30, seed=5))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, inst.Y)
    code = run_cli(*decompose_args(tmp_path, ypath, "constrained",
                                   "--b", 3, "--tol", 1e-6))
    assert code in (0, 2)
    X_L = read_matrix_csv(tmp_path / "xl.csv")
    assert entrywise_norm(X_L, np.inf) <= 3.0


def test_console_script_installed():
    exe = shutil.which("splr")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "decompose" in out.stdout
