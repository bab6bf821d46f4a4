import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import splr.cli
from splr.cli import main
from splr.matrices import RandomStream
from splr.matrixio import read_matrix_csv, write_matrix_csv
from splr.norms import entrywise_norm, trace_norm
from splr.solvers import ConstrainedConfig, RegularizedConfig, solve_constrained
from splr.synth import InstanceSpec, gen_instance

from .helpers import flat_instance, probe_seed
from .test_solvers import degenerate_inputs, overflow_l1_instance

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


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import made to fail, every
    # command below still exits 0.
    src = os.path.dirname(os.path.dirname(splr.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    p = str(tmp_path / "inst")
    commands = [
        ["generate", "--m", 12, "--n", 12, "--rank", 1, "--ktilde", 6, "--seed", 3,
         "--out-prefix", p],
        *(["decompose", "--input", f"{p}_Y.csv", "--mode", mode, *extra,
           "--out-sparse", f"{p}_{mode}_S.csv", "--out-lowrank", f"{p}_{mode}_L.csv",
           "--report", f"{p}_{mode}.json"]
          for mode, extra in (("constrained", []), ("regularized", ["--mu", 0.2]))),
        ["diagnose", "--sparse", f"{p}_XS.csv", "--lowrank", f"{p}_XL.csv",
         "--report", f"{p}_diagnose.json"],
        ["sweep", "--m", 8, "--n", 8, "--ranks", 1, "--densities", 0.1, "--trials", 1,
         "--seed", 0, "--out", tmp_path / "sweep"],
    ]
    code = ("import sys; sys.modules['scipy'] = None; from splr.cli import main; "
            f"print([main(argv) for argv in {[[str(a) for a in c] for c in commands]!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0, 0]"


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


def test_certify_noncontractive_pair_exits_3(tmp_path, capsys):
    # X_S = X_L with every cell nonzero: P_Omega is the identity and the
    # Neumann series cannot contract. In the second pair the step ratio
    # climbs toward 1 and reaches it within 1e-12 at step 20. Both must
    # stop and report, not run on.
    X = gen_instance(InstanceSpec(m=20, n=20, rbar=2, ktilde=0, seed=3)).target.X_L
    G = np.arange(12.0).reshape(3, 4) - 1
    for X_S, X_L, lam in ((X, X, 0.1), (G, np.ones((3, 4)), 0.3)):
        sp, lp = tmp_path / "XS.csv", tmp_path / "XL.csv"
        write_matrix_csv(sp, X_S)
        write_matrix_csv(lp, X_L)
        rpt = tmp_path / "cert.json"
        code = run_cli("certify", "--sparse", sp, "--lowrank", lp,
                       "--lambda", lam, "--mu", 1, "--c", 2, "--report", rpt)
        assert code == 3
        assert "contraction" in capsys.readouterr().err
        assert not rpt.exists()


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
    # With no outliers and no low-rank part every file holds +0.0 zeros.
    code = run_cli("generate", "--m", 3, "--n", 4, "--rank", 0, "--ktilde", 0,
                   "--seed", 5, "--out-prefix", prefix)
    assert code == 0
    for part in ("Y", "XS", "XL", "E"):
        text = open(f"{prefix}_{part}.csv").read()
        assert "-" not in text
        assert np.array_equal(read_matrix_csv(f"{prefix}_{part}.csv"), np.zeros((3, 4)))
    meta = json.loads(open(f"{prefix}_meta.json").read())
    assert (meta["kbar"], meta["rbar"], meta["alpha"], meta["beta"]) == (0, 0, 0.0, 0.0)


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
    capsys.readouterr()
    accented = tmp_path / "accented.csv"
    accented.write_bytes("1,2\n4\u00e9,5\n".encode("utf-8"))
    assert run_cli(*decompose_args(tmp_path, accented, "regularized", "--mu", 1.0)) == 1
    assert f"{accented}: line 2: non-ASCII byte 0xc3" in capsys.readouterr().err


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


@pytest.mark.parametrize("shape, c, mode", [
    ((1, 5), 1e300, "relaxed"), ((3, 7), 1e-300, "exact"),
    ((5, 1), 1e150, "penalized"), ((4, 3), 1e-150, "boxed"), ((1, 1), 1e-8, "exact"),
], ids=["1x5-1e300-relaxed", "3x7-1e-300-exact", "5x1-1e150-penalized",
        "4x3-1e-150-boxed", "1x1-1e-8-exact"])
def test_decompose_degenerate_matrix_cells_exit_0_or_2(tmp_path, capsys, shape, c, mode):
    # Cells of the solver-level degenerate matrix (test_solvers.py) through
    # the command: exit 0 or 2 with finite outputs, never a traceback.
    Y = c * RandomStream(probe_seed("degenerate-cli")).gaussian(*shape)
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, Y)
    extra = {
        "exact": [], "boxed": ["--b", 0.5 * c], "penalized": ["--mu", 0.1 * c],
        "relaxed": ["--eps-v1", 0.1 * entrywise_norm(Y, 1),
                    "--eps-star", 0.1 * trace_norm(Y)],
    }[mode]
    code = run_cli(*decompose_args(tmp_path, ypath,
                                   "regularized" if mode == "penalized" else "constrained",
                                   *extra, "--max-iter", 100))
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if report["converged"] else 2)
    for name in ("xs.csv", "xl.csv"):
        X = read_matrix_csv(tmp_path / name)
        assert X.shape == Y.shape and np.all(np.isfinite(X))
    assert all(math.isfinite(report[key])
               for key in ("objective", "residual_v1", "residual_star", "residual_v2"))


def test_decompose_regularized_when_4_l1_overflows(tmp_path):
    Y, c = overflow_l1_instance()
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, c * Y)
    code = run_cli(*decompose_args(tmp_path, ypath, "regularized",
                                   "--mu", 0.2 * c, "--lambda", 1.0 / math.sqrt(120)))
    assert code in (0, 2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == (0 if report["converged"] else 2)


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


def test_decompose_unset_flags_take_config_defaults(tmp_path, monkeypatch):
    # The parsed arguments hold only the settings a user gave, so the config
    # built from them keeps its own defaults; given ones pass through.
    seen = []
    for name in ("solve_regularized", "solve_constrained"):
        real = getattr(splr.cli, name)

        def spy(Y, cfg, real=real):
            seen.append(cfg)
            return real(Y, cfg)
        monkeypatch.setattr(splr.cli, name, spy)
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, np.eye(4))
    given = ["--b", 3.0, "--tol", 1e-5, "--max-iter", 500]
    assert run_cli(*decompose_args(tmp_path, ypath, "regularized", "--mu", 0.5)) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "constrained")) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "regularized", "--mu", 0.5,
                                   "--lambda", 0.25, "--eps-v1", 9.0, *given)) == 0
    assert run_cli(*decompose_args(tmp_path, ypath, "constrained", "--mu", 9.0,
                                   "--eps-v1", 0.1, "--eps-star", 0.2, *given)) == 0
    assert seen == [
        RegularizedConfig(lam=0.5, mu=0.5), ConstrainedConfig(lam=0.5),
        RegularizedConfig(lam=0.25, mu=0.5, b=3.0, tol=1e-5, max_iter=500),
        ConstrainedConfig(lam=0.5, eps_v1=0.1, eps_star=0.2, b=3.0, tol=1e-5,
                          max_iter=500),
    ]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mu_or_eps"] == [0.1, 0.2]


def test_parser_holds_no_config_default():
    # Unset decompose settings are absent, not copies of a config's values.
    args = splr.cli.build_parser().parse_args([
        "decompose", "--input", "y.csv", "--mode", "constrained",
        "--out-sparse", "s", "--out-lowrank", "l", "--report", "r"])
    assert sorted(vars(args)) == ["command", "func", "input", "lam", "mode", "mu",
                                  "out_lowrank", "out_sparse", "report"]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_below_one_exits_1(tmp_path, jobs, capsys):
    # --jobs passes through to run_sweep's integer rule unchanged.
    assert run_cli("sweep", "--m", 6, "--n", 6, "--ranks", 1, "--densities", 0.1,
                   "--trials", 1, "--seed", 0, "--out", tmp_path / "sw.csv",
                   "--jobs", jobs) == 1
    err = capsys.readouterr().err
    assert "jobs must be an integer of at least 1" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--ranks", "5:3", "empty range '5:3'"),
    ("--ranks", "1:2:3", "expected a or a:b, got '1:2:3'"),
    ("--densities", "0.1:0.2", "expected lo:hi:step, got '0.1:0.2'"),
], ids=["ranks-empty", "ranks-form", "densities-form"])
def test_sweep_bad_grid_exits_1(tmp_path, flag, value, message, capsys):
    grid = {"--ranks": "1", "--densities": "0.1", flag: value}
    assert run_cli("sweep", "--m", 6, "--n", 6, "--trials", 1, "--seed", 0,
                   "--out", tmp_path / "sw.csv",
                   *(x for item in grid.items() for x in item)) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _fail(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize("command, routine", [
    ("decompose-constrained", "svd"), ("decompose-regularized", "svd"),
    ("diagnose", "svd"), ("decompose-constrained", "eigvalsh"),
], ids=["constrained-svd", "regularized-svd", "diagnose-svd", "constrained-eigvalsh"])
def test_factorization_failure_exits_2(tmp_path, monkeypatch, capsys, command, routine):
    # A LAPACK routine that fails to converge (an SVD whose QR fallback fails
    # too, or the Gram eigenvalues of a spectral norm) is a non-convergence,
    # not an I/O failure, and writes no output.
    ypath, sp, lp = tmp_path / "y.csv", tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(ypath, RandomStream(probe_seed("svdfail")).gaussian(6, 6))
    t, _ = flat_instance(8, 8, 1, 4, 10.0, probe_seed("svdfail"))
    write_matrix_csv(sp, t.X_S)
    write_matrix_csv(lp, t.X_L)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    if command == "diagnose":
        argv = ["diagnose", "--sparse", sp, "--lowrank", lp, "--report", tmp_path / "r.json"]
    else:
        mode = command.split("-")[1]
        argv = decompose_args(tmp_path, ypath, mode, "--mu", 0.5)
    monkeypatch.setattr(np.linalg, routine, _fail)
    assert run_cli(*argv) == splr.cli.EXIT_NOT_CONVERGED
    err = capsys.readouterr().err
    assert "factorization failed" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("flag", ["--tol", "--lambda", "--eps-v1"])
def test_decompose_nan_setting_exits_1(tmp_path, flag, capsys):
    t, _ = flat_instance(8, 8, 1, 4, 10.0, probe_seed("clinan"))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, t.X_S + t.X_L)
    assert run_cli(*decompose_args(tmp_path, ypath, "constrained", flag, "nan")) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode, flag", [("constrained", "--lambda"),
                                        ("regularized", "--mu")])
def test_decompose_infinite_setting_exits_1(tmp_path, mode, flag, capsys):
    name = {"--lambda": "lam", "--mu": "mu"}[flag]
    t, _ = flat_instance(8, 8, 1, 4, 10.0, probe_seed("clinan"))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, t.X_S + t.X_L)
    extra = ["--mu", 0.5] if mode == "regularized" else []
    assert run_cli(*decompose_args(tmp_path, ypath, mode, *extra, flag, "inf")) == 1
    err = capsys.readouterr().err
    assert f"{name} must lie in (0, inf), got inf" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_generate_negative_seed(tmp_path):
    # --seed -1 masks to 2^64 - 1, whose fold with each sub-stream tag wraps.
    prefix = tmp_path / "gen"
    assert run_cli("generate", "--m", 6, "--n", 6, "--rank", 1, "--ktilde", 4,
                   "--seed", -1, "--out-prefix", prefix) == 0
    assert read_matrix_csv(f"{prefix}_Y.csv").shape == (6, 6)


@pytest.mark.parametrize("command, flag, value, message", [
    ("generate", "--sigma", "nan", "sigma"),
    ("generate", "--sigma", "inf", "sigma must lie in [0, inf), got inf"),
    ("diagnose", "--c", "nan", "c must lie in (1, inf), got nan"),
    ("diagnose", "--c", "inf", "c must lie in (1, inf), got inf"),
    ("diagnose", "--rho", "nan", "rho must lie in (0, inf), got nan"),
    ("diagnose", "--rho", "inf", "rho must lie in (0, inf), got inf"),
    ("diagnose", "--lambda", "nan", "lam must lie in (0, inf), got nan"),
    ("diagnose", "--mu", "nan", "mu must lie in [-inf, inf], got nan"),
    ("certify", "--c", "inf", "c must lie in (1, inf), got inf"),
    ("certify", "--lambda", "nan", "lam must lie in (0, inf), got nan"),
    ("sweep", "--densities", "nan", "densities[0] must lie in [0, 1], got nan"),
    ("sweep", "--densities", "0:nan:0.1", "bad grid"),
    # The grid's bounds are checked before its count, which overflowed.
    ("sweep", "--densities", "0:inf:0.1", "densities high must lie in [0, 1], got inf"),
], ids=["generate-sigma", "generate-sigma-inf", "diagnose-c", "diagnose-c-inf",
        "diagnose-rho", "diagnose-rho-inf", "diagnose-lambda", "diagnose-mu",
        "certify-c-inf", "certify-lambda", "sweep-densities", "sweep-density-grid",
        "sweep-density-grid-inf"])
def test_nan_setting_exits_1(tmp_path, command, flag, value, message, capsys):
    t, _ = flat_instance(8, 8, 1, 4, 10.0, probe_seed("clinan"))
    sp, lp = tmp_path / "s.csv", tmp_path / "l.csv"
    write_matrix_csv(sp, t.X_S)
    write_matrix_csv(lp, t.X_L)
    args = {
        "generate": ["--m", 8, "--n", 8, "--rank", 1, "--ktilde", 4, "--seed", 1,
                     "--out-prefix", tmp_path / "gen"],
        "diagnose": ["--sparse", sp, "--lowrank", lp, "--report", tmp_path / "r.json"],
        "certify": ["--sparse", sp, "--lowrank", lp, "--lambda", 0.1, "--mu", 1.0,
                    "--c", 2.0, "--report", tmp_path / "r.json"],
        "sweep": ["--m", 8, "--n", 8, "--ranks", 1, "--trials", 1, "--seed", 1,
                  "--out", tmp_path / "sw.csv"],
    }[command]
    assert run_cli(command, *args, flag, value) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "s.csv"]


def test_constrained_binding_box_exits_cleanly(tmp_path):
    inst = gen_instance(InstanceSpec(m=30, n=30, rbar=2, ktilde=30, seed=5))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, inst.Y)
    code = run_cli(*decompose_args(tmp_path, ypath, "constrained",
                                   "--b", 3, "--tol", 1e-6))
    assert code in (0, 2)
    X_L = read_matrix_csv(tmp_path / "xl.csv")
    assert entrywise_norm(X_L, np.inf) <= 3.0


def test_decompose_tiny_scale_relaxed_exits_not_converged(tmp_path, capsys):
    # The relaxed split of a 1e-300-scale row does not converge in 20,000
    # sweeps; the command must say so by its exit code, not by a traceback.
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, 1e-300 * np.array(
        [[1.37, -0.665, 0.352, 0.903, 0.094, -0.743, -0.922]]))
    code = run_cli(*decompose_args(
        tmp_path, ypath, "constrained", "--eps-v1", 7e-302, "--eps-star", 7e-302,
        "--tol", 1e-306, "--max-iter", 20000))
    assert code == splr.cli.EXIT_NOT_CONVERGED
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads((tmp_path / "report.json").read_text())["converged"] is False


def test_console_script_installed():
    exe = shutil.which("splr")
    if exe is None:
        pytest.skip("console script not on PATH")
    out = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "decompose" in out.stdout


def test_console_script_declared():
    # Checks the console-script declaration without an installed script.
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"splr": "splr.cli:main"}
    module, _, name = scripts["splr"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
    src = os.path.dirname(os.path.dirname(splr.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-m", "splr.cli", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    for command in ("decompose", "diagnose", "certify", "generate", "sweep"):
        assert command in out.stdout


@pytest.mark.parametrize("mode", ["constrained", "regularized"])
def test_decompose_agrees_across_blas_threads(tmp_path, mode):
    # Each run is a fresh interpreter, so OPENBLAS_NUM_THREADS is set before
    # numpy loads its BLAS. At 120x120 the threshold steps take the partial
    # path. The outputs agreed to the bit when measured; the bound leaves
    # room for BLAS builds that split the products across threads.
    inst = gen_instance(InstanceSpec(m=120, n=120, rbar=3, ktilde=288, seed=4))
    ypath = tmp_path / "y.csv"
    write_matrix_csv(ypath, inst.Y)
    lam = 1.0 / math.sqrt(120)
    rep = solve_constrained(inst.Y, ConstrainedConfig(lam=lam))
    assert rep.diagnostics["partial_svds"] > 0
    src = os.path.dirname(os.path.dirname(splr.cli.__file__))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / threads
        out.mkdir()
        args = [str(a) for a in decompose_args(out, ypath, mode, "--lambda", lam)]
        if mode == "regularized":
            args += ["--mu", "0.2"]
        subprocess.run([sys.executable, "-m", "splr.cli", *args],
                       env=env, check=True, timeout=120)
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        runs.append((report["iterations"], read_matrix_csv(out / "xs.csv"),
                     read_matrix_csv(out / "xl.csv")))
    (it1, S1, L1), (it2, S2, L2) = runs
    assert it1 == it2
    assert np.linalg.norm(S1 - S2) <= 1e-12 * np.linalg.norm(S1)
    assert np.linalg.norm(L1 - L2) <= 1e-12 * np.linalg.norm(L1)


def test_generate_noise_past_the_float_range_reports_inf(tmp_path):
    # sigma_1(E) of a noise at 1e308 lies beyond the float range: the scale
    # reads inf rather than raising.
    prefix = tmp_path / "g"
    assert run_cli("generate", "--m", 4, "--n", 4, "--rank", 1, "--ktilde", 3,
                   "--sigma", 1e308, "--seed", 1, "--out-prefix", prefix) == 0
    meta = json.loads(open(f"{prefix}_meta.json").read())
    assert meta["eps_2to2"] == "inf"


def test_certify_noise_near_the_float_max_exits_cleanly(tmp_path):
    # The Neumann norms, the l1 norm and the squared Frobenius norm of the
    # witness pass the float max; each reads inf, and no warning leaks. An
    # overflowed measurement certifies nothing: its bound fails, exit 2.
    prefix = tmp_path / "t"
    assert run_cli("generate", "--m", 6, "--n", 6, "--rank", 1, "--ktilde", 3,
                   "--seed", 1, "--out-prefix", prefix) == 0
    noise = tmp_path / "e.csv"
    write_matrix_csv(noise, np.full((6, 6), 1e307))
    rpt = tmp_path / "cert.json"
    code = run_cli("certify", "--sparse", f"{prefix}_XS.csv", "--lowrank", f"{prefix}_XL.csv",
                   "--noise", noise, "--lambda", 0.1, "--mu", 1.0, "--c", 2.0,
                   "--report", rpt)
    report = json.loads(rpt.read_text())
    assert code == 2
    assert report["sum_frobenius_squared_measured"] == "inf"
    assert report["sum_frobenius_squared_satisfied"] is False
    assert report["all_satisfied"] is False


@pytest.mark.parametrize("mode, extra", [("regularized", ["--mu", 1.0]),
                                         ("constrained", [])],
                         ids=["regularized", "constrained"])
def test_decompose_near_the_float_max_exits_cleanly(tmp_path, mode, extra):
    # The solve runs on 2^-e*Y (see solvers._admm), so a 6 x 6 Y near 1e307
    # overflows nothing inside the loop and prints no warning. Neither mode
    # converges in 50 sweeps: the constrained solve stalls at X_S = Y
    # (ROADMAP item 2), and the penalized solve at mu = 1, not scaled with
    # Y, cannot resolve its residual. The constrained objective
    # lam*||X_S||_1 + ||X_L||_* is about 1.48e308, representable, and the
    # report gives it; the penalized objective's data term ||R||_F^2 / 2
    # lies past the float range and reads inf.
    ypath = tmp_path / "y.csv"
    G = RandomStream(probe_seed("clifmax")).gaussian(6, 6)
    write_matrix_csv(ypath, 1e307 * (1.0 + 0.1 * G))
    code = run_cli(*decompose_args(tmp_path, ypath, mode, *extra, "--max-iter", 50))
    report = json.loads((tmp_path / "report.json").read_text())
    assert code == 2
    assert report["converged"] is False
    assert report["iterations"] == 50
    if mode == "regularized":
        assert report["objective"] == "inf"
        return
    # Recomputed from the written pair, on its entries times 2^-1000 so
    # that the sums stay in range; the two sums differ in order only.
    k = 2.0 ** -1000
    X_S, X_L = (k * read_matrix_csv(tmp_path / name) for name in ("xs.csv", "xl.csv"))
    scaled = (report["lambda"] * float(np.abs(X_S).sum())
              + float(np.linalg.svd(X_L, compute_uv=False).sum()))
    assert math.isfinite(scaled / k)
    assert report["objective"] == pytest.approx(scaled / k, rel=1e-12)
