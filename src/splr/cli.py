"""Command-line front end: decompose an observed matrix, diagnose a target
pair's incoherence and recovery conditions, certify a target pair with a
dual certificate, generate synthetic instances, and run recovery sweeps.

Exit codes: 0 success, 1 I/O or parse failure, 2 non-convergence or an
unsatisfied certificate, 3 precondition failure.
"""

import argparse
import math
import sys
import time

from .certificate import BOUND_NAMES, build_certificate
from .incoherence import (
    PreconditionError,
    check_conditions,
    check_identifiability,
    default_lambda,
    profile,
)
from .matrixio import read_matrix_csv, write_json, write_matrix_csv
from .solvers import ConstrainedConfig, RegularizedConfig, solve_constrained, solve_regularized
from .subspaces import NeumannNonConvergence, TargetPair
from .sweep import SweepSpec, write_sweep_outputs
from .synth import InstanceSpec, gen_instance

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_CONVERGED = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with the I/O/parse code."""

    def error(self, message):
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _positive_or_inf(text):
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _parse_int_range(text):
    parts = text.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    raise ValueError(f"expected a or a:b, got {text!r}")


def _parse_float_grid(text):
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) == 3:
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError(f"bad grid {text!r}")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + i * step for i in range(count)]
    raise ValueError(f"expected lo:hi:step, got {text!r}")


def build_parser():
    parser = _Parser(prog="splr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="solve for a sparse + low-rank split of Y")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", required=True, choices=("regularized", "constrained"))
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="trade-off weight; defaults to 1/sqrt(max(m, n))")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--eps-v1", type=float, default=0.0)
    p.add_argument("--eps-star", type=float, default=0.0)
    p.add_argument("--b", type=_positive_or_inf, default=math.inf)
    p.add_argument("--tol", type=float, default=None,
                   help="exit tolerance: optimality residual (regularized, "
                        "default 1e-6) or ADMM residuals (constrained, default 1e-9)")
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--out-sparse", required=True)
    p.add_argument("--out-lowrank", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("diagnose", help="incoherence profile and recovery conditions of a target pair")
    p.add_argument("--sparse", required=True)
    p.add_argument("--lowrank", required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("certify", help="build and verify a dual certificate for a target pair")
    p.add_argument("--sparse", required=True)
    p.add_argument("--lowrank", required=True)
    p.add_argument("--noise", default=None)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("generate", help="write a synthetic instance to CSV files")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--ktilde", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="recovery success rates over a rank/density grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ranks", required=True)
    p.add_argument("--densities", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def _profile_fields(prof):
    """Report fields shared by diagnose and generate: counts, coherence
    terms and the alpha/beta product at the profile's rho."""
    return {
        "kbar": prof.kbar, "rbar": prof.rbar,
        "a": prof.a, "b": prof.b, "u": prof.u, "v": prof.v, "w": prof.w,
        "gamma": prof.gamma, "rho_star": prof.rho_star,
        "alpha": prof.alpha_star, "beta": prof.beta_star,
        "alpha_beta": prof.product,
        "identifiable": check_identifiability(prof),
    }


def cmd_decompose(args):
    Y = read_matrix_csv(args.input)
    if args.lam is None:
        args.lam = default_lambda(Y.shape)
    # Without --tol each config keeps its own default.
    tol = {} if args.tol is None else {"tol": args.tol}
    start = time.perf_counter()
    if args.mode == "regularized":
        if args.mu is None or args.mu <= 0:
            raise ValueError("regularized mode requires --mu > 0")
        cfg = RegularizedConfig(
            lam=args.lam, mu=args.mu, b=args.b, max_iter=args.max_iter, **tol,
        )
        report = solve_regularized(Y, cfg)
        mu_or_eps = args.mu
    else:
        cfg = ConstrainedConfig(
            lam=args.lam, eps_v1=args.eps_v1, eps_star=args.eps_star, b=args.b,
            max_iter=args.max_iter, **tol,
        )
        report = solve_constrained(Y, cfg)
        mu_or_eps = [args.eps_v1, args.eps_star]
    wall = time.perf_counter() - start
    write_matrix_csv(args.out_sparse, report.X_S_hat)
    write_matrix_csv(args.out_lowrank, report.X_L_hat)
    write_json(args.report, {
        "mode": report.mode,
        "lambda": args.lam,
        "mu_or_eps": mu_or_eps,
        "iterations": report.iterations,
        "converged": report.converged,
        "objective": report.objective,
        "residual_v1": report.residual_v1,
        "residual_star": report.residual_star,
        "residual_v2": report.residual_v2,
        "wall_time_seconds": wall,
    })
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_diagnose(args):
    X_S = read_matrix_csv(args.sparse)
    X_L = read_matrix_csv(args.lowrank)
    target = TargetPair(X_S, X_L)
    prof = profile(target, rho=args.rho)
    m, n = target.shape
    c = args.c
    mu = 1.0 if args.mu is None else args.mu
    payload = {
        **_profile_fields(prof),
        "m": m, "n": n,
        "rho": prof.rho, "m0": prof.m0, "n0": prof.n0,
        "c": c, "mu": mu,
    }
    for form in ("constrained", "regularized"):
        lam = args.lam if args.lam is not None else default_lambda((m, n), prof, form)
        verdict = check_conditions(prof, form, c, lam, mu=mu)
        payload[f"{form}_lambda"] = lam
        for i, ok in enumerate(verdict.passed, start=1):
            payload[f"{form}_cond{i}"] = ok
        payload[f"{form}_all_passed"] = verdict.all_passed
        payload[f"{form}_lambda_min"], payload[f"{form}_lambda_max"] = verdict.lambda_window
    write_json(args.report, payload)
    return EXIT_OK


def cmd_certify(args):
    X_S = read_matrix_csv(args.sparse)
    X_L = read_matrix_csv(args.lowrank)
    target = TargetPair(X_S, X_L)
    E = read_matrix_csv(args.noise) if args.noise else None
    cert = build_certificate(target, E, args.lam, args.mu, args.c)
    cap_support = cert.lam / cert.c
    cap_space = 1.0 / cert.c
    payload = {
        "lambda": cert.lam, "mu": cert.mu, "c": cert.c,
        "eps_2to2": cert.eps_2to2,
        "eps_vinf": cert.eps_vinf,
        "eps_star_prime": cert.eps_star_prime,
        "feasibility_support": cert.feasibility_residuals[0],
        "feasibility_space": cert.feasibility_residuals[1],
        "complement_support": cert.complement_norms[0],
        "complement_support_cap": cap_support,
        "complement_space": cert.complement_norms[1],
        "complement_space_cap": cap_space,
    }
    for name, (measured, bound, ok) in zip(BOUND_NAMES, cert.bound_diagnostics):
        payload[f"{name}_measured"] = measured
        payload[f"{name}_bound"] = bound
        payload[f"{name}_satisfied"] = ok
    all_ok = cert.all_bounds_satisfied
    payload["all_satisfied"] = all_ok
    write_json(args.report, payload)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_generate(args):
    spec = InstanceSpec(
        m=args.m, n=args.n, rbar=args.rank, ktilde=args.ktilde,
        sigma=args.sigma, seed=args.seed,
    )
    inst = gen_instance(spec)
    prefix = args.out_prefix
    write_matrix_csv(f"{prefix}_Y.csv", inst.Y)
    write_matrix_csv(f"{prefix}_XS.csv", inst.target.X_S)
    write_matrix_csv(f"{prefix}_XL.csv", inst.target.X_L)
    write_matrix_csv(f"{prefix}_E.csv", inst.E)
    write_json(f"{prefix}_meta.json", {
        **_profile_fields(inst.profile),
        "m": spec.m, "n": spec.n, "rank": spec.rbar, "ktilde": spec.ktilde,
        "sigma": spec.sigma, "seed": spec.seed,
        "amplitude": spec.amplitude, "magnitude_law": spec.magnitude_law,
        "eps_2to2": inst.eps_2to2,
        "eps_vinf": inst.eps_vinf,
        "eps_star_prime": inst.eps_star_prime,
    })
    return EXIT_OK


def cmd_sweep(args):
    spec = SweepSpec(
        m=args.m, n=args.n,
        ranks=_parse_int_range(args.ranks),
        densities=_parse_float_grid(args.densities),
        trials=args.trials, base_seed=args.seed,
    )
    write_sweep_outputs(spec, args.out, jobs=max(1, args.jobs))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PreconditionError, NeumannNonConvergence) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError) as exc:
        # ValueError covers MatrixIOError and bad argument values.
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
