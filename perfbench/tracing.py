"""Span tracer for the per-layer metrics.

The tracer wraps named public functions of the splr modules from outside
the library. A module that did `from .matrices import thin_svd` holds its
own reference, so each wrapper replaces the original under every name,
in every splr module and in the package namespace, that refers to it.

Each wrapped call records one span: name, start, end, parent span and op
id. Spans are kept in flat arrays in memory and written out once, when the
run ends. Counts that belong to a layer (SVD work, bytes on disk, solver
iterations, sweep outcomes) are taken at the same call boundaries.
"""

import os
import sys
import time
from array import array

import numpy as np

# Layer (splr module) -> the public functions traced in it.
LAYERS = {
    "matrices": ("thin_svd", "svd", "as_matrix"),
    "prox": ("svt", "soft_threshold", "prox_l1_box", "project_l1_ball",
             "project_nuclear_ball"),
    "norms": ("trace_norm", "induced_norm", "entrywise_norm"),
    "subspaces": ("project_T", "project_support", "neumann_inverse"),
    "incoherence": ("profile", "check_conditions", "simplified_parameters"),
    "solvers": ("solve_constrained", "solve_regularized"),
    "certificate": ("build_certificate", "verify_bounds"),
    "synth": ("gen_instance",),
    "sweep": ("run_sweep",),
    "matrixio": ("read_matrix_csv", "write_matrix_csv"),
    "cli": ("main",),
}


def svd_gflop(shape):
    """Operation count of a thin SVD with singular vectors (U1, S, V), in
    GFLOP: the cheaper of Golub-Reinsch (14mn^2 + 8n^3) and R-SVD
    (6mn^2 + 20n^3) from Golub & Van Loan, with m >= n. Computed from the
    shape, not measured."""
    m, n = max(shape), min(shape)
    return min(14 * m * n * n + 8 * n ** 3, 6 * m * n * n + 20 * n ** 3) / 1e9


class Tracer:
    """Records spans and layer counts while installed; single-threaded."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.op = -1
        self.counts = {
            "thin_svd_gflop": 0.0,
            "read_bytes": 0,
            "write_bytes": 0,
            "iterations": 0,
            "dykstra_iterations": 0,
            "solves": 0,
            "solves_converged": 0,
            "trials": 0,
            "trial_successes": 0,
        }
        self.missing = []
        self._stack = [-1]
        self._patched = []

    # -- counts taken at call boundaries ---------------------------------

    def _count(self, qualname, args, kwargs, result):
        c = self.counts
        first = args[0] if args else next(iter(kwargs.values()))
        if qualname == "matrices.thin_svd":
            c["thin_svd_gflop"] += svd_gflop(np.shape(first))
        elif qualname == "matrixio.read_matrix_csv":
            c["read_bytes"] += os.path.getsize(first)
        elif qualname == "matrixio.write_matrix_csv":
            c["write_bytes"] += os.path.getsize(first)
        elif qualname.startswith("solvers.solve_"):
            c["solves"] += 1
            c["solves_converged"] += bool(result.converged)
            c["iterations"] += int(result.iterations)
            c["dykstra_iterations"] += int(
                result.diagnostics.get("dykstra_total_iterations", 0))
        elif qualname == "sweep.run_sweep":
            rows = result[0]
            c["trials"] += len(rows)
            c["trial_successes"] += sum(1 for row in rows if row[-1])

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, name_id = self.start, self.end, self.name_id
        parent, op_id, stack = self.parent, self.op_id, self._stack
        perf = time.perf_counter
        counted = qualname in (
            "matrices.thin_svd", "matrixio.read_matrix_csv",
            "matrixio.write_matrix_csv", "solvers.solve_constrained",
            "solvers.solve_regularized", "sweep.run_sweep",
        )
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counted:
                tracer._count(qualname, args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self):
        """Replace every reference to each traced function in the loaded
        splr modules with its wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "splr" or name.startswith("splr."))]
        for layer, fnames in LAYERS.items():
            home = sys.modules.get(f"splr.{layer}")
            for fname in fnames:
                qualname = f"{layer}.{fname}"
                orig = getattr(home, fname, None) if home else None
                if not callable(orig):
                    self.missing.append(qualname)
                    continue
                wrapper = self._wrap(qualname, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def per_name(self):
        """{qualname: (calls, self seconds, inclusive seconds)} over every
        recorded span."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested],
                              minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=self_time, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        return {q: (int(calls[i]), float(busy[i]), float(total[i]))
                for i, q in enumerate(self.names)}

    def write(self, path):
        """Write every span to an .npz file: parallel arrays plus the name
        table that name_id indexes."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op_id=np.frombuffer(self.op_id, dtype=np.int64),
        )
