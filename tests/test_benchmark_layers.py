import importlib
import importlib.util
import json
from pathlib import Path

from splr.sweep import SweepSpec, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# One recorded sweep input set, among the quickest of the 32 to run.
FLAGS_SET = 15


def load_perfbench(name):
    """The benchmark module perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_still_exist():
    # The benchmark's tracer records a missing name and carries on, so a
    # renamed or deleted function would silently empty its per-layer metrics.
    tracing = load_perfbench("tracing")
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"splr.{layer}"), name, None))
    ]
    assert missing == []


def test_one_recorded_sweep_set_keeps_its_flags():
    # The sweep workload counts an op as failed when a cell's success flag
    # differs from perfbench/sweep_flags.json. One set's cells, built as the
    # workload builds them (the grid from the flags file, each cell's seed
    # from inputs.sub_seed), must give the recorded flags.
    inputs = load_perfbench("inputs")
    ref = json.loads((PERFBENCH / "sweep_flags.json").read_text(encoding="ascii"))
    flags = ""
    for rank in ref["ranks"]:
        for di, density in enumerate(ref["densities"]):
            for trial in range(ref["trials"]):
                spec = SweepSpec(
                    m=ref["m"], n=ref["m"], ranks=(rank,), densities=(density,), trials=1,
                    base_seed=inputs.sub_seed(FLAGS_SET, "sweep", rank, di, trial),
                    solver_max_iter=ref["max_iter"],
                )
                flags += "1" if run_sweep(spec)[0][0][7] else "0"
    assert flags == ref["flags"][FLAGS_SET]
