import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_still_exist():
    # The benchmark's tracer records a missing name and carries on, so a
    # renamed or deleted function would silently empty its per-layer metrics.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"splr.{layer}"), name, None))
    ]
    assert missing == []
