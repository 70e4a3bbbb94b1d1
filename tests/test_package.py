import importlib
import importlib.util
from pathlib import Path

import wsnlife
from wsnlife import ConstructionCharge


def test_all_exports_resolve_sorted_and_unique():
    names = wsnlife.__all__
    missing = [name for name in names if not hasattr(wsnlife, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_benchmark_tracer_targets_resolve():
    """perfbench/tracing.py wraps module globals of the simulator and reads
    ConstructionCharge.sent; the tests never run the tracer, so a deletion
    in the package that breaks it shows here."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr, _ in tracing.TRACED
        if not hasattr(importlib.import_module(f"wsnlife.{module}"), attr)
    ]
    assert missing == []
    assert hasattr(ConstructionCharge(), "sent")
