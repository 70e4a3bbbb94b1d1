import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import wsnlife
from wsnlife import ConstructionCharge, engine, experiment, maintenance


def perfbench_module(name: str, monkeypatch):
    """perfbench/<name>.py, loaded from its file, and listed in sys.modules
    for the test (dataclasses looks up the module of each class it builds):
    the benchmark is no package, and the tests never run it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_all_exports_resolve_sorted_and_unique():
    names = wsnlife.__all__
    missing = [name for name in names if not hasattr(wsnlife, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_benchmark_tracer_targets_resolve(monkeypatch):
    """perfbench/tracing.py wraps module globals of the simulator and reads
    ConstructionCharge.sent; perfbench/worker.py times engine.run and
    engine.initialize, wraps experiment.run and calls
    experiment.run_experiment for the desk sweep. The tests never run the
    tracer or the worker, so a deletion in the package that breaks them
    shows here. A wrap takes effect only where the caller looks the global
    up by name at call time, so each wrapped one must be named in its
    caller's code."""
    tracing = perfbench_module("tracing", monkeypatch)
    targets = [(module, attr) for module, attr, _ in tracing.TRACED] + [
        ("engine", "run"),
        ("engine", "initialize"),
        ("experiment", "run"),
        ("experiment", "run_experiment"),
    ]
    missing = [
        (module, attr)
        for module, attr in targets
        if not hasattr(importlib.import_module(f"wsnlife.{module}"), attr)
    ]
    assert missing == []
    assert hasattr(ConstructionCharge(), "sent")
    assert "run" in experiment.run_experiment.__code__.co_names
    callers = {
        engine.run: {"initialize", "step", "sample_metrics"},
        engine.initialize: {"deploy", "construct"},
        engine.step: {"should_trigger", "maintain"},
        engine.sample_metrics: {
            "alive_count",
            "sink_reachable",
            "comm_coverage",
            "sensing_coverage",
        },
        maintenance.maintain: {"construct"},
    }
    for caller, names in callers.items():
        assert names <= set(caller.__code__.co_names), caller.__name__


def test_benchmark_inputs_pass_the_config_checks(tmp_path, monkeypatch):
    """A SimConfig or ExperimentSpec checks itself on construction, so a
    tightened check could reject a benchmark input that only a benchmark
    run would build. Every workload's cells on a development seed and on
    the held-out one, and the desk sweep's spec, are built here; nothing
    runs."""
    workloads = perfbench_module("workloads", monkeypatch)
    for name in workloads.WORKLOADS:
        for seed in (1, workloads.HELD_OUT_SEED):
            assert workloads.cells(name, seed)
    workloads.desk_spec(1, tmp_path)


def test_no_module_imports_a_name_it_never_uses():
    """No linter runs on the package, so this stands in for its unused-import
    rule; __init__.py imports to re-export."""
    unused = []
    for path in sorted(Path(wsnlife.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, line, name) for name, line in imported.items() if name not in used]
    assert unused == []


def test_energy_and_sensing_constants_are_read_in_one_home():
    """The radio model's per-bit constants are read only in radio.py, the
    sensing decay only in metrics.sense_probabilities, and model.py defines
    them: a loop that hoists a cost takes radio.tx_coefficients or the
    sensing batch, so no formula is copied beside its home."""
    names = {"elec_energy_per_bit", "amp_energy_per_bit_m2", "decay_rate", "decay_exponent"}
    homes = {("radio.py", None), ("metrics.py", "sense_probabilities"), ("model.py", None)}

    def reads(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield function, node.attr
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in names
        ):
            yield function, node.args[1].value
        for child in ast.iter_child_nodes(node):
            yield from reads(child, function)

    found = []
    for path in sorted(Path(wsnlife.__file__).parent.glob("*.py")):
        if (path.name, None) in homes:
            continue
        for function, name in reads(ast.parse(path.read_text()), None):
            if (path.name, function) not in homes:
                found.append((path.name, function, name))
    assert found == []


def test_the_sink_has_one_name():
    """SINK_ID is the one spelling of the sink's id: no module reads a
    `root` attribute or spells `sink.id`, so a second name for the one
    value cannot creep back."""
    found = []
    for path in sorted(Path(wsnlife.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = getattr(node.value, "attr", getattr(node.value, "id", None))
            if node.attr == "root" or (node.attr, owner) == ("id", "sink"):
                found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []
