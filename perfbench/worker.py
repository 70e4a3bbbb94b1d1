"""One pass of one workload, in a fresh process: run every cell once and
print one JSON line with the pass's wall time, each cell's time, set-up
time, digest, exact counters and invariant violations, the process's peak
resident memory and, when traced, the per-layer totals. Times are read
on the calibrated clock (clock.py); the pass's host seconds and the host's
slowdown are reported beside them.

    python3 perfbench/worker.py --workload desk_sweep --seed 1 --trace 0

run.py starts it; it imports the simulator from the checkout's `src/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"


def import_simulator():
    """Import wsnlife from this checkout, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "wsnlife" / "__init__.py").is_file():
        sys.exit(f"worker: no simulator source at {src / 'wsnlife'}")
    sys.path.insert(0, str(src))
    import wsnlife

    if Path(wsnlife.__file__).resolve().parent != (src / "wsnlife").resolve():
        sys.exit(f"worker: imported wsnlife from {wsnlife.__file__}, not {src}")
    from wsnlife import engine, experiment, maintenance, metrics

    return {
        "engine": engine,
        "experiment": experiment,
        "maintenance": maintenance,
        "metrics": metrics,
    }


def platform_id() -> dict:
    """What the digests depend on: numpy's exp, for one, dispatches on the
    CPU's SIMD support (see digests.json)."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def layer_metrics(tracer, results, seconds) -> dict[str, float]:
    t = tracer.totals(seconds)
    c = tracer.counts

    def span(name, field):
        return t.get(name, {}).get(field, 0)

    done = [r for r in results if r is not None]
    delivered = sum(int(r.final_summary["packets_delivered"]) for r in done)
    dropped = sum(int(r.final_summary["packets_dropped"]) for r in done)
    maintain_calls = span("maintenance.maintain", "calls")
    return {
        "engine.step_self_s": span("engine.step", "self_s"),
        "engine.steps": span("engine.step", "calls"),
        "engine.packets_delivered": delivered,
        "engine.packets_dropped": dropped,
        "engine.delivery_ratio": delivered / (delivered + dropped)
        if delivered + dropped
        else 0.0,
        "construction.construct_s": span("construction.construct", "total_s"),
        "construction.construct_calls": span("construction.construct", "calls"),
        "construction.control_packets": c["construction.control_packets"],
        "construction.active_nodes": c["construction.active_nodes"],
        "maintenance.should_trigger_s": span("maintenance.should_trigger", "total_s"),
        "maintenance.should_trigger_calls": span("maintenance.should_trigger", "calls"),
        "maintenance.maintain_self_s": span("maintenance.maintain", "self_s"),
        "maintenance.rotated": c["maintenance.rotated"],
        "maintenance.recreated": c["maintenance.recreated"],
        "maintenance.retained": c["maintenance.retained"],
        "maintenance.retained_ratio": c["maintenance.retained"] / maintain_calls
        if maintain_calls
        else 0.0,
        "metrics.sample_s": span("metrics.sample", "total_s"),
        "metrics.samples": span("metrics.sample", "calls"),
        "metrics.sink_reachable_s": span("metrics.sink_reachable", "total_s"),
        "metrics.sink_reachable_calls": span("metrics.sink_reachable", "calls"),
        # self time: without the sink_reachable call nested in each
        "metrics.comm_coverage_s": span("metrics.comm_coverage", "self_s"),
        "metrics.sensing_coverage_s": span("metrics.sensing_coverage", "self_s"),
        "metrics.alive_count_s": span("metrics.alive_count", "total_s"),
        "experiment.write_s": span("experiment.write", "total_s"),
        "experiment.bytes_written": c["experiment.bytes_written"],
        "deployment.deploy_s": span("deployment.deploy", "total_s"),
    }


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    modules = import_simulator()
    import workloads
    from clock import CalibratedClock
    from tracing import Tracer

    engine, experiment = modules["engine"], modules["experiment"]
    cells = workloads.cells(workload, seed)
    results: list = [None] * len(cells)
    errors: list = [None] * len(cells)
    pass_errors: list[str] = []

    tracer = Tracer()
    tracer.install(engine, "initialize", "engine.initialize")
    if traced:
        tracer.install_layers(modules)
    clock = CalibratedClock()
    clock.start()

    if workload == "desk_sweep":
        configs = []

        def keep(result, args):
            configs.append(args[0])
            results[len(configs) - 1] = result

        tracer.install(experiment, "run", "cell", keep, tracer.start_cell)
        SCRATCH.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=SCRATCH))
        spec = workloads.desk_spec(seed, out)
        start = perf_counter()
        try:
            written = experiment.run_experiment(spec)
        except Exception as exc:  # a failed cell stops the sweep
            written = None
            message = f"{type(exc).__name__}: {exc}"
            failed = len(configs)
            if failed < len(cells):
                errors[failed] = message
                for i in range(failed + 1, len(cells)):
                    errors[i] = "not run: the sweep stopped"
            else:
                pass_errors.append(message)
        end = perf_counter()
        shutil.rmtree(out)
        keys = [workloads.cell_key("desk", c) for c in configs]
        if keys != [c.key for c in cells[: len(keys)]]:
            pass_errors.append("the sweep ran other cells than the workload lists")
        if written is not None and len(written) != len(cells) + 2:
            pass_errors.append(
                f"the sweep wrote {len(written)} files, expected {len(cells) + 2}"
            )
    else:
        timed_run = tracer.wrap(engine.run, "cell", before=tracer.start_cell)
        start = perf_counter()
        for i, cell in enumerate(cells):
            try:
                results[i] = timed_run(cell.config)
            except Exception as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
    clock.stop()
    tracer.uninstall()

    run_s = tracer.per_cell("cell", len(cells), clock.seconds)
    setup_s = tracer.per_cell("engine.initialize", len(cells), clock.seconds)
    out_cells = []
    for i, cell in enumerate(cells):
        result = results[i]
        out_cells.append(
            {
                "key": cell.key,
                "run_s": run_s[i],
                "setup_s": setup_s[i],
                "error": errors[i],
                "digest": workloads.digest(result) if result is not None else None,
                "counters": workloads.exact_counters(result)
                if result is not None
                else None,
                "violations": workloads.violations(result, cell.config)
                if result is not None
                else [],
            }
        )
    return {
        "wall_s": clock.seconds(start, end),
        "host_wall_s": end - start,
        "slowdown": clock.slowdown(),
        "peak_rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
        "cells": out_cells,
        "errors": pass_errors,
        "layers": layer_metrics(tracer, results, clock.seconds) if traced else None,
        "platform": platform_id(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))


if __name__ == "__main__":
    main()
