"""wsnlife benchmark.

    python3 perfbench/run.py --workload protocols_default --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) in fresh single-threaded worker
processes, one process per pass, for about --seconds seconds, timing on
the calibrated clock of clock.py. With
--trace 0 it prints the end-to-end metrics, medians over the passes; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead. Every pass checks each
cell against the recorded digests (digests.json) and the model
invariants, and the passes of one run must agree exactly. The last line of
standard output is one JSON object: correct, attempted and failed cells,
and the metrics with their units.

With --workload all (the default) it runs every workload untraced and then
traced, and prints every metric of every workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import HELD_OUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
RUN_LIMIT_S = 170.0  # one workload's run must end within 180 s


class BenchError(Exception):
    """A pass could not run: the result would be incomplete, so none is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONPATH", None)  # the worker imports wsnlife from ROOT/src only
    return env


def spawn(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh process and return its JSON report."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass ran past the time limit") from exc
    if done.returncode != 0:
        raise BenchError(
            f"{workload} pass exited with {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_passes(
    workload: str, seed: int, seconds: float, traced: bool, deadline: float
) -> dict[bool, list[dict]]:
    """Untraced passes (alternating with traced ones when traced) while the
    next round still fits in `seconds`; at least one round."""
    modes = (False, True) if traced else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    start = perf_counter()
    while True:
        for mode in modes:
            passes[mode].append(spawn(workload, seed, mode, deadline))
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / len(passes[False])) > seconds:
            return passes


def check(passes: list[dict], recorded: dict[str, str]) -> tuple[int, list[str]]:
    """Failed cells and the reasons: an exception, a broken invariant, a
    digest that differs from the recorded one, or passes that disagree."""
    problems: list[str] = []
    failed = 0
    for i, cell in enumerate(passes[0]["cells"]):
        key = cell["key"]
        seen = [p["cells"][i] for p in passes]
        reasons = [c["error"] for c in seen if c["error"]]
        reasons += [v for c in seen for v in c["violations"]]
        outcomes = {json.dumps([c["digest"], c["counters"]]) for c in seen}
        if not reasons and len(outcomes) > 1:
            reasons.append("nondeterministic: passes disagree on outputs or counters")
        if not reasons and key in recorded and cell["digest"] != recorded[key]:
            reasons.append("digest differs from the recorded one")
        if reasons:
            failed += 1
            problems.append(f"{key}: {reasons[0]}")
    for p in passes:
        problems += p["errors"]
    return failed, problems


def load_recorded() -> tuple[dict[str, str], dict]:
    if not DIGESTS.is_file():
        return {}, {}
    data = json.loads(DIGESTS.read_text())
    return data["cells"], data["platform"]


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    first = untraced[0]["cells"]
    wall = statistics.median(p["wall_s"] for p in untraced)
    steps = sum(c["counters"]["steps"] for c in first if c["counters"])
    return {
        "wall_s": wall,
        "sim_steps_per_s": steps / wall,
        "run_max_s": max(
            statistics.median(p["cells"][i]["run_s"] for p in untraced)
            for i in range(len(first))
        ),
        "setup_s": statistics.median(
            sum(c["setup_s"] for c in p["cells"]) for p in untraced
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in untraced) / 1024,
    }


def per_layer(passes: dict[bool, list[dict]]) -> tuple[dict[str, float], bool]:
    """Medians of the traced passes' layer times; counts must be identical."""
    traced = [p["layers"] for p in passes[True]]
    out: dict[str, float] = {}
    steady = True
    for name, value in traced[0].items():
        values = [layers[name] for layers in traced]
        if isinstance(value, int):
            steady &= len(set(values)) == 1
            out[name] = value
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in passes[True]
    ) - statistics.median(p["wall_s"] for p in passes[False])
    return out, steady


def measure(workload: str, seed: int, seconds: float, traced: bool, deadline: float):
    passes = run_passes(workload, seed, seconds, traced, deadline)
    recorded, recorded_platform = load_recorded()
    everything = passes[False] + passes[True]
    failed, problems = check(everything, recorded)
    steady = True
    if traced:
        metrics, steady = per_layer(passes)
        if not steady:
            problems.append("nondeterministic: traced passes disagree on a counter")
    else:
        metrics = end_to_end(passes[False])
    here = passes[False][0]["platform"]
    if recorded_platform and any(
        recorded_platform.get(k) != v for k, v in here.items()
    ):
        problems.append(
            f"platform {here} differs from the recorded {recorded_platform}; "
            "a digest mismatch here is a finding to investigate"
        )
    unrecorded = sum(
        1 for c in passes[False][0]["cells"] if c["key"] not in recorded
    )
    return {
        "failed": failed,
        "attempted": len(passes[False][0]["cells"]),
        "correct": failed == 0
        and steady
        and not any(p["errors"] for p in everything),
        "metrics": metrics,
        "problems": problems,
        "unrecorded": unrecorded,
        "passes": (len(passes[False]), len(passes[True])),
        "host_wall_s": statistics.median(p["host_wall_s"] for p in passes[False]),
        "slowdown": statistics.median(p["slowdown"] for p in everything),
    }


def declared_units(traced: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def report(label: str, outcome: dict, units: dict[str, str]) -> dict:
    missing = set(units) - set(outcome["metrics"])
    if missing:
        raise BenchError(f"{label}: no value for {sorted(missing)}")
    untraced, traced = outcome["passes"]
    print(f"{label}: {untraced} untraced and {traced} traced passes, "
          f"{outcome['failed']} of {outcome['attempted']} cells failed, "
          f"{outcome['unrecorded']} without a recorded digest")
    print(f"  host seconds per untraced pass {outcome['host_wall_s']:.3f}, "
          f"host slowdown {outcome['slowdown']:.3f} (times below are calibrated)")
    for problem in outcome["problems"]:
        print(f"  ! {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:36s} {outcome['metrics'][name]:>16.6f} {unit}")
    return {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    seeds.add_argument(
        "--held-out",
        action="store_true",
        help=f"use the held-out workload seed {HELD_OUT_SEED}",
    )
    parser.add_argument("--seconds", type=float, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "wsnlife" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = HELD_OUT_SEED if args.held_out else args.seed
    seconds = args.seconds or json.loads(SPEC.read_text())["run_seconds"]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]

    print(f"seed {seed}, {seconds:g} s per run, python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, traced in runs:
            deadline = perf_counter() + RUN_LIMIT_S
            outcome = measure(workload, seed, seconds, traced, deadline)
            label = f"{workload} ({'traced' if traced else 'untraced'})"
            metrics = report(label, outcome, declared_units(traced))
            result["correct"] &= outcome["correct"]
            if not traced or len(runs) == 1:  # count each cell once
                result["attempted"] += outcome["attempted"]
                result["failed"] += outcome["failed"]
            if len(runs) > 1:
                metrics = {f"{workload}/{k}": v for k, v in metrics.items()}
            result["metrics"].update(metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
