"""Alternating benchmark pairs of two checkouts.

    python3 tools/pairs.py PARENT CHANGE --workload large_network --seed 1 --pairs 10

Each pair runs one untraced `perfbench/worker.py` pass of each checkout, in
the environment `perfbench/run.py` gives its workers, and swaps which side
runs first from one pair to the next. A pass's end-to-end metrics are
`run.end_to_end([pass])`, and its failed cells are counted by run.py's
checks against the recorded digests. For every end-to-end metric of
BENCHMARK.json it prints both sides' value in each pair, their medians and
quartiles, the pairs the change won (ties count for neither side) and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and its median beats the parent's by more than the distance between
the parent's quartiles. `--workload all` runs the pairs of every workload
in WORKLOADS order and prints one such table per workload.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)
from workloads import WORKLOADS  # noqa: E402


def one_pass(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced worker pass of checkout, as its JSON report."""
    done = subprocess.run(
        [
            sys.executable,
            str(checkout / "perfbench" / "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--trace",
            "0",
        ],
        cwd=checkout,
        env=run.worker_env(),
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{checkout}: pass exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and pair wins of one metric, and the claim rule:
    at least 9 of 10 wins and a median gap in the better direction wider
    than the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, _, p3 = statistics.quantiles(parent, n=4)
    c1, _, c3 = statistics.quantiles(change, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    gap = sign * (parent_median - change_median)
    return {
        "parent": (parent_median, p1, p3),
        "change": (change_median, c1, c3),
        "wins": wins,
        "claim": 10 * wins >= 9 * len(parent) and gap > p3 - p1,
    }


def run_pairs(sides: dict[str, Path], workload: str, seed: int, pairs: int) -> None:
    """Run the pairs of one workload and print its table."""
    spec = json.loads(run.SPEC.read_text())["end_to_end"]
    recorded, _ = run.load_recorded()
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    failed = dict.fromkeys(sides, 0)
    for pair in range(pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        line = []
        for side in order:
            report = one_pass(sides[side], workload, seed)
            failed[side] += run.check([report], recorded)[0]
            for name, value in run.end_to_end([report]).items():
                values[side].setdefault(name, []).append(value)
            line.append(side + "".join(
                f" {metric['name']} {values[side][metric['name']][-1]:.6g}" for metric in spec
            ))
        print(f"pair {pair + 1}: " + ", ".join(line), flush=True)

    print(f"{workload}, seed {seed}, {pairs} pairs; failed cells: "
          f"parent {failed['parent']}, change {failed['change']}")
    print(f"  {'metric':16s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'change':>7s}  wins  claim")
    for metric in spec:
        name = metric["name"]
        out = compare(values["parent"][name], values["change"][name], metric["better"])
        parent, change = ("{:.4f} [{:.4f}, {:.4f}]".format(*out[s]) for s in sides)
        shift = 100 * (out["change"][0] / out["parent"][0] - 1)
        print(f"  {name:16s} {parent:34s} {change:34s} {shift:+6.1f}% "
              f"{out['wins']:>2d}/{pairs:<3d} {'yes' if out['claim'] else 'no'}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run_pairs(sides, workload, args.seed, args.pairs)
    finally:
        for checkout in sides.values():
            shutil.rmtree(checkout / ".perfbench_tmp", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
