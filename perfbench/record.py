"""Record the per-cell output digests that run.py checks against.

    python3 perfbench/record.py --seeds 0-15,1009

Runs one untraced pass of every workload on each workload seed, at most
two at a time, each in a fresh process, and writes digests.json: a sha256
per cell over the metric series and death times, with the platform the
digests were taken on. Record them from the commit whose outputs are the
reference; a cell that raises or breaks an invariant is not recorded.
"""
from __future__ import annotations

import argparse
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

from run import DIGESTS, spawn
from workloads import WORKLOADS

HAZARD = (
    "The digests hold for the platform below. numpy's exp dispatches on the "
    "CPU's SIMD support: on an AVX-512 host np.exp and math.exp differ by "
    "1 ulp on about 4.6% of the values in the default sensing band. The simulator "
    "mixes both: metrics._sense_probability_grid uses np.exp, A3Cov "
    "promotion uses sense_probability (math.exp). A mismatch on another "
    "platform is a finding to investigate, not a digest to record again."
)


def parse_seeds(text: str) -> list[int]:
    """'0-15,1009' -> [0, 1, ..., 15, 1009]"""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15,1009")
    args = parser.parse_args()
    jobs = [(w, s) for w in WORKLOADS for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        passes = list(
            pool.map(lambda j: spawn(j[0], j[1], False, perf_counter() + 3600), jobs)
        )
    cells: dict[str, str] = {}
    for (workload, seed), report in zip(jobs, passes):
        for cell in report["cells"]:
            if cell["error"] or cell["violations"]:
                raise SystemExit(f"{cell['key']}: {cell['error'] or cell['violations']}")
            cells[cell["key"]] = cell["digest"]
    platform = {**passes[0]["platform"], "cpu": cpu_model()}
    DIGESTS.write_text(
        json.dumps(
            {"note": HAZARD, "platform": platform, "seeds": args.seeds,
             "cells": dict(sorted(cells.items()))},
            indent=1,
        )
        + "\n"
    )
    print(f"recorded {len(cells)} cells in {DIGESTS}")


if __name__ == "__main__":
    main()
