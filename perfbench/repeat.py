"""Run the benchmark once per seed and summarize each metric over the runs.

    python3 perfbench/repeat.py --workload desk_sweep --seeds 1-10 --trace 0 --out runs.json
    python3 perfbench/repeat.py ... --compare parent.json

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, (q3 - q1) /
median, beside the metric's bound from BENCHMARK.json. With --compare it
also reads an earlier --out file and reports, per metric, the median's
change against it and whether it is worse by more than the bound. With
--trace 1 it also lists every count that differs from the earlier file's
run on the same seed: between two runs of one commit that is
nondeterminism, between two commits a counter the change moved.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record import cpu_model, parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {done.returncode}:\n{done.stderr}")
    if done.stderr.strip():
        print(done.stderr.strip(), file=sys.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write runs and summary as JSON")
    parser.add_argument("--compare", type=Path, help="an earlier --out file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before = json.loads(args.compare.read_text()) if args.compare else {}
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    report: dict[str, dict] = {
        "platform": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        }
    }
    ok = True
    for workload in args.workload:
        runs = []
        for seed in seeds:
            result = one_run(workload, seed, args.trace)
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
        names = list(runs[0]["metrics"])
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in names
        }
        report[workload] = {"trace": args.trace, "runs": runs, "summary": summary}
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}, "
              f"{sum(not r['correct'] for r in runs)} incorrect")
        old = before.get(workload)
        for name in names:
            s, bound = summary[name], declared[name].get("bound")
            line = (f"  {name:36s} median {s['median']:14.6f}  q1 {s['q1']:14.6f}"
                    f"  q3 {s['q3']:14.6f}  spread {s['spread']:6.3f}")
            if bound is not None:
                line += f"  bound {bound}"
            if old and name in old["summary"]:
                base = old["summary"][name]["median"]
                change = (s["median"] - base) / base if base else 0.0
                worse = change if declared[name]["better"] == "lower" else -change
                line += f"  change {change:+.3f}"
                if bound is not None and worse > bound:
                    line += "  WORSE THAN BOUND"
            print(line)
        if old and args.trace:
            earlier = {r["seed"]: r["metrics"] for r in old["runs"]}
            for r in runs:
                for name, m in r["metrics"].items():
                    prior = earlier.get(r["seed"], {}).get(name)
                    if isinstance(m["value"], int) and prior and prior["value"] != m["value"]:
                        print(f"  seed {r['seed']} {name}: {prior['value']} -> {m['value']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
