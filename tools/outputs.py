"""Which run outputs differ between two checkouts.

    python3 tools/outputs.py PARENT CHANGE --seed 1

Runs the golden cells (tests/test_golden.py), every benchmark workload's
cells on one workload seed (perfbench/workloads.py) and the
`protocols_default` cells of that seed again with `tc = A3Cov`, each alone
through `run(config)`, in both checkouts, one subprocess per side, each
importing the simulator from its own `src/`. Each side also runs two
sweeps through `run_experiment`, each into a temporary directory, so that
a change to how a sweep shares work between its cells shows too: the
`desk_sweep` workload's spec for the seed, and a default-scale sweep of
A3 and A3Cov under every maintenance protocol and none on the deployment
of that seed, whose S and H cells rotate the A3Cov entries that no desk
cell runs at default scale. For each cell whose `RunResult.to_dict()`
differs it prints the keys that differ, with the length of each side's
value (the event count, for `maintenance_events`), and for each written
sweep file that differs, `bytes` with each side's size. Exits 1 when some
cell or file differs, else 0.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def collect(checkout: Path, seed: int) -> dict:
    """Each cell's to_dict(), as a (sha256, length) pair per key, and each
    file the two sweeps write, as its (sha256, size) under `bytes`."""
    for sub in ("perfbench", "tests", "src"):
        sys.path.insert(0, str(checkout / sub))
    import workloads
    import wsnlife
    from test_golden import golden_cells
    from wsnlife.experiment import ExperimentSpec, run_experiment

    if not Path(wsnlife.__file__).is_relative_to(checkout / "src"):
        sys.exit(f"imported wsnlife from {wsnlife.__file__}, not {checkout / 'src'}")
    configs = {f"golden/{key}": config for key, config in golden_cells().items()}
    for name in workloads.WORKLOADS:
        configs.update((f"{name}/{c.key}", c.config) for c in workloads.cells(name, seed))
    # no golden or benchmark cell runs A3Cov at the default scale
    for c in workloads.cells("protocols_default", seed):
        config = replace(c.config, tc=wsnlife.TCProtocol.A3COV)
        configs[f"a3cov_default/{workloads.cell_key('default', config)}"] = config
    found = {}
    for key, config in configs.items():
        found[key] = {
            name: [sha256(json.dumps(v, sort_keys=True).encode()), len(v)]
            for name, v in wsnlife.run(config).to_dict().items()
        }
    sweeps = {
        "desk_sweep_files": lambda out: workloads.desk_spec(seed, out),
        "default_sweep_files": lambda out: ExperimentSpec(
            base=wsnlife.SimConfig(),
            tc_list=[tc.value for tc in wsnlife.TCProtocol],
            tm_list=[tm.value for tm in wsnlife.TMProtocol] + ["None"],
            seeds=[seed],
            output_dir=out,
        ),
    }
    for name, spec in sweeps.items():
        with tempfile.TemporaryDirectory() as out:
            for path in run_experiment(spec(Path(out))):
                data = path.read_bytes()
                found[f"{name}/{path.name}"] = {"bytes": [sha256(data), len(data)]}
    return found


def side(checkout: Path, seed: int) -> dict:
    script = str(Path(__file__).resolve())
    args = [sys.executable, script, "--collect", str(checkout), "--seed", str(seed)]
    done = subprocess.run(args, capture_output=True, text=True, cwd=checkout)
    if done.returncode != 0:
        sys.exit(f"{checkout}: exited with {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.collect is not None:
        print(json.dumps(collect(args.collect.resolve(), args.seed)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the PARENT and CHANGE checkouts")
    parent, change = (side(c.resolve(), args.seed) for c in (args.parent, args.change))
    if parent.keys() != change.keys():
        sys.exit("the two checkouts run different cells")
    differ = 0
    for key, before in parent.items():
        after = change[key]
        moved = [
            f"{n} ({before.get(n, [0, '-'])[1]} -> {after.get(n, [0, '-'])[1]})"
            for n in sorted(before.keys() | after.keys())
            if before.get(n) != after.get(n)
        ]
        if moved:
            differ += 1
            print(f"{key}: {', '.join(moved)}")
    print(f"{differ} of {len(parent)} cells and sweep files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
