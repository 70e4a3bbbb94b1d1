"""Golden digests: a seeded run must reproduce its recorded outputs byte for
byte across refactors.

Each cell hashes the whole of RunResult.to_dict() (series, death times,
maintenance events and the final summary) and the bytes of its series CSV.
The cells are the desk scenario for A3/A3Cov x the six protocols plus the
no-maintenance baseline x seeds 1 and 2, one default-scale DGETRec run, and
two desk A3Cov cells whose sensing band, r - r_u < R < r + r_u, straddles
the communication radius, so sensors beyond one hop decide promotions.

The digests are tied to the platform they were recorded on (see
golden/digests.json): coverage footprints and the A3Cov promotion evaluate
the sensing band with one exp, libm's through math.exp, so the digests
depend on that libm but not on numpy's SIMD dispatch. A mismatch on another
platform is a finding to investigate, not a value to re-record. Re-record
(`PYTHONPATH=src python tests/test_golden.py`) only for a declared change of
simulated results.
"""
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnlife import (
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    RadioParams,
    RunResult,
    SimConfig,
    TCProtocol,
    TMProtocol,
    TriggerKind,
    TriggerPolicy,
    run,
)
from wsnlife.experiment import ExperimentSpec, emit_series, run_experiment

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def desk_config(tc, tm, seed, sensing_radius=15.0):
    """The acceptance suite's desk scenario: 100 nodes on 300 x 200 m,
    R = 60 m, r = 15 m, 0.02 J, period 25, 1500 steps, stride 10."""
    kind = tm.trigger_kind if tm is not None else TriggerKind.ENERGY
    return SimConfig(
        deployment=DeploymentConfig(
            node_count=100, area=DeploymentArea(300.0, 200.0), seed=seed
        ),
        radio=RadioParams(communication_radius=60.0, sensing_radius=sensing_radius),
        energy=EnergyParams(initial_energy=0.02),
        tc=tc,
        tm=tm,
        trigger=TriggerPolicy(kind, period=25, energy_threshold=0.6),
        max_steps=1500,
        metrics_stride=10,
    )


def golden_cells() -> dict[str, SimConfig]:
    cells = {}
    for tc in TCProtocol:
        for tm in [*TMProtocol, None]:
            for seed in (1, 2):
                name = tm.value if tm is not None else "None"
                cells[f"desk/{tc.value}/{name}/{seed}"] = desk_config(tc, tm, seed)
    cells["default/A3/DGETRec/1"] = SimConfig()
    # r = R = 60 m, so partial detections reach 2 m past the radio range.
    for tm in (TMProtocol.DGETREC, TMProtocol.SGETROT):
        cells[f"desk-r60/A3Cov/{tm.value}/1"] = desk_config(
            TCProtocol.A3COV, tm, 1, sensing_radius=60.0
        )
    return cells


def cell_digests(config: SimConfig, scratch: Path) -> dict[str, str]:
    return digests_of(run(config), scratch)


def digests_of(result: RunResult, scratch: Path) -> dict[str, str]:
    """The digests of a run's to_dict() and of its series CSV."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    csv_bytes = emit_series(result, scratch / "series.csv").read_bytes()
    return {
        "result": hashlib.sha256(text.encode()).hexdigest(),
        "series_csv": hashlib.sha256(csv_bytes).hexdigest(),
    }


def current_platform() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


CELLS = golden_cells()


@pytest.mark.parametrize("key", list(CELLS))
def test_golden_digest(key, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    got = cell_digests(CELLS[key], tmp_path)
    assert got == recorded["cells"][key], (
        f"{key} differs from its golden digest; recorded on "
        f"{recorded['platform']}, running on {current_platform()}"
    )


def test_sweep_on_one_grid_matches_golden_series(tmp_path):
    # run_experiment shares one coverage grid across its cells; each series
    # it writes must still be the one its cell writes when run alone
    recorded = json.loads(DIGESTS.read_text())["cells"]
    spec = ExperimentSpec(
        base=desk_config(TCProtocol.A3, TMProtocol.DGETREC, 1),
        tc_list=[tc.value for tc in TCProtocol],
        tm_list=[tm.value for tm in TMProtocol] + ["None"],
        seeds=[1, 2],
        output_dir=tmp_path,
    )
    run_experiment(spec)
    for tc in spec.tc_list:
        for tm in spec.tm_list:
            for seed in spec.seeds:
                csv_bytes = (tmp_path / f"series_{tc}_{tm}_seed{seed}.csv").read_bytes()
                key = f"desk/{tc}/{tm}/{seed}"
                assert hashlib.sha256(csv_bytes).hexdigest() == recorded[key]["series_csv"], key


def test_golden_covers_every_cell():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded["cells"]) == sorted(CELLS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {key: cell_digests(config, Path(scratch)) for key, config in CELLS.items()}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(
        json.dumps({"platform": current_platform(), "cells": digests}, indent=1) + "\n"
    )
    print(f"recorded {len(digests)} cells to {DIGESTS}", file=sys.stderr)
