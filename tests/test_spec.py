"""The executable spec (spec.py) against the engine: on the golden digests,
a second witness, written apart from the engine, of every desk cell's
recorded outputs (the default-scale cell is left to `python tests/spec.py`),
and on random configs, run for run."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import (
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    RadioParams,
    SimConfig,
    TCProtocol,
    TMProtocol,
    TriggerKind,
    TriggerPolicy,
    run,
)

from spec import run_spec
from test_golden import CELLS, DIGESTS, digests_of


def test_spec_reproduces_the_desk_golden_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())["cells"]
    desk = [key for key in CELLS if key.startswith("desk")]
    assert len(desk) == 30
    differ = [
        key for key in desk if digests_of(run_spec(CELLS[key]), tmp_path) != recorded[key]
    ]
    assert differ == []


@st.composite
def small_configs(draw):
    """Small networks whose sensing band r + r_u (r_u = 2 m) falls inside
    and past the radio range, with batteries from a few rounds' worth to a
    full joule, every protocol pair and trigger thresholds at both ends."""
    tm = draw(st.sampled_from([*TMProtocol, None]))
    side = st.floats(50.0, 300.0)
    bits = st.integers(1, 4000)
    return SimConfig(
        deployment=DeploymentConfig(
            node_count=draw(st.integers(1, 40)),
            area=DeploymentArea(draw(side), draw(side)),
            seed=draw(st.integers(0, 2**64 - 1)),
        ),
        radio=RadioParams(
            communication_radius=draw(st.floats(20.0, 120.0)),
            sensing_radius=draw(st.floats(5.0, 40.0)),
        ),
        energy=EnergyParams(
            initial_energy=10.0 ** draw(st.floats(-3.5, 0.0)),
            control_packet_bits=draw(bits),
            data_packet_bits=draw(bits),
        ),
        tc=draw(st.sampled_from(TCProtocol)),
        tm=tm,
        trigger=TriggerPolicy(
            TriggerKind.ENERGY if tm is None else tm.trigger_kind,
            period=draw(st.integers(1, 40)),
            energy_threshold=draw(st.sampled_from([1e-6, 0.01, 0.5, 0.99, 1 - 1e-9])),
        ),
        rotation_k=draw(st.integers(1, 4)),
        grid_cell=draw(st.sampled_from([2.0, 4.0, 7.0])),
        max_steps=draw(st.integers(1, 400)),
        metrics_stride=draw(st.integers(1, 60)),
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_configs())
def test_engine_matches_the_spec_on_random_configs(config):
    assert run(config).to_dict() == run_spec(config).to_dict()
