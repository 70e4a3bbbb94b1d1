import random

import pytest

from wsnlife import (
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    SINK_ID,
    RadioParams,
    SensingParams,
    Site,
    deploy,
)

from helpers import GRID_CELL

RADIO = RadioParams()
ENERGY = EnergyParams()
SENSING = SensingParams()


def deployed(config):
    """A fresh state on a site of config under the models above."""
    return deploy(Site(config, RADIO, SENSING, GRID_CELL), ENERGY)


def test_default_deployment_matches_design_values():
    config = DeploymentConfig()
    assert config.node_count == 300
    assert config.area == DeploymentArea(1074.0, 660.0)
    state = deployed(config)
    assert len(state.nodes) == 300
    assert state.sink.position.x == pytest.approx(537.0)
    assert state.sink.position.y == pytest.approx(330.0)
    assert state.sink.id == SINK_ID == 0


def test_non_sink_nodes_start_sleeping_alive_at_full_charge():
    state = deployed(DeploymentConfig(node_count=40, seed=5))
    for node in state.nodes[1:]:
        assert node.id not in state.topology.active_set
        assert node.alive
        assert node.energy == ENERGY.initial_energy
    assert state.time == 0
    assert state.topology.active_set == {0}
    assert state.topology.parent == {}


def test_sink_only_deployment():
    state = deployed(DeploymentConfig(node_count=1, seed=0))
    assert len(state.nodes) == 1
    assert state.topology.active_set == {state.sink.id}


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        DeploymentConfig(node_count=0)


def test_same_seed_reproduces_coordinates():
    a = deployed(DeploymentConfig(node_count=100, seed=42))
    b = deployed(DeploymentConfig(node_count=100, seed=42))
    assert [(n.position.x, n.position.y) for n in a.nodes] == [
        (n.position.x, n.position.y) for n in b.nodes
    ]


def test_coordinates_inside_area():
    config = DeploymentConfig(node_count=500, area=DeploymentArea(200.0, 50.0), seed=9)
    state = deployed(config)
    for node in state.nodes:
        assert 0.0 <= node.position.x <= 200.0
        assert 0.0 <= node.position.y <= 50.0


def test_distinct_seeds_give_distinct_placements():
    rng = random.Random(123)
    for _ in range(100):
        s1 = rng.getrandbits(64)
        s2 = rng.getrandbits(64)
        if s1 == s2:
            continue
        a = deployed(DeploymentConfig(node_count=30, seed=s1))
        b = deployed(DeploymentConfig(node_count=30, seed=s2))
        assert [(n.position.x, n.position.y) for n in a.nodes] != [
            (n.position.x, n.position.y) for n in b.nodes
        ]


def test_uniformity_chi_square_smoke():
    n = 10_000
    config = DeploymentConfig(node_count=n, area=DeploymentArea(400.0, 400.0), seed=2024)
    state = deployed(config)
    counts = [[0] * 4 for _ in range(4)]
    for node in state.nodes[1:]:
        cx = min(int(node.position.x / 100.0), 3)
        cy = min(int(node.position.y / 100.0), 3)
        counts[cy][cx] += 1
    expected = (n - 1) / 16.0
    chi2 = sum((c - expected) ** 2 / expected for row in counts for c in row)
    # 99.9% quantile of chi-square with 15 degrees of freedom
    assert chi2 < 37.698
