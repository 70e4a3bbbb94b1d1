"""Initial node placement: uniform random positions with the sink at the center."""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import (
    SINK_ID,
    DeploymentArea,
    EnergyParams,
    NetworkState,
    Node,
    Point,
    RadioParams,
    SensingParams,
    Topology,
)
from .radio import QUANTIZER


@dataclass(frozen=True)
class DeploymentConfig:
    node_count: int = 300
    area: DeploymentArea = field(default_factory=lambda: DeploymentArea(1074.0, 660.0))
    seed: int = 1

    def __post_init__(self):
        if self.node_count < 1:
            raise ConfigError("node_count", "must be at least 1 (the sink)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must fit in 64 unsigned bits")


def deploy(
    config: DeploymentConfig,
    radio: RadioParams,
    energy: EnergyParams,
    sensing: SensingParams,
) -> NetworkState:
    """Place node 0 (the sink) at the area center and the rest uniformly at
    random, in a state that carries the radio, energy and sensing models.

    The generator is Python's Mersenne Twister seeded with config.seed, drawn
    through random() only, node by node, x before y. That sequence is pinned:
    placements must be bit-stable across runs, so the generator is never
    changed silently. Every battery starts at the initial energy rounded to
    whole quanta.
    """
    rng = random.Random(config.seed)
    width, height = config.area.width, config.area.height
    initial = (energy.initial_energy + QUANTIZER) - QUANTIZER
    center = Point(width / 2.0, height / 2.0)
    nodes = [Node(id=SINK_ID, position=center, energy=initial)]
    for node_id in range(1, config.node_count):
        x = rng.random() * width
        y = rng.random() * height
        nodes.append(Node(id=node_id, position=Point(x, y), energy=initial))
    empty = Topology(active_set={SINK_ID}, parent={})
    return NetworkState(nodes, config.area, radio, energy, sensing, empty)
