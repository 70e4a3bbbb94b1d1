"""Shared domain types: nodes, parameters, topology, and the network state container."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    from .engine import Routes

SINK_ID = 0


class Role(Enum):
    SINK = "sink"
    ACTIVE = "active"
    SLEEPING = "sleeping"


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two positions, in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class DeploymentArea:
    width: float
    height: float

    def __post_init__(self):
        for name in ("width", "height"):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be positive")


@dataclass(frozen=True)
class RadioParams:
    """Radio front-end constants plus the fixed communication and sensing radii."""

    tx_power: float = 1.0
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    height_tx: float = 1.0
    height_rx: float = 1.0
    transceiver_constant: float = 1.0
    communication_radius: float = 100.0
    sensing_radius: float = 20.0

    def __post_init__(self):
        for name in (
            "tx_power",
            "gain_tx",
            "gain_rx",
            "height_tx",
            "height_rx",
            "transceiver_constant",
            "communication_radius",
            "sensing_radius",
        ):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be positive")


@dataclass(frozen=True)
class EnergyParams:
    """First-order radio dissipation constants and the per-node battery budget.

    elec_energy_per_bit is spent in transceiver electronics on both ends of a
    hop; amp_energy_per_bit_m2 is spent in the transmit amplifier and scales
    with the square of the hop distance.
    """

    elec_energy_per_bit: float = 50e-9
    amp_energy_per_bit_m2: float = 10e-12
    initial_energy: float = 1.0
    control_packet_bits: int = 128
    data_packet_bits: int = 1000

    def __post_init__(self):
        for name in ("elec_energy_per_bit", "amp_energy_per_bit_m2", "initial_energy"):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be positive")
        for name in ("control_packet_bits", "data_packet_bits"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be at least 1 bit")


@dataclass(frozen=True)
class SensingParams:
    """Probabilistic sensing model: certain detection inside
    sensing_radius - uncertainty_radius, exponential decay with rate
    decay_rate and exponent decay_exponent across the uncertainty band,
    nothing beyond it. A location counts as sensed when the combined
    detection probability reaches detection_threshold."""

    uncertainty_radius: float = 2.0
    decay_rate: float = 0.5
    decay_exponent: float = 1.0
    detection_threshold: float = 0.5

    def __post_init__(self):
        if self.uncertainty_radius < 0:
            raise ConfigError("uncertainty_radius", "must be non-negative")
        for name in ("decay_rate", "decay_exponent"):
            if not getattr(self, name) > 0:
                raise ConfigError(name, "must be positive")
        if not 0 < self.detection_threshold < 1:
            raise ConfigError("detection_threshold", "must lie strictly between 0 and 1")


@dataclass
class Node:
    """A sensor, or the sink. Its battery is its life: a node is alive
    exactly while energy is above zero, the test that loops over every node
    spell out as `energy > 0.0`. The sink's battery is never drawn, so the
    sink is always alive."""

    id: int
    position: Point
    energy: float
    role: Role = Role.SLEEPING

    @property
    def alive(self) -> bool:
        return self.energy > 0.0


@dataclass
class Topology:
    """A reduced topology: a tree rooted at the sink.

    active_set holds the relays (sink included); parent maps every attached
    node, relays and sleeping leaves alike, to its parent. coverage_promoted
    marks leaves activated purely for sensing coverage, which exempts them
    from childless pruning.
    """

    active_set: set[int]
    parent: dict[int, int]
    root: int = SINK_ID
    activation_time: int = 0
    activation_energy: dict[int, float] = field(default_factory=dict)
    coverage_promoted: set[int] = field(default_factory=set)
    # The engine's routing table for this tree, built on its first step,
    # with its data round compiled over the latest alive set.
    route_cache: Routes | None = field(default=None, compare=False, repr=False)


@dataclass
class NetworkState:
    """Mutable simulation state, owned by exactly one run at a time.

    energy_ledger accumulates every joule actually drained from non-sink
    batteries, so that sum(initial) - sum(current) over non-sink nodes
    equals the ledger at any instant.

    Node.position is the one store of geometry. Positions never move, so
    the radio links are fixed at deployment and built on first use:
    links[i] holds, in ascending order, the id of every other node, dead or
    alive, whose distance from node i is within the communication radius.
    """

    nodes: list[Node]
    area: DeploymentArea
    radio: RadioParams
    energy: EnergyParams
    topology: Topology
    time: int = 0
    energy_ledger: float = 0.0
    death_step: dict[int, int] = field(default_factory=dict)
    sink_bits_last_step: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    in_step: bool = False

    @cached_property
    def links(self) -> list[list[int]]:
        return _links(self.nodes, self.radio.communication_radius)

    @property
    def sink(self) -> Node:
        return self.nodes[SINK_ID]

    def kill(self, node_id: int) -> None:
        """Record a death: zero the battery and add the node to death_step
        against the step in progress. A drain that empties a battery calls
        it, so it cannot test `alive`; a second call keeps the first step,
        and the sink never dies."""
        node = self.nodes[node_id]
        if node.role is Role.SINK:
            return
        node.energy = 0.0
        self.death_step.setdefault(node_id, self.time + 1 if self.in_step else self.time)


def _links(nodes: list[Node], radius: float) -> list[list[int]]:
    """Ascending neighbour ids of every node: the pairs with
    distance(a, b) <= radius, found by bucketing the nodes in square cells.

    A cell is one ulp wider than the radius and indexed with the exact floor
    of `//`, so a linked pair, whose coordinates differ by at most
    radius + ulp(radius) / 2, never lies two cells apart. Each pair is tested
    once: within a cell, and against the four cells ahead of it.
    """
    side = math.nextafter(radius, math.inf)
    xs = [n.position.x for n in nodes]
    ys = [n.position.y for n in nodes]
    cells: dict[tuple[float, float], list[int]] = {}
    for i in range(len(nodes)):
        cells.setdefault((xs[i] // side, ys[i] // side), []).append(i)
    links: list[list[int]] = [[] for _ in nodes]
    hypot = math.hypot
    for (cx, cy), members in cells.items():
        pool = list(members)
        for key in ((cx + 1, cy), (cx - 1, cy + 1), (cx, cy + 1), (cx + 1, cy + 1)):
            pool += cells.get(key, ())
        for k, i in enumerate(members, 1):
            xi, yi, own = xs[i], ys[i], links[i]
            for j in pool[k:]:  # the rest of this cell, then the cells ahead
                if hypot(xi - xs[j], yi - ys[j]) <= radius:
                    own.append(j)
                    links[j].append(i)
    for own in links:
        own.sort()
    return links
