"""Initial node placement: uniform random positions with the sink at the
center, on a site that runs of one deployment share."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConfigError
from .model import (
    SINK_ID,
    DeploymentArea,
    EnergyParams,
    NetworkState,
    Node,
    Point,
    PromotionInputs,
    RadioParams,
    SensingParams,
    Topology,
    _links,
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


@dataclass(frozen=True, eq=False)
class InitialState:
    """What engine.initialize builds on a fresh deployment before it
    activates the first topology, kept on the site for every later run with
    the same key (see Site.initial): each node's battery, the ledger, the
    death steps, and each topology built, in order, as its active set,
    parents and coverage-promoted leaves. Runs take copies (restore), so no
    run changes it."""

    energies: tuple[float, ...]
    ledger: float
    death_step: dict[int, int]
    topologies: tuple[tuple[frozenset[int], dict[int, int], frozenset[int]], ...]

    @classmethod
    def of(cls, state: NetworkState, topologies: list[Topology]) -> InitialState:
        return cls(
            tuple(node.energy for node in state.nodes),
            state.energy_ledger,
            dict(state.death_step),
            tuple(
                (frozenset(t.active_set), dict(t.parent), frozenset(t.coverage_promoted))
                for t in topologies
            ),
        )

    def restore(self, state: NetworkState) -> list[Topology]:
        """Give a freshly deployed state these batteries, ledger and death
        steps, and return fresh copies of the topologies."""
        for node, energy in zip(state.nodes, self.energies):
            node.energy = energy
        state.energy_ledger = self.ledger
        state.death_step = dict(self.death_step)
        return [
            Topology(set(active), dict(parent), coverage_promoted=set(promoted))
            for active, parent, promoted in self.topologies
        ]


@dataclass(eq=False)
class Site:
    """The part of a deployment that never changes, shared by every run on
    it: the positions, the area, the radio and sensing models, and what is
    derived from them alone. A site is keyed on its DeploymentConfig, radio
    and sensing models; each part is a pure function of them, built on
    first use and read-only after, so runs that share a site build each
    part once and read the bits a fresh site gives. A sweep keeps one site
    per seed for as long as it runs, as its grid keeps the footprints.

    positions holds the sink at the area center and the rest uniformly at
    random, drawn from Python's Mersenne Twister seeded with the seed,
    through random() only, node by node, x before y. That sequence is
    pinned: placements must be bit-stable across runs, so the generator is
    never changed silently. links[i] holds, in ascending order, every other
    node, dead or alive, within the communication radius of node i (see
    model._links); sensing_links[i] those within r + r_u, the reach of a
    sensor under the sensing model. promotion holds A3Cov promotion's
    inputs, filled node by node as promotions first need them.

    initial holds what engine.initialize built for each key
    (tc, a3, energy, rotation_k), rotation_k None for the one construction
    of dynamic recreation and of no maintenance: the first run with a key
    builds it, and every later one restores it and constructs nothing.
    Only a site the caller passes keeps one; a lone run's fresh site does
    not. coverages holds both coverages for each (grid cell size,
    reach-set bitmap) that a sample on the site has computed, on grids of
    the site's area (see engine.sample_metrics)."""

    deployment: DeploymentConfig
    radio: RadioParams
    sensing: SensingParams
    promotion: PromotionInputs = field(default_factory=PromotionInputs, repr=False)
    initial: dict[tuple, InitialState] = field(default_factory=dict, repr=False)
    coverages: dict[tuple[float, bytes], tuple[float, float]] = field(
        default_factory=dict, repr=False
    )

    @property
    def area(self) -> DeploymentArea:
        return self.deployment.area

    @cached_property
    def positions(self) -> list[Point]:
        rng = random.Random(self.deployment.seed)
        width, height = self.area.width, self.area.height
        positions = [Point(width / 2.0, height / 2.0)]
        for _ in range(1, self.deployment.node_count):
            x = rng.random() * width
            y = rng.random() * height
            positions.append(Point(x, y))
        return positions

    @cached_property
    def links(self) -> list[list[int]]:
        return _links(self.positions, self.radio.communication_radius)

    @cached_property
    def sensing_links(self) -> list[list[int]]:
        return _links(self.positions, self.radio.sensing_radius + self.sensing.uncertainty_radius)


def deploy(site: Site, energy: EnergyParams) -> NetworkState:
    """A fresh state on site, its positions drawn if no run has drawn
    them: node i at position i, node 0 the sink, every battery the initial
    energy rounded to whole quanta, and the sink alone awake."""
    initial = (energy.initial_energy + QUANTIZER) - QUANTIZER
    nodes = [Node(i, position, initial) for i, position in enumerate(site.positions)]
    return NetworkState(nodes, site, energy, Topology(active_set={SINK_ID}, parent={}))
