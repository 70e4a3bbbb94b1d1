"""Shared domain types: nodes, parameters, topology, and the network state container."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:
    from .deployment import Site
    from .engine import Tree

SINK_ID = 0


@dataclass(frozen=True, slots=True)
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


@dataclass(slots=True)
class Node:
    """A sensor, or the sink. Its battery is its life: a node is alive
    exactly while energy is above zero, the test that loops over every node
    spell out as `energy > 0.0`. The sink's battery is never drawn, so the
    sink is always alive."""

    id: int
    position: Point
    energy: float

    @property
    def alive(self) -> bool:
        return self.energy > 0.0


@dataclass
class Topology:
    """A reduced topology: a tree rooted at the sink, node SINK_ID.

    active_set holds the awake nodes (sink included): the relays and
    A3Cov's coverage-promoted leaves. construct leaves every relay a
    parent, though a promoted leaf may move to a nearer active node. parent
    maps every attached node, awake and sleeping alike, to its parent.
    coverage_promoted marks the leaves activated purely for sensing
    coverage.
    """

    active_set: set[int]
    parent: dict[int, int]
    activation_time: int = 0
    activation_energy: dict[int, float] = field(default_factory=dict)
    coverage_promoted: set[int] = field(default_factory=set)
    # The engine's routing table for this tree, built on its first step,
    # with its data round compiled over the latest alive set.
    route_cache: Tree | None = field(default=None, compare=False, repr=False)


@dataclass
class NetworkState:
    """Mutable simulation state, owned by exactly one run at a time: the
    batteries, the installed topology, the clock, the ledger and the
    counters, on a site (deployment.Site) that holds what never changes,
    the positions, area, radio and sensing models and the links, and may
    be shared with other runs. Each node's position is its site's Point.

    energy_ledger accumulates every joule actually drained from non-sink
    batteries, so that sum(initial) - sum(current) over non-sink nodes
    equals the ledger at any instant.
    """

    nodes: list[Node]
    site: Site
    energy: EnergyParams
    topology: Topology
    time: int = 0
    energy_ledger: float = 0.0
    death_step: dict[int, int] = field(default_factory=dict)
    packets_delivered: int = 0
    packets_dropped: int = 0
    in_step: bool = False

    @property
    def sink(self) -> Node:
        return self.nodes[SINK_ID]

    def kill(self, node_id: int) -> None:
        """Record a death: zero the battery and add the node to death_step
        against the step in progress. A drain that empties a battery calls
        it, so it cannot test `alive`; a second call keeps the first step,
        and the sink never dies."""
        if node_id == SINK_ID:
            return
        self.nodes[node_id].energy = 0.0
        self.death_step.setdefault(node_id, self.time + 1 if self.in_step else self.time)


# Candidate pairs screened in one numpy pass of _links, which bounds its
# temporaries to about 0.25 MB. At n = 3000 it peaks at 0.81 MB, 0.56 MB
# of it the lists it returns; 2048 and 8192 read 0.78 and 0.86 MB, in
# times within the host's noise.
_LINK_CHUNK = 4096


def _links(positions: list[Point], radius: float) -> list[list[int]]:
    """Ascending neighbour ids of every position: the pairs with
    distance(a, b) <= radius, found by bucketing the positions in square
    cells.

    A cell is one ulp wider than the radius and indexed with the exact floor
    of `//`, so a linked pair, whose coordinates differ by at most
    radius + ulp(radius) / 2, never lies two cells apart. Each pair is a
    candidate once: within a cell, and against the four cells ahead of it.
    Candidates are screened in numpy passes of _LINK_CHUNK pairs by their
    squared distance d2. A pair whose d2 lies within a relative 1e-9 of
    R^2, a band widened by 2^-1000 for squares that underflow, is decided
    by `math.hypot(dx, dy) <= radius`, model.distance's own test, so each
    list holds exactly the nodes a scan of all nodes would. The linked
    pairs are sorted once by source and destination id and cut into lists
    a block of about _LINK_CHUNK entries at a time; every list holds the
    same int object for a node id.
    """
    n = len(positions)
    src, dst = _linked_pairs(positions, radius)
    # lexsort sorts ids of up to 16 bits by radix passes; numpy's default
    # quicksort pulls in its SIMD sort code, 0.15-0.4 MB more peak RSS in
    # every benchmark workload.
    by_pair = np.lexsort((dst, src))
    src, dst = src[by_pair], dst[by_pair]
    del by_pair
    ptr = np.searchsorted(src, np.arange(n + 1, dtype=src.dtype))
    # a block starts at the node holding every _LINK_CHUNK-th entry; a
    # repeated start only adds an empty block
    starts = np.searchsorted(ptr, np.arange(_LINK_CHUNK, len(dst), _LINK_CHUNK), "right") - 1
    cuts = [0, *starts.tolist(), n]
    ids = np.array(range(n), dtype=object)
    links: list[list[int]] = []
    for first, end in pairwise(cuts):
        flat = ids[dst[ptr[first]:ptr[end]]].tolist()
        bounds = (ptr[first:end + 1] - ptr[first]).tolist()
        links += [flat[a:b] for a, b in pairwise(bounds)]
    return links


def _linked_pairs(positions: list[Point], radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every linked pair in both directions, as source and destination ids
    in the smallest unsigned type that holds n."""
    n = len(positions)
    xs = np.fromiter((p.x for p in positions), float, n)
    ys = np.fromiter((p.y for p in positions), float, n)
    order, ranges = _candidate_ranges(xs, ys, math.nextafter(radius, math.inf))
    # sorted positions as complex numbers: one gather per side of a pair
    at = np.empty(n, complex)
    at.real = xs[order]
    at.imag = ys[order]
    offsets = np.zeros(len(ranges) + 1, np.int64)
    np.cumsum(ranges[:, 1] - ranges[:, 0], out=offsets[1:])
    shift = ranges[:, 0] - offsets[:-1]
    total = int(offsets[-1])
    r2 = radius * radius
    lo = r2 * (1 - 1e-9) - 2.0**-1000
    hi = r2 * (1 + 1e-9) + 2.0**-1000
    node_id = order.astype(np.min_scalar_type(n))
    src = [node_id[:0]]
    dst = [node_id[:0]]
    for t0 in range(0, total, _LINK_CHUNK):
        t1 = min(t0 + _LINK_CHUNK, total)
        # the ranges holding candidates t0 .. t1 - 1, and how many each holds
        k0 = int(np.searchsorted(offsets, t0, "right")) - 1
        k1 = int(np.searchsorted(offsets, t1))
        span = np.minimum(offsets[k0 + 1:k1 + 1], t1) - np.maximum(offsets[k0:k1], t0)
        i = np.repeat(np.arange(k0, k1) >> 1, span)
        j = np.arange(t0, t1) + np.repeat(shift[k0:k1], span)
        with np.errstate(over="ignore"):  # an inf d2 falls in the band or past it
            d = at[i]
            d -= at[j]
            d2 = d.real * d.real + d.imag * d.imag
        linked = d2 < lo
        near = d2 <= hi
        if np.count_nonzero(near) != np.count_nonzero(linked):
            unsure = np.flatnonzero(near & ~linked)
            linked[unsure] = [
                math.hypot(dx, dy) <= radius
                for dx, dy in zip(d.real[unsure].tolist(), d.imag[unsure].tolist())
            ]
        i = node_id[i[linked]]
        j = node_id[j[linked]]
        src += [i, j]
        dst += [j, i]
    return np.concatenate(src), np.concatenate(dst)


def _candidate_ranges(
    xs: np.ndarray, ys: np.ndarray, side: float
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes sorted by cell, and the candidates of each as two ranges of
    that order: range 2p runs over the rest of p's cell and the cell after
    it, range 2p + 1 over the three cells of the next row that touch p's.

    A cell is the complex number (row, column) of its `//` indices, which
    numpy orders row by row, so no key can overflow. Past 2^53 an index + 1
    rounds: to itself, and the cell after is the cell itself while a next
    row that is the row itself is skipped; or up by 2, and the ranges take
    a cell that is no neighbour. Neither repeats a pair, and the second adds
    only candidates that the distance test rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # // of a huge ratio is inf
        col = xs // side
        row = ys // side
    cells = np.empty(len(xs), complex)
    cells.real, cells.imag = row, col
    order = np.argsort(cells)
    cells, row, col = cells[order], row[order], col[order]
    bound = np.empty(len(xs), complex)
    ranges = np.empty((len(xs), 4), np.int64)
    ranges[:, 0] = np.arange(1, len(xs) + 1)
    bound.real, bound.imag = row, col + 1
    ranges[:, 1] = np.searchsorted(cells, bound, "right")
    bound.real, bound.imag = row + 1, col - 1
    ranges[:, 2] = np.searchsorted(cells, bound)
    bound.imag = col + 1
    ranges[:, 3] = np.searchsorted(cells, bound, "right")
    ranges[row + 1 == row, 2:] = 0
    return order, ranges.reshape(-1, 2)
