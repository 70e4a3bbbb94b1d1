"""Per-step performance metrics: alive count, sink reachability, and the two
area coverage estimators (communication and sensing) over a sampling grid."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .model import DeploymentArea, NetworkState, Role, SensingParams

# Sample points a coverage grid may hold: each sensing recomputation
# allocates a float array and a bool array of this size (comm coverage packs
# eight points per byte). n = 3000 at the default density with 4 m cells
# needs 443k points.
MAX_GRID_POINTS = 10_000_000

# Set bits of each byte value: counts a packed grid without unpacking it.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def grid_shape(area: DeploymentArea, cell_size: float) -> tuple[int, int]:
    """Columns and rows of the grid of cell_size cells tiling the area."""
    return math.ceil(area.width / cell_size), math.ceil(area.height / cell_size)


@dataclass(eq=False)
class CoverageGrid:
    """Sample points at the centers of square cells tiling the area.

    The estimate converges as cell_size shrinks; 4 m keeps the default area
    under 50k points, cheap enough to evaluate every sampled step.

    The grid keeps each node's footprint on it, computed on first use: the
    patch of points within a disc around the node, and over that patch its
    coverage mask or its miss factor 1 - p. A disc mask is bit-packed on the
    grid's own byte columns (point ix is bit 7 - ix % 8 of byte ix // 8 of
    its row), so coverage ORs it into a packed grid as it stands. A
    footprint is keyed on its content, the radius or sensing parameters and
    the position, so one grid serves every run on its area and cell size,
    whatever the deployment or radii, and never serves a stale patch. Each
    is computed by the same expressions on the same patch as a fresh
    evaluation, so the values are the same bits.
    """

    area: DeploymentArea
    cell_size: float
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    footprints: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        nx, ny = grid_shape(self.area, self.cell_size)
        self.xs = (np.arange(nx) + 0.5) * self.cell_size
        self.ys = (np.arange(ny) + 0.5) * self.cell_size

    @property
    def point_count(self) -> int:
        return len(self.xs) * len(self.ys)

    def _patch(self, px: float, py: float, reach: float):
        """The bounds (iy0, iy1, ix0, ix1) of the points within reach of
        (px, py) along each axis and the offsets dx, dy of their columns and
        rows, or None when the square misses the grid."""
        xs, ys = self.xs, self.ys
        ix0 = int(np.searchsorted(xs, px - reach, side="left"))
        ix1 = int(np.searchsorted(xs, px + reach, side="right"))
        iy0 = int(np.searchsorted(ys, py - reach, side="left"))
        iy1 = int(np.searchsorted(ys, py + reach, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            return None
        return (iy0, iy1, ix0, ix1), xs[ix0:ix1] - px, ys[iy0:iy1] - py

    def disc(self, radius: float, px: float, py: float):
        """The footprint of a disc of radius around (px, py): its rows and
        byte columns (iy0, iy1, bx0, bx1) and the d^2 <= r^2 mask over them,
        bit-packed, with zero bits outside the patch's points [ix0, ix1);
        None when it misses the grid."""
        key = ("disc", radius, px, py)
        if key not in self.footprints:
            found = self._patch(px, py, radius)
            if found is not None:
                (iy0, iy1, ix0, ix1), dx, dy = found
                bx0, bx1 = ix0 // 8, (ix1 + 7) // 8
                inside = np.zeros((iy1 - iy0, 8 * (bx1 - bx0)), dtype=bool)
                d2 = dy[:, None] ** 2 + dx[None, :] ** 2
                inside[:, ix0 - 8 * bx0 : ix1 - 8 * bx0] = d2 <= radius * radius
                found = (iy0, iy1, bx0, bx1), np.packbits(inside, axis=1)
            self.footprints[key] = found
        return self.footprints[key]

    def miss_factor(self, sp: SensingParams, r: float, px: float, py: float):
        """The footprint of a sensor of radius r at (px, py): its patch
        bounds out to r + r_u and 1 - p over the patch; None when it misses
        the grid."""
        key = ("sense", sp, r, px, py)
        if key not in self.footprints:
            found = self._patch(px, py, r + sp.uncertainty_radius)
            if found is not None:
                bounds, dx, dy = found
                d = np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2)
                # 0 inside r - r_u and 1 past r + r_u; only the band needs exp
                factor = (d > r - sp.uncertainty_radius).astype(float)
                band = (factor == 1.0) & (d <= r + sp.uncertainty_radius)
                factor[band] = [1.0 - sense_probability(sp, r, x) for x in d[band].tolist()]
                found = bounds, factor
            self.footprints[key] = found
        return self.footprints[key]


@dataclass(frozen=True)
class MetricsSample:
    time: int
    alive: int
    sink_reachable: int
    comm_coverage: float
    sensing_coverage: float


def sense_probability(sp: SensingParams, r: float, x: float) -> float:
    """Detection probability of an event at distance x from a sensor of
    radius r: certain inside r - r_u, exp(-lambda * alpha^beta) with
    alpha = x - (r - r_u) across the uncertainty band, zero past r + r_u.
    """
    inner = r - sp.uncertainty_radius
    outer = r + sp.uncertainty_radius
    if x <= inner:
        return 1.0
    if x > outer:
        return 0.0
    alpha = x - inner
    return math.exp(-sp.decay_rate * alpha**sp.decay_exponent)


def alive_count(state: NetworkState) -> int:
    return sum(1 for n in state.nodes if n.alive)


def sink_reachable(
    state: NetworkState, active: Iterable[int] | None = None
) -> set[int]:
    """The sink plus every alive active node joined to it by a chain of
    alive active nodes, each hop a radio link of state.links. active, when
    given, holds the ids of the alive active nodes, already collected for
    this state."""
    if active is None:
        active = [n.id for n in state.nodes if n.role is Role.ACTIVE and n.alive]
    unreached = set(active)
    links = state.links
    reached = {state.sink.id}
    frontier = [state.sink.id]
    while frontier:
        for nid in links[frontier.pop()]:
            if nid in unreached:
                unreached.remove(nid)
                reached.add(nid)
                frontier.append(nid)
    return reached


def comm_coverage(
    state: NetworkState, grid: CoverageGrid, reach: set[int] | None = None
) -> float:
    """Fraction of grid points within the communication radius of at least
    one sink-reachable node (sink included). reach, when given, is
    sink_reachable(state) already computed for this state."""
    radius = state.radio.communication_radius
    if reach is None:
        reach = sink_reachable(state)
    covered = np.zeros((len(grid.ys), (len(grid.xs) + 7) // 8), dtype=np.uint8)
    for nid in reach:  # OR commutes: any order gives the same bits
        at = state.nodes[nid].position
        footprint = grid.disc(radius, at.x, at.y)
        if footprint is None:
            continue
        (iy0, iy1, bx0, bx1), mask = footprint
        covered[iy0:iy1, bx0:bx1] |= mask
    return int(_POPCOUNT[covered].sum()) / grid.point_count


def sensing_coverage(
    state: NetworkState,
    sp: SensingParams,
    grid: CoverageGrid,
    reach: set[int] | None = None,
) -> float:
    """Fraction of grid points whose combined detection probability under the
    sink-reachable active sensors reaches the detection threshold.

    Sensors detect independently, so the combined probability at a point is
    1 - prod(1 - p_i). The sink is a collector, not a sensor, and does not
    contribute. Sensors are folded in ascending id order so the float
    reduction is reproducible. reach, when given, is sink_reachable(state)
    already computed for this state.
    """
    r = state.radio.sensing_radius
    if reach is None:
        reach = sink_reachable(state)
    sensors = sorted(reach - {state.sink.id})
    miss = np.ones((len(grid.ys), len(grid.xs)))
    for nid in sensors:
        at = state.nodes[nid].position
        footprint = grid.miss_factor(sp, r, at.x, at.y)
        if footprint is None:
            continue
        (iy0, iy1, ix0, ix1), factor = footprint
        miss[iy0:iy1, ix0:ix1] *= factor
    detected = np.subtract(1.0, miss, out=miss)  # in place: the grid may be large
    return np.count_nonzero(detected >= sp.detection_threshold) / grid.point_count
