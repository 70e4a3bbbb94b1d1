"""Per-step performance metrics: alive count, sink reachability, and the two
area coverage estimators (communication and sensing) over a sampling grid."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DeploymentArea, Life, NetworkState, Role, SensingParams

# Sample points a coverage grid may hold: each sampled step allocates a few
# float arrays of this size. n = 3000 at the default density with 4 m cells
# needs 443k points.
MAX_GRID_POINTS = 10_000_000


def grid_shape(area: DeploymentArea, cell_size: float) -> tuple[int, int]:
    """Columns and rows of the grid of cell_size cells tiling the area."""
    return math.ceil(area.width / cell_size), math.ceil(area.height / cell_size)


@dataclass(eq=False)
class CoverageGrid:
    """Sample points at the centers of square cells tiling the area.

    The estimate converges as cell_size shrinks; 4 m keeps the default area
    under 50k points, cheap enough to evaluate every sampled step.
    """

    area: DeploymentArea
    cell_size: float
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        nx, ny = grid_shape(self.area, self.cell_size)
        self.xs = (np.arange(nx) + 0.5) * self.cell_size
        self.ys = (np.arange(ny) + 0.5) * self.cell_size

    @property
    def point_count(self) -> int:
        return len(self.xs) * len(self.ys)


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


def _sense_probability_grid(sp: SensingParams, r: float, x: np.ndarray) -> np.ndarray:
    """Vectorized sense_probability; must agree with the scalar form."""
    inner = r - sp.uncertainty_radius
    outer = r + sp.uncertainty_radius
    alpha = np.maximum(x - inner, 0.0)
    p = np.exp(-sp.decay_rate * alpha**sp.decay_exponent)
    p[x <= inner] = 1.0
    p[x > outer] = 0.0
    return p


def alive_count(state: NetworkState) -> int:
    return sum(1 for n in state.nodes if n.alive)


def sink_reachable(state: NetworkState) -> set[int]:
    """The sink plus every alive active node joined to it by a chain of
    alive active nodes, each hop a radio link of state.links."""
    nodes, links = state.nodes, state.links
    reached = {state.sink.id}
    frontier = [state.sink.id]
    while frontier:
        for nid in links[frontier.pop()]:
            node = nodes[nid]
            if (
                nid not in reached
                and node.role is Role.ACTIVE
                and node.life is Life.ALIVE
            ):
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
    xs, ys = grid.xs, grid.ys
    covered = np.zeros((len(ys), len(xs)), dtype=bool)
    r2 = radius * radius
    for nid in sorted(reach):
        at = state.nodes[nid].position
        px, py = at.x, at.y
        ix0 = int(np.searchsorted(xs, px - radius, side="left"))
        ix1 = int(np.searchsorted(xs, px + radius, side="right"))
        iy0 = int(np.searchsorted(ys, py - radius, side="left"))
        iy1 = int(np.searchsorted(ys, py + radius, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        dx = xs[ix0:ix1] - px
        dy = ys[iy0:iy1] - py
        d2 = dy[:, None] ** 2 + dx[None, :] ** 2
        covered[iy0:iy1, ix0:ix1] |= d2 <= r2
    return float(covered.mean())


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
    outer = r + sp.uncertainty_radius
    if reach is None:
        reach = sink_reachable(state)
    sensors = sorted(reach - {state.sink.id})
    xs, ys = grid.xs, grid.ys
    miss = np.ones((len(ys), len(xs)))
    for nid in sensors:
        at = state.nodes[nid].position
        px, py = at.x, at.y
        ix0 = int(np.searchsorted(xs, px - outer, side="left"))
        ix1 = int(np.searchsorted(xs, px + outer, side="right"))
        iy0 = int(np.searchsorted(ys, py - outer, side="left"))
        iy1 = int(np.searchsorted(ys, py + outer, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            continue
        dx = xs[ix0:ix1] - px
        dy = ys[iy0:iy1] - py
        d = np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2)
        miss[iy0:iy1, ix0:ix1] *= 1.0 - _sense_probability_grid(sp, r, d)
    covered = (1.0 - miss) >= sp.detection_threshold
    return float(covered.mean())
