"""Per-step performance metrics: alive count, sink reachability, and the two
area coverage estimators (communication and sensing) over a sampling grid."""
from __future__ import annotations

import math
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import SINK_ID, DeploymentArea, NetworkState, SensingParams

if TYPE_CHECKING:
    from .deployment import Site

# Sample points a coverage grid may hold: each comm coverage recomputation
# allocates a packed array of this size, eight points per byte (1.25 MB at
# the limit); sensing coverage folds band by band in _BAND. n = 3000 at the
# default density with 4 m cells needs 443k points.
MAX_GRID_POINTS = 10_000_000

# Points in one band of the sensing fold, and its scratch: one 256 KB buffer
# for every grid, so it stays in cache and outside the allocator's per-call
# mmaps. A run is single-threaded, so one fold at a time uses it.
_BAND_POINTS = 1 << 15
_BAND = np.empty(_BAND_POINTS)

# Set bits of each byte value: counts a packed grid without unpacking it.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def grid_shape(area: DeploymentArea, cell_size: float) -> tuple[int, int]:
    """Columns and rows of the grid of cell_size cells tiling the area."""
    return math.ceil(area.width / cell_size), math.ceil(area.height / cell_size)


# Footprints built in one numpy pass: 16 discs of the default 100 m radius
# on 4 m cells take 16 x 51 x 56 squared distances (0.37 MB of float64).
# All 785 discs of a sample at n = 3000 would take 18 MB; 64 at a time
# raised the peak memory of default 300-node runs by 5 %.
_FOOTPRINT_CHUNK = 16


class CoverageGrid:
    """Sample points at the centers of square cells of site.grid_cell tiling
    site.area, and each node's footprints on them (see Site.grid).

    The estimate converges as the cell size shrinks; 4 m keeps the default
    area under 50k points, cheap enough to evaluate every sampled step.

    The grid keeps each node's two footprints on it, by node id, computed on
    first use: the patch of points within a disc around the node, and over
    that patch its coverage mask or its miss factor 1 - p. A disc mask is
    bit-packed on the grid's own byte columns (point ix is bit 7 - ix % 8 of
    byte ix // 8 of its row), so coverage ORs it into a packed grid as it
    stands. The grid copies the positions, radii and sensing model of its
    site when it is built and holds no reference to the site, so a site
    and its grid form no cycle.

    The footprints a coverage call lacks are built together, _FOOTPRINT_CHUNK
    at a time: each on a window as large as the chunk's largest patch, with
    the points outside its own patch masked off or cut away. Every value is
    computed by the same elementwise expressions from the same coordinates
    as on the patch alone, so the values are the same bits.

    Sensing coverage never holds the whole grid: it folds the miss factors
    band by band in the module's one buffer of _BAND_POINTS floats. A band
    is band_shape = (rows, columns) points: whole rows, as many as fit, or
    pieces of one row when a row alone holds more than _BAND_POINTS points.
    The bands tile the grid in row-major order; the last of a row or column
    may be cut short by the grid's edge.
    """

    def __init__(self, site: Site):
        self.cell_size = site.grid_cell
        if not 0 < self.cell_size < math.inf:
            raise ValueError("cell_size must be positive and finite")
        nx, ny = grid_shape(site.area, self.cell_size)
        self.xs = (np.arange(nx) + 0.5) * self.cell_size
        self.ys = (np.arange(ny) + 0.5) * self.cell_size
        width = min(nx, _BAND_POINTS)
        self.band_shape = (min(ny, _BAND_POINTS // width), width)
        self.px = np.array([p.x for p in site.positions])
        self.py = np.array([p.y for p in site.positions])
        self.radius = site.radio.communication_radius
        self.sensing_radius = site.radio.sensing_radius
        self.sensing = site.sensing
        self.built_discs: dict[int, tuple | None] = {}
        self.built_miss_factors: dict[int, tuple | None] = {}

    @property
    def point_count(self) -> int:
        return len(self.xs) * len(self.ys)

    def discs(self, ids: Collection[int]) -> list:
        """The footprint of the communication disc around each node of ids:
        its rows and byte columns (iy0, iy1, bx0, bx1) and the d^2 <= R^2
        mask over them, bit-packed, with zero bits outside the points
        [ix0, ix1) within reach along x; None when it misses the grid."""
        return self._footprints(self.built_discs, ids, self._build_discs)

    def miss_factors(self, ids: Collection[int]) -> list:
        """The footprint of each sensor of ids: its patch bounds
        (iy0, iy1, ix0, ix1) out to r + r_u and 1 - p over the patch; None
        when it misses the grid."""
        return self._footprints(self.built_miss_factors, ids, self._build_miss_factors)

    def _footprints(self, built: dict, ids: Collection[int], build) -> list:
        """The footprints in built of the nodes of ids, building the missing
        ones a chunk at a time with build(px, py)."""
        missing = [nid for nid in ids if nid not in built]
        for start in range(0, len(missing), _FOOTPRINT_CHUNK):
            chunk = missing[start : start + _FOOTPRINT_CHUNK]
            built.update(zip(chunk, build(self.px[chunk], self.py[chunk])))
        return [built[nid] for nid in ids]

    def _windows(self, px: np.ndarray, py: np.ndarray, reach: float, align: int):
        """For each point (px, py): the bounds iy0, iy1, ix0, ix1 of the grid
        points within reach along each axis, whether any are, and the offsets
        dy, dx of the rows and columns of a window of the chunk's common
        size, starting at row iy0 and at column ix0 rounded down to a
        multiple of align; cols holds the window's column indices. Indices
        past the grid read its last point, and are never kept."""
        xs, ys = self.xs, self.ys
        ix0 = np.searchsorted(xs, px - reach, side="left")
        ix1 = np.searchsorted(xs, px + reach, side="right")
        iy0 = np.searchsorted(ys, py - reach, side="left")
        iy1 = np.searchsorted(ys, py + reach, side="right")
        hit = (ix0 < ix1) & (iy0 < iy1)
        first = ix0 // align * align
        height = int(np.max(iy1 - iy0, initial=0, where=hit))
        width = int(np.max(ix1 - first, initial=0, where=hit))
        width = -(-width // align) * align
        rows = iy0[:, None] + np.arange(height)
        cols = first[:, None] + np.arange(width)
        dy = ys[np.minimum(rows, len(ys) - 1)] - py[:, None]
        dx = xs[np.minimum(cols, len(xs) - 1)] - px[:, None]
        return (iy0, iy1, ix0, ix1), hit, dy, dx, cols

    def _build_discs(self, px: np.ndarray, py: np.ndarray) -> list:
        radius = self.radius
        (iy0, iy1, ix0, ix1), hit, dy, dx, cols = self._windows(px, py, radius, 8)
        d2 = dy[:, :, None] ** 2 + dx[:, None, :] ** 2
        inside = d2 <= radius * radius
        inside &= ((cols >= ix0[:, None]) & (cols < ix1[:, None]))[:, None, :]
        packed = np.packbits(inside, axis=2)
        bx0, bx1 = ix0 // 8, (ix1 + 7) // 8
        return [
            ((y0, y1, b0, b1), packed[i, : y1 - y0, : b1 - b0]) if hit[i] else None
            for i, (y0, y1, b0, b1) in enumerate(
                zip(iy0.tolist(), iy1.tolist(), bx0.tolist(), bx1.tolist())
            )
        ]

    def _build_miss_factors(self, px: np.ndarray, py: np.ndarray) -> list:
        sp, r = self.sensing, self.sensing_radius
        outer = r + sp.uncertainty_radius
        (iy0, iy1, ix0, ix1), hit, dy, dx, cols = self._windows(px, py, outer, 1)
        d = np.sqrt(dy[:, :, None] ** 2 + dx[:, None, :] ** 2)
        # 0 inside r - r_u and 1 past r + r_u; only the band needs exp
        factor = (d > r - sp.uncertainty_radius).astype(float)
        band = (factor == 1.0) & (d <= outer)
        rows = iy0[:, None] + np.arange(d.shape[1])
        band &= (rows < iy1[:, None])[:, :, None] & (cols < ix1[:, None])[:, None, :]
        factor[band] = np.subtract(1.0, sense_probabilities(sp, r, d[band].tolist()))
        return [
            ((y0, y1, x0, x1), factor[i, : y1 - y0, : x1 - x0]) if hit[i] else None
            for i, (y0, y1, x0, x1) in enumerate(
                zip(iy0.tolist(), iy1.tolist(), ix0.tolist(), ix1.tolist())
            )
        ]


@dataclass(frozen=True)
class MetricsSample:
    time: int
    alive: int
    sink_reachable: int
    comm_coverage: float
    sensing_coverage: float


def sense_probabilities(sp: SensingParams, r: float, xs: Iterable[float]) -> list[float]:
    """Detection probability of an event at each distance x of xs from a
    sensor of radius r: certain inside r - r_u, exp(-lambda * alpha^beta)
    with alpha = x - (r - r_u) across the uncertainty band, zero past
    r + r_u. The one home of the sensing formula: a miss factor is
    1.0 - p of its value, in coverage footprints and A3Cov promotion
    alike."""
    inner = r - sp.uncertainty_radius
    outer = r + sp.uncertainty_radius
    rate, beta = -sp.decay_rate, sp.decay_exponent
    exp = math.exp
    return [
        1.0 if x <= inner else 0.0 if x > outer else exp(rate * (x - inner) ** beta)
        for x in xs
    ]


def sense_probability(sp: SensingParams, r: float, x: float) -> float:
    """sense_probabilities at the one distance x."""
    return sense_probabilities(sp, r, (x,))[0]


def alive_count(state: NetworkState) -> int:
    return sum(1 for n in state.nodes if n.energy > 0.0)


def sink_reachable(state: NetworkState) -> set[int]:
    """The sink plus every alive member of the installed topology's active
    set joined to it by a chain of alive members, each hop a radio link of
    state.site.links."""
    topology = state.topology
    nodes = state.nodes
    unreached = {
        nid for nid in topology.active_set
        if nid != SINK_ID and nodes[nid].energy > 0.0
    }
    links = state.site.links
    reached = {SINK_ID}
    frontier = [SINK_ID]
    while frontier:
        for nid in links[frontier.pop()]:
            if nid in unreached:
                unreached.remove(nid)
                reached.add(nid)
                frontier.append(nid)
    return reached


def comm_coverage(site: Site, reach: set[int]) -> float:
    """Fraction of the points of site.grid within the communication radius
    of at least one node of reach, the sink-reachable nodes, sink
    included."""
    grid = site.grid
    covered = np.zeros((len(grid.ys), (len(grid.xs) + 7) // 8), dtype=np.uint8)
    for footprint in grid.discs(reach):  # OR commutes: any order will do
        if footprint is None:
            continue
        (iy0, iy1, bx0, bx1), mask = footprint
        covered[iy0:iy1, bx0:bx1] |= mask
    return int(_POPCOUNT[covered].sum()) / grid.point_count


def sensing_coverage(site: Site, reach: set[int]) -> float:
    """Fraction of the points of site.grid whose combined detection
    probability under the sink-reachable active sensors, those of reach,
    reaches the detection threshold of the site's sensing model.

    Sensors detect independently, so the combined probability at a point is
    1 - prod(1 - p_i). The sink is a collector, not a sensor, and does not
    contribute.

    The products are folded band by band (see CoverageGrid). The sensors'
    footprints are bucketed by the rows of bands they overlap, in ascending
    id. For each band in a row of bands with any, its part of the shared
    buffer is filled with 1.0, each footprint multiplies its part in the
    band into it, in place, and the points whose 1 - miss reaches the
    threshold are counted. So every point's product is folded from 1.0 in
    ascending id, as on a whole grid, with the same bits, whatever an
    earlier call left; where no footprint reaches, 1 - miss = 0 is below
    any threshold. The value is the summed count over the grid's points.
    """
    grid = site.grid
    height, width = grid.band_shape
    nx, ny = len(grid.xs), len(grid.ys)
    buckets: list[list] = [[] for _ in range(-(-ny // height))]
    for footprint in grid.miss_factors(sorted(reach - {SINK_ID})):
        if footprint is not None:
            (iy0, iy1, _, _), _ = footprint
            for row in range(iy0 // height, (iy1 - 1) // height + 1):
                buckets[row].append(footprint)
    threshold = site.sensing.detection_threshold
    detected = 0
    for row, bucket in enumerate(buckets):
        if not bucket:
            continue
        by0 = row * height
        by1 = min(by0 + height, ny)
        for bx0 in range(0, nx, width):
            bx1 = min(bx0 + width, nx)
            miss = _BAND[: (by1 - by0) * (bx1 - bx0)].reshape(by1 - by0, bx1 - bx0)
            miss.fill(1.0)
            for (iy0, iy1, ix0, ix1), factor in bucket:
                if by0 <= iy0 and iy1 <= by1 and bx0 <= ix0 and ix1 <= bx1:
                    view = miss[iy0 - by0 : iy1 - by0, ix0 - bx0 : ix1 - bx0]
                else:  # the band's edges cut the footprint, or miss it
                    y0, y1 = max(iy0, by0), min(iy1, by1)
                    x0, x1 = max(ix0, bx0), min(ix1, bx1)
                    if x0 >= x1:
                        continue
                    view = miss[y0 - by0 : y1 - by0, x0 - bx0 : x1 - bx0]
                    factor = factor[y0 - iy0 : y1 - iy0, x0 - ix0 : x1 - ix0]
                np.multiply(view, factor, out=view)
            np.subtract(1.0, miss, out=miss)
            detected += np.count_nonzero(miss >= threshold)
    return detected / grid.point_count
