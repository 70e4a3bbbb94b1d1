"""Coverage through per-node footprints against every disc evaluated afresh."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import metrics
from wsnlife import (
    DeploymentArea,
    RadioParams,
    SensingParams,
    comm_coverage,
    sense_probability,
    sensing_coverage,
)

from helpers import make_state


def disc_by_disc(state, reach):
    """Both coverage values with every node's disc evaluated afresh on the
    points of the state's grid, as a reference for the footprints."""
    xs, ys, sp = state.site.grid.xs, state.site.grid.ys, state.site.sensing

    def patch(at, reach_radius):
        ix0 = int(np.searchsorted(xs, at.x - reach_radius, side="left"))
        ix1 = int(np.searchsorted(xs, at.x + reach_radius, side="right"))
        iy0 = int(np.searchsorted(ys, at.y - reach_radius, side="left"))
        iy1 = int(np.searchsorted(ys, at.y + reach_radius, side="right"))
        if ix0 >= ix1 or iy0 >= iy1:
            return None
        where = slice(iy0, iy1), slice(ix0, ix1)
        return where, xs[ix0:ix1] - at.x, ys[iy0:iy1] - at.y

    radius = state.site.radio.communication_radius
    covered = np.zeros((len(ys), len(xs)), dtype=bool)
    for nid in sorted(reach):
        found = patch(state.nodes[nid].position, radius)
        if found is not None:
            where, dx, dy = found
            covered[where] |= dy[:, None] ** 2 + dx[None, :] ** 2 <= radius * radius
    r = state.site.radio.sensing_radius
    miss = np.ones((len(ys), len(xs)))
    for nid in sorted(reach - {state.sink.id}):
        found = patch(state.nodes[nid].position, r + sp.uncertainty_radius)
        if found is not None:
            where, dx, dy = found
            d = np.sqrt(dy[:, None] ** 2 + dx[None, :] ** 2)
            miss[where] *= [
                [1.0 - sense_probability(sp, r, x) for x in row] for row in d.tolist()
            ]
    sensed = (1.0 - miss) >= sp.detection_threshold
    return float(covered.mean()).hex(), float(sensed.mean()).hex()


def footprint_coverage(state, reach):
    return (
        comm_coverage(state.site, reach).hex(),
        sensing_coverage(state.site, reach).hex(),
    )


def footprint_state(positions, radii, grid_cell=4.0):
    """A state of positions on AREA under radii = (R, r, sensing
    parameters), its grid of grid_cell cells."""
    R, r, sp = radii
    radio = RadioParams(communication_radius=R, sensing_radius=r)
    return make_state(positions, area=AREA, radio=radio, sensing=sp, grid_cell=grid_cell)


AREA = DeploymentArea(120.0, 90.0)
# (communication radius, sensing radius, sensing parameters). The second
# has its sensing band r + r_u past R; the third differs from the first
# only in its sensing parameters, the fourth only in its sensing radius.
WIDE = SensingParams(uncertainty_radius=5.0, decay_rate=0.3)
FOOTPRINT_RADII = [
    (60.0, 15.0, SensingParams()),
    (12.0, 10.0, WIDE),
    (60.0, 15.0, WIDE),
    (60.0, 10.0, SensingParams()),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_footprint_coverage_matches_fresh_grid(data):
    coord = st.floats(min_value=-30.0, max_value=150.0)
    cell = data.draw(st.sampled_from([4.0, 3.0]))
    radii = data.draw(st.sampled_from(FOOTPRINT_RADII))
    positions = [
        (data.draw(coord), data.draw(coord))
        for _ in range(data.draw(st.integers(min_value=2, max_value=8)))
    ]
    # nodes where another node is, or level with it
    x, y = data.draw(st.sampled_from(positions))
    positions += [(x, y), (x, positions[0][1]), (positions[0][0], y)]
    positions.append((-500.0, -500.0))  # its disc misses the grid
    # one site whose grid keeps the footprints of every earlier reach set
    shared = footprint_state(positions, radii, cell)
    everyone = set(range(len(positions)))
    subsets = st.lists(st.sets(st.sampled_from(sorted(everyone))), max_size=3)
    for reach in [everyone, *data.draw(subsets)]:
        fresh = footprint_state(positions, radii, cell)
        want = disc_by_disc(fresh, reach)
        assert footprint_coverage(fresh, reach) == want
        assert footprint_coverage(shared, reach) == want
    missing = [len(positions) - 1]
    assert shared.site.grid.discs(missing) == [None]
    assert shared.site.grid.miss_factors(missing) == [None]


def quarters(low, high):
    """Multiples of 1/4 from low to high. Sums and differences of these and
    the grid's coordinates are exact, so a grid point can lie exactly
    r - r_u or r + r_u from a sensor."""
    return st.integers(min_value=4 * low, max_value=4 * high).map(lambda k: k / 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_miss_factor_is_one_minus_sense_probability(data):
    cell_size = data.draw(st.sampled_from([4.0, 3.0]))
    r = data.draw(quarters(1, 30))
    sp = SensingParams(
        uncertainty_radius=data.draw(quarters(0, 10)),
        decay_rate=data.draw(st.floats(min_value=0.01, max_value=2.0)),
        decay_exponent=data.draw(
            st.sampled_from([1.0, 1.7]) | st.floats(min_value=0.1, max_value=4.0)
        ),
    )
    coord = st.floats(min_value=-30.0, max_value=150.0)
    positions = [(data.draw(coord), data.draw(coord))]
    edges = [e for e in (r - sp.uncertainty_radius, r + sp.uncertainty_radius) if e >= 0]
    # a grid point, read off a grid of the same area and cells
    probe = footprint_state(positions, (100.0, r, sp), cell_size).site.grid
    gx = data.draw(st.sampled_from(probe.xs.tolist()))
    gy = data.draw(st.sampled_from(probe.ys.tolist()))
    for edge in edges:  # a sensor exactly `edge` from the grid point (gx, gy)
        dx, dy = data.draw(st.sampled_from([(edge, 0.0), (-edge, 0.0), (0.0, edge)]))
        positions.append((gx + dx, gy + dy))
    grid = footprint_state(positions, (100.0, r, sp), cell_size).site.grid
    seen = set()
    ids = range(len(positions))
    for (px, py), footprint in zip(positions, grid.miss_factors(ids)):
        if footprint is None:
            continue
        (iy0, iy1, ix0, ix1), factor = footprint
        for row, y in enumerate(grid.ys[iy0:iy1].tolist()):
            for col, x in enumerate(grid.xs[ix0:ix1].tolist()):
                d = math.sqrt((y - py) * (y - py) + (x - px) * (x - px))
                seen.add(d)
                want = 1.0 - sense_probability(sp, r, d)
                assert float(factor[row, col]).hex() == want.hex(), (px, py, d)
    assert set(edges) <= seen


def one_disc(grid, radius, px, py):
    """A disc footprint built on its own patch alone, as a reference for
    the batched build."""
    xs, ys = grid.xs, grid.ys
    ix0 = int(np.searchsorted(xs, px - radius, side="left"))
    ix1 = int(np.searchsorted(xs, px + radius, side="right"))
    iy0 = int(np.searchsorted(ys, py - radius, side="left"))
    iy1 = int(np.searchsorted(ys, py + radius, side="right"))
    if ix0 >= ix1 or iy0 >= iy1:
        return None
    bx0, bx1 = ix0 // 8, (ix1 + 7) // 8
    inside = np.zeros((iy1 - iy0, 8 * (bx1 - bx0)), dtype=bool)
    d2 = (ys[iy0:iy1] - py)[:, None] ** 2 + (xs[ix0:ix1] - px)[None, :] ** 2
    inside[:, ix0 - 8 * bx0 : ix1 - 8 * bx0] = d2 <= radius * radius
    return (iy0, iy1, bx0, bx1), np.packbits(inside, axis=1)


def one_miss_factor(grid, sp, r, px, py):
    """A miss-factor footprint built on its own patch alone, every point by
    sense_probability."""
    xs, ys = grid.xs, grid.ys
    reach = r + sp.uncertainty_radius
    ix0 = int(np.searchsorted(xs, px - reach, side="left"))
    ix1 = int(np.searchsorted(xs, px + reach, side="right"))
    iy0 = int(np.searchsorted(ys, py - reach, side="left"))
    iy1 = int(np.searchsorted(ys, py + reach, side="right"))
    if ix0 >= ix1 or iy0 >= iy1:
        return None
    d = np.sqrt((ys[iy0:iy1] - py)[:, None] ** 2 + (xs[ix0:ix1] - px)[None, :] ** 2)
    factor = [[1.0 - sense_probability(sp, r, x) for x in row] for row in d.tolist()]
    return (iy0, iy1, ix0, ix1), np.array(factor)


def footprint_bits(footprint):
    """A footprint's bounds, shape, dtype and bytes: equal exactly when
    every value has the same bits."""
    if footprint is None:
        return None
    bounds, values = footprint
    return bounds, values.shape, values.dtype, np.ascontiguousarray(values).tobytes()


POINT = st.one_of(
    st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 90.0)),  # inside
    st.sampled_from([(0.0, 0.0), (120.0, 0.0), (0.0, 90.0), (120.0, 90.0)]),
    st.tuples(st.floats(-130.0, 250.0), st.floats(-130.0, 220.0)),  # around it
    st.sampled_from([(-500.0, -500.0), (45.0, 400.0), (-104.0, 45.0)]),  # missing it
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_batched_footprints_match_one_at_a_time(data):
    chunk = metrics._FOOTPRINT_CHUNK
    size = data.draw(st.sampled_from([1, chunk, chunk + 1]) | st.integers(2, 2 * chunk + 3))
    points = data.draw(st.lists(POINT, min_size=size, max_size=size))
    for k in data.draw(st.lists(st.integers(1, size - 1), max_size=4)) if size > 1 else []:
        points[k] = points[data.draw(st.integers(0, k - 1))]  # two nodes at one point
    R, r, sp = radii = data.draw(st.sampled_from(FOOTPRINT_RADII))
    grid = footprint_state(points, radii, data.draw(st.sampled_from([4.0, 3.0]))).site.grid
    ids = range(size)
    if data.draw(st.booleans()):  # a grid already holding half of them
        grid.discs(ids[::2])
        grid.miss_factors(ids[::2])
    discs = grid.discs(ids)
    factors = grid.miss_factors(ids)
    assert len(discs) == len(factors) == size
    for (px, py), disc, factor in zip(points, discs, factors):
        assert footprint_bits(disc) == footprint_bits(one_disc(grid, R, px, py))
        want = one_miss_factor(grid, sp, r, px, py)
        assert footprint_bits(factor) == footprint_bits(want)
    assert len(grid.built_discs) == len(grid.built_miss_factors) == size


@pytest.mark.parametrize("share", ["fresh grid", "half cached"])
@pytest.mark.parametrize("extra", [-1, 0, 1])  # a batch of 1, one chunk, a chunk and one
def test_batched_coverage_matches_disc_by_disc(extra, share):
    rng = random.Random(extra)
    count = 1 if extra == -1 else metrics._FOOTPRINT_CHUNK + extra
    corners = [(0.0, 0.0), (120.0, 0.0), (0.0, 90.0), (120.0, 90.0), (-500.0, -500.0)]
    positions = [(rng.uniform(-20.0, 140.0), rng.uniform(-20.0, 110.0)) for _ in range(count)]
    positions = [(60.0, 45.0)] + (corners + positions)[:count]  # the sink first
    if count > 2:
        positions[-1] = positions[-2]  # two sensors at one position
    for radii in FOOTPRINT_RADII:
        state = footprint_state(positions, radii)
        reach = set(range(len(positions)))
        if share == "half cached":
            half = set(range(0, len(positions), 2))
            assert footprint_coverage(state, half) == disc_by_disc(state, half)
        assert footprint_coverage(state, reach) == disc_by_disc(state, reach)

