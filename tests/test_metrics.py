import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnlife import metrics
from wsnlife import (
    DeploymentArea,
    RadioParams,
    SensingParams,
    alive_count,
    comm_coverage,
    sense_probabilities,
    sense_probability,
    sensing_coverage,
    sink_reachable,
)
from helpers import make_state

SP = SensingParams()  # r_u=2, lambda=0.5, beta=1, p_min=0.5
R_SENSE = 20.0


def test_sense_probability_piecewise_cases():
    assert sense_probability(SP, R_SENSE, 10.0) == 1.0
    assert sense_probability(SP, R_SENSE, 30.0) == 0.0
    assert sense_probability(SP, R_SENSE, 19.0) == pytest.approx(
        math.exp(-0.5), rel=1e-12
    )


def test_sense_probability_boundaries():
    inner = R_SENSE - SP.uncertainty_radius
    outer = R_SENSE + SP.uncertainty_radius
    assert sense_probability(SP, R_SENSE, inner) == 1.0
    # middle branch approaches 1 at the inner edge: continuity
    assert sense_probability(SP, R_SENSE, inner + 1e-12) == pytest.approx(1.0, abs=1e-9)
    # value at the outer edge, then a drop to zero immediately beyond
    at_outer = sense_probability(SP, R_SENSE, outer)
    assert at_outer == pytest.approx(
        math.exp(-SP.decay_rate * (2 * SP.uncertainty_radius) ** SP.decay_exponent),
        rel=1e-12,
    )
    assert sense_probability(SP, R_SENSE, outer + 1e-9) == 0.0


@given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=60.0))
def test_sense_probability_non_increasing(x1, x2):
    lo, hi = sorted((x1, x2))
    assert sense_probability(SP, R_SENSE, lo) >= sense_probability(SP, R_SENSE, hi)


def spelled_out_miss(sp, r, x):
    """1 - p of the sensing model, written out apart from the package."""
    inner = r - sp.uncertainty_radius
    if x <= inner:
        return 0.0
    if x > r + sp.uncertainty_radius:
        return 1.0
    return 1.0 - math.exp(-sp.decay_rate * (x - inner) ** sp.decay_exponent)


@pytest.mark.parametrize(
    "sp, r",
    [
        (SP, R_SENSE),
        (SensingParams(uncertainty_radius=3.0, decay_rate=0.8, decay_exponent=2.5), 15.0),
        (SensingParams(uncertainty_radius=1.5, decay_rate=1.3, decay_exponent=0.4), 12.0),
    ],
)
def test_batch_miss_factors_match_the_formula_bit_for_bit(sp, r):
    # the band's two edges and their neighbouring doubles, the band itself,
    # and the certain and empty sides
    inner, outer = r - sp.uncertainty_radius, r + sp.uncertainty_radius
    edges = [
        math.nextafter(edge, toward) for edge in (inner, outer) for toward in (0.0, edge, 99.0)
    ]
    xs = edges + [0.0, inner / 2, r, (r + outer) / 2, outer * 2] + [
        inner + k * (outer - inner) / 37 for k in range(1, 37)
    ]
    misses = [1.0 - p for p in sense_probabilities(sp, r, xs)]
    want = [spelled_out_miss(sp, r, x).hex() for x in xs]
    assert [m.hex() for m in misses] == want
    assert [(1.0 - sense_probability(sp, r, x)).hex() for x in xs] == want


def test_alive_count_and_decrement():
    state = make_state([(0, 0), (10, 0), (20, 0)])
    assert alive_count(state) == 3
    state.kill(1)
    assert alive_count(state) == 2
    state.kill(2)
    assert alive_count(state) == 1  # the sink survives


def test_sink_reachable_empty_topology():
    state = make_state([(0, 0), (50, 0)])
    assert sink_reachable(state) == {0}


def test_sink_reachable_chain():
    positions = [(0, 0), (90, 0), (180, 0)]
    state = make_state(positions, active=[1, 2])
    assert sink_reachable(state) == {0, 1, 2}


def test_sink_reachable_chain_broken_by_death():
    positions = [(0, 0), (90, 0), (180, 0)]
    state = make_state(positions, active=[1, 2], dead=[1])
    assert sink_reachable(state) == {0}


def test_sink_reachable_ignores_sleeping_relays():
    positions = [(0, 0), (90, 0), (180, 0)]
    state = make_state(positions, active=[2])
    assert sink_reachable(state) == {0}


@pytest.mark.parametrize(
    "radius, x, y",
    [
        (100.0, 96.87375848777113, 24.808766927297956),
        (60.0, 59.83845109126747, 4.3999739769674475),
        (90.0, 87.11846051985349, 22.591454947628545),
    ],
)
def test_sink_reachable_uses_link_predicate_at_radius(radius, x, y):
    # within an ulp of R: hypot(x, y) <= R holds, x*x + y*y <= R*R does not
    assert math.hypot(x, y) <= radius and not x * x + y * y <= radius * radius
    state = make_state(
        [(0.0, 0.0), (x, y)],
        radio=RadioParams(communication_radius=radius),
        active=[1],
    )
    assert sink_reachable(state) == {0, 1}
    assert state.site.links[0] == [1]


def test_comm_coverage_inscribed_circle():
    # lone sink centered in a 200 x 200 area with R = 100: pi/4 of the area
    state = make_state([(100.0, 100.0)], area=DeploymentArea(200.0, 200.0))
    reach = sink_reachable(state)
    assert comm_coverage(state.site, reach) == pytest.approx(math.pi / 4, abs=0.01)


def test_comm_coverage_full_when_radius_exceeds_diagonal():
    radio = RadioParams(communication_radius=300.0)
    state = make_state([(100.0, 100.0)], area=DeploymentArea(200.0, 200.0), radio=radio)
    assert comm_coverage(state.site, sink_reachable(state)) == 1.0


def test_comm_coverage_vanishes_as_radius_shrinks():
    radio = RadioParams(communication_radius=1e-6)
    state = make_state([(100.0, 100.0)], area=DeploymentArea(200.0, 200.0), radio=radio)
    assert comm_coverage(state.site, sink_reachable(state)) < 0.002


def test_coverage_monotone_in_reachable_set():
    area = DeploymentArea(400.0, 200.0)
    base = make_state([(100.0, 100.0), (190.0, 100.0)], area=area)
    grown = make_state(
        [(100.0, 100.0), (190.0, 100.0)], area=area, active=[1]
    )
    lone = comm_coverage(base.site, sink_reachable(base))
    assert comm_coverage(grown.site, sink_reachable(grown)) >= lone
    lone = sensing_coverage(base.site, sink_reachable(base))
    assert sensing_coverage(grown.site, sink_reachable(grown)) >= lone


def test_sensing_coverage_no_active_sensors_is_zero():
    state = make_state([(100.0, 100.0)], area=DeploymentArea(200.0, 200.0))
    assert sensing_coverage(state.site, sink_reachable(state)) == 0.0


def test_sensing_coverage_single_sensor_disk():
    area = DeploymentArea(200.0, 200.0)
    state = make_state([(100.0, 100.0), (100.0, 100.0)], area=area, active=[1], grid_cell=2.0)
    got = sensing_coverage(state.site, sink_reachable(state))
    # points within r - r_u are certain; the p >= 0.5 contour sits at
    # x = inner + ln(2)/lambda = 18 + 1.386..., inside the 22 m outer edge
    contour = (R_SENSE - SP.uncertainty_radius) + math.log(2.0) / SP.decay_rate
    expected = math.pi * contour**2 / (200.0 * 200.0)
    assert got == pytest.approx(expected, abs=0.01)


def test_sensing_combination_two_weak_sensors():
    # two sensors each giving p = 0.4 at a point combine to 0.64 >= 0.5
    sp = SensingParams(detection_threshold=0.5)
    p_single = 0.4
    combined = 1 - (1 - p_single) ** 2
    assert combined == pytest.approx(0.64, rel=1e-12)
    # realize it geometrically: alpha = ln(1/0.4)/0.5 puts each sensor at
    # distance inner + alpha from the probe point
    alpha = math.log(1 / p_single) / sp.decay_rate
    x = (R_SENSE - sp.uncertainty_radius) + alpha
    assert sense_probability(sp, R_SENSE, x) == pytest.approx(p_single, rel=1e-12)
    area = DeploymentArea(120.0, 120.0)
    probe = (60.0, 60.0)
    state = make_state(
        [(1.0, 1.0), (60.0 - x, 60.0), (60.0 + x, 60.0)],
        area=area,
        active=[1, 2],
        radio=RadioParams(communication_radius=130.0),
        sensing=sp,
        grid_cell=120.0,  # single sample point at (60, 60)
    )
    grid = state.site.grid
    assert grid.point_count == 1
    assert grid.xs[0] == probe[0] and grid.ys[0] == probe[1]
    assert sensing_coverage(state.site, sink_reachable(state)) == 1.0


def whole_grid_sensing_coverage(site, reach):
    """The miss products folded on one array the size of the site's grid, in
    ascending id: the reference for the banded fold."""
    grid = site.grid
    miss = np.ones((len(grid.ys), len(grid.xs)))
    for footprint in grid.miss_factors(sorted(reach - {0})):
        if footprint is not None:
            (iy0, iy1, ix0, ix1), factor = footprint
            miss[iy0:iy1, ix0:ix1] *= factor
    threshold = site.sensing.detection_threshold
    return np.count_nonzero(1.0 - miss >= threshold) / grid.point_count


# Band sizes for the banded fold: one point, pieces of a row, a few rows,
# and the real size, under which the small grids below fit in one band.
BAND_POINTS = [1, 5, 64, 700, metrics._BAND_POINTS]


# Sensor spots on the grids below (at most 180 m a side), across their edges
# and wholly off them.
SPOT = st.floats(-40.0, 220.0)
SPOTS = st.lists(st.tuples(SPOT, SPOT), max_size=12)
COLUMN = [(1.0, 24.0 * k) for k in range(6)]


@settings(max_examples=80, deadline=None)
@given(
    cols=st.integers(1, 90),
    rows=st.integers(1, 90),
    band_points=st.sampled_from(BAND_POINTS),
    r=st.floats(1.0, 30.0),
    spots=SPOTS,
    picks=st.sets(st.integers(1, 12)),
)
@example(cols=1, rows=60, band_points=7, r=8.0, spots=COLUMN, picks=set(range(6)))
@example(cols=60, rows=1, band_points=7, r=8.0, spots=[p[::-1] for p in COLUMN], picks={1, 3})
@example(cols=40, rows=30, band_points=64, r=8.0, spots=COLUMN, picks=set())
def test_banded_sensing_coverage_matches_whole_grid_fold(
    cols, rows, band_points, r, spots, picks
):
    cell = 2.0
    area = DeploymentArea(cols * cell, rows * cell)
    sp = SensingParams(uncertainty_radius=r / 4)
    positions = [(0.0, 0.0), *spots]  # the sink first: never a sensor
    reach = {0} | {k for k in picks if k < len(positions)}
    radio = RadioParams(communication_radius=50.0, sensing_radius=r)
    site = make_state(positions, area=area, radio=radio, sensing=sp, grid_cell=cell).site
    with mock.patch.object(metrics, "_BAND_POINTS", band_points):
        height, width = site.grid.band_shape
    assert height * width <= band_points
    want = whole_grid_sensing_coverage(site, reach)
    assert sensing_coverage(site, reach).hex() == want.hex()


def test_banded_sensing_coverage_matches_whole_grid_fold_on_many_bands():
    # 250 x 200 points at the real band size: bands of 131 rows, so the
    # sensors' footprints straddle the one band edge at y = 262
    area = DeploymentArea(500.0, 400.0)
    positions = [(250.0, 200.0)] + [
        (12.5 + 37.0 * k, 262.0 + (-1) ** k * 9.0 * (k % 4)) for k in range(14)
    ] + [(250.0, 130.0), (250.0, 131.0), (-30.0, 262.0)]
    radio = RadioParams(sensing_radius=20.0)
    site = make_state(positions, area=area, radio=radio, grid_cell=2.0).site
    assert site.grid.band_shape == (131, 250)
    reach = set(range(len(positions)))
    want = whole_grid_sensing_coverage(site, reach)
    assert want > 0.0
    assert sensing_coverage(site, reach).hex() == want.hex()


def test_grids_of_other_band_shapes_fold_in_turn_as_alone():
    # every grid folds in the one band buffer: a grid of 131-row bands and
    # one of a single 300 x 20 band, used in turn, each give the bits they
    # give used alone, so no fold reads what another left
    def sites():
        wide = make_state(
            [(250.0, 200.0)] + [(12.5 + 33.0 * k, 262.0 + 9.0 * (k % 4)) for k in range(15)],
            area=DeploymentArea(500.0, 400.0),
            radio=RadioParams(sensing_radius=20.0),
            grid_cell=2.0,
        )
        narrow = make_state(
            [(20.0, 300.0)] + [(7.0 * (k % 5), 41.0 * k + 3.0) for k in range(15)],
            area=DeploymentArea(40.0, 600.0),
            radio=RadioParams(sensing_radius=12.0),
            grid_cell=2.0,
        )
        return {"wide": wide.site, "narrow": narrow.site}

    reaches = [set(range(16)), {0, 1, 2, 3}, set(range(0, 16, 3)), {0, 15}]
    alone = {}
    for name, site in sites().items():
        alone[name] = [sensing_coverage(site, reach).hex() for reach in reaches]
        want = [whole_grid_sensing_coverage(site, reach).hex() for reach in reaches]
        assert alone[name] == want
    fresh = sites()
    assert fresh["wide"].grid.band_shape == (131, 250)
    assert fresh["narrow"].grid.band_shape == (300, 20)
    turns = {name: [] for name in fresh}
    for reach in reaches:
        for name, site in fresh.items():
            turns[name].append(sensing_coverage(site, reach).hex())
    assert turns == alone


def test_sensing_coverage_allocates_no_grid_sized_array():
    # 2 M points: a float grid of them is 16 MB, a bool grid 2 MB
    area = DeploymentArea(2000.0, 1000.0)
    positions = [(1000.0, 500.0)] + [(97.0 * k + 10.0, 45.0 * k + 30.0) for k in range(21)]
    radio = RadioParams(sensing_radius=R_SENSE)
    site = make_state(positions, area=area, radio=radio, grid_cell=1.0).site
    assert site.grid.point_count == 2_000_000
    reach = set(range(len(positions)))
    first = sensing_coverage(site, reach)  # builds the footprints
    tracemalloc.start()
    try:
        again = sensing_coverage(site, reach)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again == first > 0.0
    assert peak < 1 << 20


def grid_of(area, cell):
    """The coverage grid of a sink-only site of cell-sized cells on area."""
    return make_state([(0.0, 0.0)], area=area, grid_cell=cell).site.grid


def test_grid_tiling_counts():
    grid = grid_of(DeploymentArea(1074.0, 660.0), 4.0)
    assert grid.point_count == math.ceil(1074 / 4) * math.ceil(660 / 4)
    grid2 = grid_of(DeploymentArea(10.0, 3.0), 4.0)
    assert len(grid2.xs) == 3 and len(grid2.ys) == 1


def test_grid_rejects_bad_cell():
    for cell in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            grid_of(DeploymentArea(10.0, 10.0), cell)
