import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsnlife import DeploymentArea, Point, RadioParams, Role, distance, neighbors

from helpers import make_state

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def test_distance_examples():
    assert distance(Point(0, 0), Point(0, 0)) == 0.0
    assert distance(Point(0, 0), Point(3, 4)) == 5.0
    assert distance(Point(1, 1), Point(4, 5)) == 5.0


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


@given(points, points)
def test_distance_symmetric(a, b):
    assert distance(a, b) == distance(b, a)


@given(points, points)
def test_distance_zero_iff_same_point(a, b):
    d = distance(a, b)
    assert d >= 0.0
    if a == b:
        assert d == 0.0
    if d == 0.0:
        assert a.x == b.x and a.y == b.y


@given(points, points, points)
def test_distance_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-7


def test_neighbors_single_node():
    state = make_state([(0.0, 0.0)])
    assert neighbors(state, 0, 100.0) == []


def test_neighbors_two_nodes_within_radius():
    state = make_state([(0.0, 0.0), (50.0, 0.0)])
    assert neighbors(state, 0, 100.0) == [1]
    assert neighbors(state, 1, 100.0) == [0]


def test_neighbors_three_collinear():
    state = make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)])
    assert neighbors(state, 1, 100.0) == [0, 2]
    assert neighbors(state, 0, 100.0) == [1]
    assert neighbors(state, 2, 100.0) == [1]


def test_neighbors_excludes_dead_and_unknown_id():
    state = make_state([(0.0, 0.0), (50.0, 0.0), (60.0, 0.0)], dead=[1])
    assert neighbors(state, 0, 100.0) == [2]
    with pytest.raises(KeyError):
        neighbors(state, 99, 100.0)


def test_neighbors_symmetric_on_random_instance():
    import random

    rng = random.Random(7)
    positions = [(rng.uniform(0, 300), rng.uniform(0, 300)) for _ in range(25)]
    state = make_state(positions, dead=[3, 11])
    radius = 120.0
    for a in range(25):
        if not state.nodes[a].alive:
            continue
        for b in neighbors(state, a, radius):
            assert a in neighbors(state, b, radius)


def linked_state(positions, radius):
    return make_state(
        positions,
        area=DeploymentArea(1.0, 1.0),
        radio=RadioParams(communication_radius=radius),
    )


def assert_links_match_brute_force(state):
    radius = state.radio.communication_radius
    for i in range(len(state.nodes)):
        assert state.links[i] == neighbors(state, i, radius)


@given(
    st.lists(
        st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)),
        min_size=1,
        max_size=40,
    ),
    st.floats(0.5, 250.0),
)
def test_links_match_neighbors(positions, radius):
    assert_links_match_brute_force(linked_state(positions, radius))


@pytest.mark.parametrize("radius", [60.0, 100.0, 0.1, 1 / 3, 100 / 7])
def test_links_on_bucket_edges(radius):
    # A lattice R apart puts every node on a bucket edge, 0 included.
    lattice = [(i * radius, j * radius) for j in range(-2, 4) for i in range(-2, 4)]
    beyond = math.nextafter(radius, math.inf)
    tiny = -5e-324  # radius - tiny rounds to radius: linked across two edges
    pairs = [
        ((0.0, 7.5 * radius), (beyond, 7.5 * radius)),
        ((tiny, 9.0 * radius), (radius, 9.0 * radius)),
        ((9.0 * radius, tiny), (9.0 * radius, radius)),
    ]
    positions = lattice + [p for pair in pairs for p in pair]
    state = linked_state(positions, radius)
    assert_links_match_brute_force(state)
    a, b, c, d, e, f = range(len(lattice), len(positions))
    assert state.links[a] == [] and state.links[b] == []
    assert state.links[c] == [d] and state.links[e] == [f]
    if radius == 60.0:  # multiples of 60 are exact: side neighbours lie exactly R apart
        centre = lattice.index((0.0, 0.0))
        assert [positions[j] for j in state.links[centre]] == [
            (0.0, -60.0), (-60.0, 0.0), (60.0, 0.0), (0.0, 60.0)
        ]


def test_links_fixed_when_nodes_die():
    state = make_state([(0.0, 0.0), (50.0, 0.0), (90.0, 0.0), (130.0, 0.0)])
    before = [list(own) for own in state.links]
    assert before == [[1, 2], [0, 2, 3], [0, 1, 3], [1, 2]]
    state.kill(2)
    assert state.links == before
    assert neighbors(state, 1, 100.0) == [0, 3]


def test_charge_clamps_and_kills():
    state = make_state([(0.0, 0.0), (10.0, 0.0)], initial_energy=1e-3)
    drained = state.charge(1, 4e-4)
    assert drained == pytest.approx(4e-4)
    assert state.nodes[1].alive
    drained = state.charge(1, 9e-4)
    assert drained == pytest.approx(6e-4)
    assert not state.nodes[1].alive
    assert state.nodes[1].energy == 0.0
    assert state.energy_ledger == pytest.approx(1e-3)
    # dead nodes cannot be drained further
    assert state.charge(1, 1.0) == 0.0
    assert state.energy_ledger == pytest.approx(1e-3)


def test_charge_sink_is_free():
    state = make_state([(0.0, 0.0), (10.0, 0.0)])
    assert state.charge(0, 5.0) == 0.0
    assert state.energy_ledger == 0.0
    assert state.sink.alive
    assert state.sink.role is Role.SINK


def test_ledger_matches_energy_drop():
    state = make_state([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], initial_energy=0.5)
    state.charge(1, 0.2)
    state.charge(2, 0.1)
    state.charge(1, 0.05)
    initial = 2 * 0.5
    current = sum(n.energy for n in state.nodes if n.id != 0)
    assert math.isclose(initial - current, state.energy_ledger, rel_tol=1e-9)
