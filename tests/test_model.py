import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsnlife import (
    DeploymentArea,
    EnergyParams,
    Point,
    RadioParams,
    Role,
    Topology,
    activate_topology,
    distance,
    engine,
    rx_energy,
    tx_energy,
)

from helpers import make_state, neighbors

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


def _chain(batteries):
    """Sink 0, relay 1 and sender 2 in a line 40 m apart, both sensors active
    in the tree 2 -> 1 -> 0, with the given sensor batteries."""
    state = make_state([(0.0, 0.0), (40.0, 0.0), (80.0, 0.0)])
    activate_topology(state, Topology(active_set={0, 1, 2}, parent={1: 0, 2: 1}))
    for nid, joules in batteries.items():
        state.nodes[nid].energy = joules
    return state, engine._routes(state)


def _data_round(state, routes):
    """One data round hop by hop, as step() runs it at state.time."""
    state.in_step = True
    engine._per_hop_round(state, routes)
    state.in_step = False


def _battery_drop(state, before):
    return before - sum(n.energy for n in state.nodes if n.id != 0)


def test_per_hop_round_clamps_and_kills():
    bits = EnergyParams().data_packet_bits
    tx = tx_energy(EnergyParams(), bits, 40.0)
    rx = rx_energy(EnergyParams(), bits)
    # relay 1 pays its own transmit in full, then runs dry receiving for 2
    state, routes = _chain({1: tx + rx / 2, 2: 1.0})
    state.time = 4
    full = sum(n.energy for n in state.nodes if n.id != 0)
    _data_round(state, routes)
    relay = state.nodes[1]
    assert relay.energy == 0.0  # clamped to the residual, never negative
    assert not relay.alive
    assert state.death_step == {1: 5}  # the step in progress
    assert (state.packets_delivered, state.packets_dropped) == (1, 1)
    assert math.isclose(_battery_drop(state, full), state.energy_ledger, rel_tol=1e-12)
    # the next round: 2 transmits into the dead hop, which is not drained
    state.time = 5
    sender_before = state.nodes[2].energy
    _data_round(state, routes)
    assert relay.energy == 0.0
    assert state.nodes[2].energy == sender_before - tx
    assert state.death_step == {1: 5}
    assert (state.packets_delivered, state.packets_dropped) == (1, 2)
    assert math.isclose(_battery_drop(state, full), state.energy_ledger, rel_tol=1e-12)


def test_delivery_leaves_sink_battery_untouched():
    state, routes = _chain({})
    sink_before = state.sink.energy
    for _ in range(3):
        _data_round(state, routes)
    assert state.packets_delivered == 6 and state.packets_dropped == 0
    assert state.sink.energy == sink_before
    assert state.sink.alive and state.sink.role is Role.SINK


def test_kill_sink_does_nothing_and_second_kill_keeps_first_step():
    state = make_state([(0.0, 0.0), (10.0, 0.0)])
    sink_before = state.sink.energy
    state.kill(0)
    assert state.sink.energy == sink_before and state.sink.alive
    assert state.death_step == {}
    state.time = 3
    state.kill(1)
    state.time = 7
    state.kill(1)
    assert state.death_step == {1: 3}
    assert state.nodes[1].energy == 0.0 and not state.nodes[1].alive


def test_ledger_matches_energy_drop():
    # uneven batteries, so the two sensors die on different rounds
    state, routes = _chain({1: 3.3e-4, 2: 2.1e-4})
    full = sum(n.energy for n in state.nodes if n.id != 0)
    while any(n.alive for n in state.nodes[1:]):
        _data_round(state, routes)
        state.time += 1
        assert math.isclose(
            _battery_drop(state, full), state.energy_ledger, rel_tol=1e-9
        )
    assert state.energy_ledger == pytest.approx(full, rel=1e-9)
    assert set(state.death_step) == {1, 2}
