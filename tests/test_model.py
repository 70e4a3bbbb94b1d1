import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import (
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    Point,
    RadioParams,
    SINK_ID,
    SensingParams,
    SimConfig,
    Topology,
    activate_topology,
    distance,
    engine,
    model,
    rx_energy,
    tx_energy,
)
from wsnlife.deployment import Site, deploy

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
    radius = state.site.radio.communication_radius
    for i in range(len(state.nodes)):
        assert state.site.links[i] == neighbors(state, i, radius)


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
    assert state.site.links[a] == [] and state.site.links[b] == []
    assert state.site.links[c] == [d] and state.site.links[e] == [f]
    if radius == 60.0:  # multiples of 60 are exact: side neighbours lie exactly R apart
        centre = lattice.index((0.0, 0.0))
        assert [positions[j] for j in state.site.links[centre]] == [
            (0.0, -60.0), (-60.0, 0.0), (60.0, 0.0), (0.0, 60.0)
        ]


def test_links_fixed_when_nodes_die():
    state = make_state([(0.0, 0.0), (50.0, 0.0), (90.0, 0.0), (130.0, 0.0)])
    before = [list(own) for own in state.site.links]
    assert before == [[1, 2], [0, 2, 3], [0, 1, 3], [1, 2]]
    state.kill(2)
    assert state.site.links == before
    assert neighbors(state, 1, 100.0) == [0, 3]


def reference_links(nodes, radius):
    """The per-pair loop that model._links replaced, kept as a second
    oracle: the same cells in a dict keyed by their `//` indices, one
    math.hypot per candidate pair. Above 2^53 a float index has no
    neighbour (cx + 1 == cx), so it lists a node's own cell again and
    repeats ids; the tests compare it only below that."""
    side = math.nextafter(radius, math.inf)
    xs = [n.position.x for n in nodes]
    ys = [n.position.y for n in nodes]
    cells = {}
    for i in range(len(nodes)):
        cells.setdefault((xs[i] // side, ys[i] // side), []).append(i)
    links = [[] for _ in nodes]
    hypot = math.hypot
    for (cx, cy), members in cells.items():
        pool = list(members)
        for key in ((cx + 1, cy), (cx - 1, cy + 1), (cx, cy + 1), (cx + 1, cy + 1)):
            pool += cells.get(key, ())
        for k, i in enumerate(members, 1):
            xi, yi, own = xs[i], ys[i], links[i]
            for j in pool[k:]:
                if hypot(xi - xs[j], yi - ys[j]) <= radius:
                    own.append(j)
                    links[j].append(i)
    for own in links:
        own.sort()
    return links


def assert_links_exact(positions, radius, chunk=model._LINK_CHUNK, reference=True):
    """_links, screened in passes of chunk pairs, equals a scan of all
    nodes and, where asked, the reference loop; and its lists share one
    int object per node id."""
    state = linked_state(positions, radius)
    with mock.patch.object(model, "_LINK_CHUNK", chunk):
        links = model._links(state.site.positions, radius)
    assert links == [neighbors(state, i, radius) for i in range(len(positions))]
    if reference:
        assert links == reference_links(state.nodes, radius)
    assert_shared_ids(links)
    return links


def assert_shared_ids(links):
    values = [v for own in links for v in own]
    assert len({id(v) for v in values}) == len(set(values))


def at_distance(px, py, angle, target):
    """A point in direction angle from (px, py) whose distance from it, as
    model.distance computes it, is target, where walking the point's
    larger coordinate offset by ulps finds one (most draws); else the
    last point of the walk."""
    qx, qy = px + target * math.cos(angle), py + target * math.sin(angle)
    walk_x = abs(math.cos(angle)) >= abs(math.sin(angle))
    for _ in range(64):
        d = math.hypot(qx - px, qy - py)
        if d == target:
            break
        if walk_x:
            qx = math.nextafter(qx, math.inf if (d < target) == (qx >= px) else -math.inf)
        else:
            qy = math.nextafter(qy, math.inf if (d < target) == (qy >= py) else -math.inf)
    return qx, qy


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.1, 250.0),
    st.lists(
        st.tuples(
            st.floats(-2.0, 2.0),
            st.floats(-2.0, 2.0),
            st.floats(0.0, 2 * math.pi),
            st.sampled_from([-1, 0, 1]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([1, 5, 64, model._LINK_CHUNK]),
)
def test_links_on_the_rim(radius, pairs, chunk):
    # Pairs R and R +- 1 ulp apart: the screen's band must send them to hypot.
    targets = {-1: math.nextafter(radius, 0.0), 0: radius, 1: math.nextafter(radius, math.inf)}
    positions = []
    for u, v, angle, ulps in pairs:
        px, py = u * radius, v * radius
        positions += [(px, py), at_distance(px, py, angle, targets[ulps])]
    assert_links_exact(positions, radius, chunk)


@pytest.mark.parametrize("chunk", [3, 64, model._LINK_CHUNK])
def test_links_with_coincident_nodes(chunk):
    # 70 nodes on one point hold 2415 pairs, more than one pass screens.
    radius = 100.0
    positions = [(0.0, 0.0)] + [(250.0, 250.0)] * 70 + [(300.0, 250.0)] * 30
    positions += [(250.0, 350.0), (250.0, math.nextafter(350.0, math.inf)), (-100.0, 0.0)]
    links = assert_links_exact(positions, radius, chunk)
    assert links[1] == list(range(2, 102)) and links[102] == [101] and links[0] == [103]


@pytest.mark.parametrize("radius", [0.1, 1 / 3, 100 / 7, 60.0, 100.0, 250.0])
def test_links_on_cell_edge_lattices(radius):
    # Lattices R and one cell side apart put nodes on cell edges; the
    # shifted copy puts them a hair before the edges.
    side = math.nextafter(radius, math.inf)
    for step in (radius, side):
        lattice = [(i * step, j * step) for j in range(-3, 4) for i in range(-3, 4)]
        shifted = [(x - step / 2**40, y - step / 2**40) for x, y in lattice]
        assert_links_exact(lattice + shifted, radius)


@pytest.fixture(scope="module")
def deployments():
    """The default 300-node deployment and one of large_network's 3000 nodes
    at the default density (the default area scaled by sqrt(10) a side)."""
    scale = math.sqrt(10.0)
    configs = [
        DeploymentConfig(),
        DeploymentConfig(node_count=3000, area=DeploymentArea(1074.0 * scale, 660.0 * scale)),
    ]
    sites = [Site(config, RadioParams(), SensingParams()) for config in configs]
    return [deploy(site, EnergyParams()) for site in sites]


def test_links_match_reference_on_deployments(deployments):
    for state in deployments:
        links = model._links(state.site.positions, state.site.radio.communication_radius)
        assert links == reference_links(state.nodes, state.site.radio.communication_radius)
        assert_shared_ids(links)


def test_links_memory_at_3000_nodes(deployments):
    # The lists themselves take 0.56 MB; screening every candidate pair in
    # one pass peaks at 2.8 MB.
    state = deployments[1]
    tracemalloc.start()
    try:
        model._links(state.site.positions, state.site.radio.communication_radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_links_on_the_largest_accepted_area():
    # validate_config accepts any area whose grid it can build, so cell
    # indices reach 2^1017 at R = 100: far past int64 and past 2^53.
    big = sys.float_info.max
    config = SimConfig(
        deployment=DeploymentConfig(node_count=40, area=DeploymentArea(big, big)),
        grid_cell=big,
    )
    engine.validate_config(config)
    state = deploy(Site(config.deployment, config.radio, config.sensing), config.energy)
    positions = [(n.position.x, n.position.y) for n in state.nodes]
    positions += [(big, big)] * 3 + [(big, 0.0), (big, 100.0), (big, 201.0)]
    positions += [(1e21, 50.0 * k) for k in range(5)] + [(2.0**63 * 100.0, 0.0)] * 2
    links = assert_links_exact(positions, 100.0, reference=False)
    assert links[40] == [41, 42] and links[43] == [44] and links[45] == []
    assert links[46] == [47, 48] and links[51] == [52]


@pytest.mark.parametrize("radius", [5e-324, 1e-160, 1e200, math.inf])
def test_links_at_extreme_radii(radius):
    # Squares of the distances underflow or overflow: the band sends such
    # pairs to hypot.
    scale = radius if math.isfinite(radius) else 1e300
    positions = [(k * scale / 2, (k % 3) * scale / 3) for k in range(-4, 5)]
    positions += [(scale, 0.0), (math.nextafter(scale, math.inf), 0.0), (0.0, 0.0)]
    assert_links_exact(positions, radius)


@pytest.mark.parametrize(
    "radius, dx, dy",
    [
        (1e-160, 1.3245283427134096e-161, 9.911883399733673e-161),  # linked
        (2e-161, 8.16509556178561e-162, 1.825877825115569e-161),  # not linked
    ],
)
def test_links_where_squares_underflow(radius, dx, dy):
    # Subnormal squares round by far more than 1e-9 of R^2: these d2 fall
    # outside the relative band on the wrong side, and only the 2^-1000
    # widening sends them to hypot.
    links = assert_links_exact([(0.0, 0.0), (dx, dy)], radius)
    assert links == ([[1], [0]] if math.hypot(dx, dy) <= radius else [[], []])


def test_links_of_no_node_and_of_one():
    assert model._links([], 100.0) == []
    assert assert_links_exact([(5.0, 5.0)], 100.0) == [[]]


def _chain(batteries):
    """Sink 0, relay 1 and sender 2 in a line 40 m apart, both sensors active
    in the tree 2 -> 1 -> 0, with the given sensor batteries."""
    state = make_state([(0.0, 0.0), (40.0, 0.0), (80.0, 0.0)])
    activate_topology(state, Topology(active_set={0, 1, 2}, parent={1: 0, 2: 1}))
    for nid, joules in batteries.items():
        state.nodes[nid].energy = joules
    return state


def _data_round(state):
    """One data round hop by hop, as step() runs it at state.time."""
    state.in_step = True
    engine._per_hop_round(state)
    state.in_step = False


def _battery_drop(state, before):
    return before - sum(n.energy for n in state.nodes if n.id != 0)


def test_per_hop_round_clamps_and_kills():
    bits = EnergyParams().data_packet_bits
    tx = tx_energy(EnergyParams(), bits, 40.0)
    rx = rx_energy(EnergyParams(), bits)
    # relay 1 pays its own transmit in full, then runs dry receiving for 2
    state = _chain({1: tx + rx / 2, 2: 1.0})
    state.time = 4
    full = sum(n.energy for n in state.nodes if n.id != 0)
    _data_round(state)
    relay = state.nodes[1]
    assert relay.energy == 0.0  # clamped to the residual, never negative
    assert not relay.alive
    assert state.death_step == {1: 5}  # the step in progress
    assert (state.packets_delivered, state.packets_dropped) == (1, 1)
    assert math.isclose(_battery_drop(state, full), state.energy_ledger, rel_tol=1e-12)
    # the next round: 2 transmits into the dead hop, which is not drained
    state.time = 5
    sender_before = state.nodes[2].energy
    _data_round(state)
    assert relay.energy == 0.0
    assert state.nodes[2].energy == sender_before - tx
    assert state.death_step == {1: 5}
    assert (state.packets_delivered, state.packets_dropped) == (1, 2)
    assert math.isclose(_battery_drop(state, full), state.energy_ledger, rel_tol=1e-12)


def test_delivery_leaves_sink_battery_untouched():
    state = _chain({})
    sink_before = state.sink.energy
    for _ in range(3):
        _data_round(state)
    assert state.packets_delivered == 6 and state.packets_dropped == 0
    assert state.sink.energy == sink_before
    assert state.sink.alive and state.sink.id == SINK_ID


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
    state = _chain({1: 3.3e-4, 2: 2.1e-4})
    full = sum(n.energy for n in state.nodes if n.id != 0)
    while any(n.alive for n in state.nodes[1:]):
        _data_round(state)
        state.time += 1
        assert math.isclose(
            _battery_drop(state, full), state.energy_ledger, rel_tol=1e-9
        )
    assert state.energy_ledger == pytest.approx(full, rel=1e-9)
    assert set(state.death_step) == {1, 2}
