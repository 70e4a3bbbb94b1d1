import copy
import math
import random
from collections import deque
from heapq import heappop, heappush

import pytest

from wsnlife import (
    A3Params,
    CoverageGrid,
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    RadioParams,
    SINK_ID,
    SensingParams,
    Site,
    TCProtocol,
    Topology,
    activate_topology,
    alive_count,
    construct,
    deploy,
    distance,
    rx_energy,
    sensing_coverage,
    sink_reachable,
    tx_energy,
)

from wsnlife.construction import (
    ConstructionCharge,
    _apply_charge,
    _grow,
    _promote_for_sensing,
)
from wsnlife.metrics import sense_probabilities
from wsnlife.radio import QUANTIZER, QUANTUM, tx_coefficients

from helpers import make_state

PARAMS = A3Params()
SP = SensingParams()


def check_tree(topology: Topology):
    """Parent links must form a cycle-free tree rooted at the sink, with
    every interior node active."""
    assert SINK_ID not in topology.parent
    for child, parent in topology.parent.items():
        assert parent in topology.active_set
    for start in topology.parent:
        seen = {start}
        current = start
        while current != SINK_ID:
            current = topology.parent[current]
            assert current not in seen, "cycle in parent links"
            seen.add(current)
    for nid in topology.active_set:
        if nid != SINK_ID:
            assert nid in topology.parent


def check_domination(state, topology, exclude=frozenset()):
    """Every alive non-excluded node in the sink's disk-graph component is
    active or within radio range of an active node."""
    radius = state.site.radio.communication_radius
    alive = [n.id for n in state.nodes if n.alive and n.id not in exclude]
    component = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for b in alive:
                if b not in component and distance(
                    state.nodes[a].position, state.nodes[b].position
                ) <= radius:
                    component.add(b)
                    nxt.append(b)
        frontier = nxt
    for nid in sorted(component):
        if nid == 0 or nid in topology.active_set:
            continue
        assert any(
            distance(state.nodes[nid].position, state.nodes[a].position) <= radius
            for a in topology.active_set
        ), f"node {nid} reachable but not dominated"


def test_sink_only_network():
    state = make_state([(0.0, 0.0)])
    topology, charge = construct(state, TCProtocol.A3, PARAMS)
    assert topology.active_set == {0}
    assert topology.parent == {}
    assert charge.energy == {}


def test_single_neighbor_becomes_sleeping_leaf():
    state = make_state([(0.0, 0.0), (50.0, 0.0)])
    topology, charge = construct(state, TCProtocol.A3, PARAMS)
    assert topology.active_set == {0}
    assert topology.parent == {1: 0}
    assert charge.sent == {1: 1}


def test_chain_keeps_relay_active():
    state = make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)])
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    assert topology.active_set == {0, 1}
    assert topology.parent == {1: 0, 2: 1}


def test_chain_construction_charges():
    energy = EnergyParams()
    state = make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], energy=energy)
    _, charge = construct(state, TCProtocol.A3, PARAMS)
    per_node = rx_energy(energy, 128) + tx_energy(energy, 128, 90.0)
    assert charge.energy[1] == pytest.approx(per_node, rel=1e-12)
    assert charge.energy[2] == pytest.approx(per_node, rel=1e-12)
    assert state.energy_ledger == pytest.approx(2 * per_node, rel=1e-12)
    assert state.nodes[1].energy == pytest.approx(
        energy.initial_energy - per_node, rel=1e-12
    )


def test_farther_candidate_preferred_then_covered_sibling_sleeps():
    # equal energies: the score prefers the longer hop, so the 80 m candidate
    # is appointed and the 50 m one, inside its range, goes to sleep
    state = make_state([(0.0, 0.0), (50.0, 0.0), (80.0, 0.0)])
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    # both end up attached to the sink; the appointed relay had no one to
    # serve, so it is pruned back to a leaf
    assert topology.parent == {1: 0, 2: 0}
    assert topology.active_set == {0}


def test_energy_weight_breaks_distance_preference():
    params = A3Params(energy_weight=1.0, distance_weight=0.0)
    state = make_state([(0.0, 0.0), (50.0, 0.0), (80.0, 0.0), (170.0, 0.0)])
    state.nodes[1].energy = 1.0
    state.nodes[2].energy = 0.4
    # pure-energy scoring appoints node 1 first; node 2 is 30 m away, sleeps;
    # node 3 is then reached through a wake-up of node 2
    topology, _ = construct(state, TCProtocol.A3, params)
    assert topology.parent[1] == 0 and topology.parent[2] == 0
    assert topology.parent[3] == 2
    assert topology.active_set == {0, 2}


def test_tie_breaks_by_lowest_id():
    state = make_state([(0.0, 0.0), (60.0, 0.0), (0.0, 60.0)])
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    # identical scores: node 1 is appointed, node 2 is 84.85 m away -> covered
    assert topology.parent == {1: 0, 2: 0}


def test_wakeup_reaches_node_behind_sleeping_leaf():
    # node 3 is reachable only through node 2, which a straight growth pass
    # puts to sleep; the wake-up promotion must recover it
    state = make_state([(0.0, 0.0), (0.0, 61.0), (60.0, 0.0), (160.0, 0.0)])
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    assert topology.parent == {1: 0, 2: 0, 3: 2}
    assert topology.active_set == {0, 2}
    check_domination(state, topology)
    check_tree(topology)


def test_sparse_exclusion_is_lifted():
    # with relay 1 excluded the growth reaches the sink alone, one of five
    # alive nodes, so construct grows and charges the unexcluded tree
    state = make_state([(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (180.0, 0.0), (240.0, 0.0)])
    _, stump = _grow(state, PARAMS, frozenset({1}))
    assert len(stump.energy) + 1 < alive_count(state) / 2
    for tc in TCProtocol:
        relaxed = copy.deepcopy(state)
        plain = copy.deepcopy(state)
        got = construct(relaxed, tc, PARAMS, exclude=frozenset({1}))
        assert got == construct(plain, tc, PARAMS)
        assert 1 in got[0].active_set
        assert [n.energy for n in relaxed.nodes] == [n.energy for n in plain.nodes]
        assert relaxed.energy_ledger == plain.energy_ledger


def test_excluded_nodes_untouched():
    state = make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0), (60.0, 40.0)])
    topology, charge = construct(state, TCProtocol.A3, PARAMS, exclude=frozenset({3}))
    assert 3 not in topology.parent
    assert 3 not in charge.energy
    assert state.nodes[3].energy == state.energy.initial_energy
    with pytest.raises(ValueError):
        construct(state, TCProtocol.A3, PARAMS, exclude=frozenset({0}))


def test_a3cov_promotes_uncovered_neighbor():
    state = make_state([(0.0, 0.0), (50.0, 0.0)])
    topology, _ = construct(state, TCProtocol.A3COV, PARAMS)
    assert topology.active_set == {0, 1}
    assert topology.parent == {1: 0}
    assert topology.coverage_promoted == {1}


def test_a3cov_no_promotion_when_covered():
    # the sleeping leaf sits 15 m from an active sensor: certain detection
    state = make_state([(0.0, 0.0), (90.0, 0.0), (105.0, 0.0)])
    a3_topo, _ = construct(copy.deepcopy(state), TCProtocol.A3, PARAMS)
    cov_topo, _ = construct(state, TCProtocol.A3COV, PARAMS)
    assert cov_topo.active_set == a3_topo.active_set
    assert cov_topo.parent == a3_topo.parent
    assert cov_topo.coverage_promoted == set()


def test_a3cov_promotion_attaches_to_nearest_active():
    # two actives; the promoted node must pick the closer one
    state = make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0), (150.0, 40.0)])
    topology, _ = construct(state, TCProtocol.A3COV, PARAMS)
    assert 3 in topology.coverage_promoted
    d1 = distance(state.nodes[3].position, state.nodes[1].position)
    d2 = distance(state.nodes[3].position, state.nodes[2].position)
    assert topology.parent[3] == (1 if d1 <= d2 else 2)


def random_instance(seed, n_range=(5, 30), area=300.0):
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    config = DeploymentConfig(
        node_count=n, area=DeploymentArea(area, area), seed=rng.getrandbits(64)
    )
    return deploy(Site(config, RadioParams(), SP), EnergyParams())


def test_every_active_node_is_a_parent_sink_or_promoted():
    demoted = 0
    for seed in range(40):
        state = random_instance(seed + 3000)
        grown, _ = _grow(state, PARAMS, frozenset())
        for tc in TCProtocol:
            topology, _ = construct(copy.deepcopy(state), tc, PARAMS)
            check_tree(topology)
            kept = {SINK_ID, *topology.parent.values()}
            if tc is TCProtocol.A3:
                assert topology.active_set <= kept
                assert topology.parent == grown.parent
                demoted += len(grown.active_set - topology.active_set)
            else:
                # promotion may re-attach all of an A3 relay's sleeping
                # children to nearer active nodes; the relay stays awake
                relays = set(grown.parent.values())
                assert topology.active_set <= kept | topology.coverage_promoted | relays
    assert demoted > 0  # the growths left childless relays to demote


def test_sink_only_deployment_constructs_the_sink():
    for tc in TCProtocol:
        state = deploy(Site(DeploymentConfig(node_count=1), RadioParams(), SP), EnergyParams())
        topology, charge = construct(state, tc, PARAMS)
        assert topology.active_set == {SINK_ID}
        assert topology.parent == {}
        assert charge.energy == {}


def test_construction_invariants_random_instances():
    for seed in range(60):
        state = random_instance(seed)
        pristine = copy.deepcopy(state)
        topology, _ = construct(state, TCProtocol.A3, PARAMS)
        check_tree(topology)
        check_domination(state, topology)
        repeat, _ = construct(pristine, TCProtocol.A3, PARAMS)
        assert repeat.parent == topology.parent
        assert repeat.active_set == topology.active_set


def test_grow_charges_each_reached_node_once_and_leaves_state_untouched():
    drained_dry = 0
    for seed in range(40):
        state = random_instance(seed + 2000, n_range=(5, 60))
        rng = random.Random(seed)
        others = list(range(1, len(state.nodes)))
        for nid in rng.sample(others, k=len(others) // 8):
            state.kill(nid)
        for nid in rng.sample(others, k=len(others) // 8):
            if state.nodes[nid].alive:  # less than one control exchange
                state.nodes[nid].energy = rng.uniform(1e-7, 1e-5)
        state.energy_ledger = rng.uniform(0.0, 1.0)
        exclude = frozenset(rng.sample(others, k=len(others) // 5))
        before = (
            [n.energy.hex() for n in state.nodes],
            state.topology,
            sorted(state.topology.active_set),
            state.energy_ledger.hex(),
            dict(state.death_step),
        )
        topology, charge = _grow(state, PARAMS, exclude)
        after = (
            [n.energy.hex() for n in state.nodes],
            state.topology,
            sorted(state.topology.active_set),
            state.energy_ledger.hex(),
            dict(state.death_step),
        )
        assert after == before
        assert set(charge.sent.values()) <= {1}
        assert charge.sent.keys() == charge.energy.keys()
        # the charged nodes are the reached ones: each eligible node that
        # some relay's hello reaches, and no other
        heard = {
            j
            for a in topology.active_set
            for j in state.site.links[a]
            if state.nodes[j].alive and j != 0 and j not in exclude
        }
        assert set(charge.energy) == heard
        for nid, spent in charge.energy.items():
            node = state.nodes[nid]
            assert node.alive and nid != 0 and nid not in exclude
            assert 0.0 < spent <= node.energy
            drained_dry += spent == node.energy
        assert set(topology.parent) <= set(charge.energy)
    assert drained_dry > 0


def test_a3cov_superset_and_sensing_gain_random_instances():
    grid_area = DeploymentArea(300.0, 300.0)
    grid = CoverageGrid(grid_area, 4.0)
    for seed in range(25):
        plain = random_instance(seed + 1000)
        cov = copy.deepcopy(plain)
        a3_topo, _ = construct(plain, TCProtocol.A3, PARAMS)
        cov_topo, _ = construct(cov, TCProtocol.A3COV, PARAMS)
        assert a3_topo.active_set <= cov_topo.active_set
        activate_topology(plain, a3_topo)
        activate_topology(cov, cov_topo)
        got = sensing_coverage(cov, grid, sink_reachable(cov))
        assert got >= sensing_coverage(plain, grid, sink_reachable(plain))


def test_reduction_on_dense_deployment():
    state = deploy(Site(DeploymentConfig(), RadioParams(), SP), EnergyParams())
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    assert len(topology.active_set) < len(state.nodes)


def test_dead_nodes_never_join():
    state = make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], dead=[1])
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    assert 1 not in topology.parent
    assert topology.active_set == {0}
    # node 2 is unreachable once node 1 is gone: legal, just unattached
    assert 2 not in topology.parent


def test_handshake_can_kill_a_depleted_candidate():
    energy = EnergyParams(initial_energy=1e-6)  # less than one control exchange
    state = make_state([(0.0, 0.0), (50.0, 0.0)], energy=energy)
    topology, charge = construct(state, TCProtocol.A3, PARAMS)
    assert not state.nodes[1].alive
    assert 1 not in topology.parent
    assert charge.energy[1] == pytest.approx(1e-6)
    assert state.energy_ledger == pytest.approx(1e-6)


def heap_grow(state, params, exclude, drains):
    """The growth as it was while the sleeping leaves waited in a heap: each
    time the queue drains, the leaves that no longer border an unvisited
    node are popped off its top and the top wakes. At each drain it appends
    to drains the two sizes _grow's wake-up pass compares: the unvisited
    nodes, and the leaves neither woken nor rejected at an earlier drain."""
    nodes, links = state.nodes, state.site.links
    radius = state.site.radio.communication_radius
    e_init = state.energy.initial_energy
    ew, dw = params.energy_weight, params.distance_weight
    bits = state.energy.control_packet_bits
    rx_cost = rx_energy(state.energy, bits)
    tx_elec, tx_amp = tx_coefficients(state.energy, bits)
    spent = {}
    unvisited = {
        n.id for n in nodes if n.energy > 0.0 and n.id != SINK_ID and n.id not in exclude
    }
    active = {SINK_ID}
    parent = {}
    queue = deque([SINK_ID])
    leaves = []  # a heap
    standing = set()  # the leaves _grow would still hold
    while True:
        while queue:
            pid = queue.popleft()
            heard = unvisited.intersection(links[pid])
            if not heard:
                continue
            unvisited -= heard
            ppos = nodes[pid].position
            candidates = []
            for cid in heard:
                node = nodes[cid]
                d = math.hypot(ppos.x - node.position.x, ppos.y - node.position.y)
                e = node.energy
                candidates.append((-(ew * e / e_init + dw * d / radius), cid, d, e))
            candidates.sort()
            appointed = set()
            for _, cid, d, e in candidates:
                cost = rx_cost + ((tx_elec + tx_amp * d**2 + QUANTIZER) - QUANTIZER)
                drained = e if e < cost else cost
                spent[cid] = drained
                if e - drained <= 0.0:
                    continue
                parent[cid] = pid
                if appointed.isdisjoint(links[cid]):
                    appointed.add(cid)
                    active.add(cid)
                    queue.append(cid)
                else:
                    heappush(leaves, cid)
                    standing.add(cid)
        drains.append((len(unvisited), len(standing)))
        standing = {leaf for leaf in standing if not unvisited.isdisjoint(links[leaf])}
        while leaves and unvisited.isdisjoint(links[leaves[0]]):
            heappop(leaves)
        if not leaves:
            break
        woken = heappop(leaves)
        standing.remove(woken)
        active.add(woken)
        queue.append(woken)
    return Topology(active_set=active, parent=parent), spent


def test_wakeup_pass_matches_the_heap_growth():
    growths = []
    for seed in range(8):
        rng = random.Random(seed)
        # dense, with one alive node cut off: few unvisited, many leaves
        state = random_instance(seed + 4000, n_range=(120, 160))
        for nid in state.site.links[rng.randrange(1, len(state.nodes))]:
            state.kill(nid)
        growths.append((state, frozenset()))
        # sparse, all of the sink's range dead but one: a large unreached
        # remainder, few leaves
        state = random_instance(seed + 5000, n_range=(60, 120), area=600.0)
        near = state.site.links[SINK_ID]
        for nid in near[1:]:
            state.kill(nid)
        growths.append((state, frozenset()))
        # an excluding growth
        state = random_instance(seed + 6000, n_range=(60, 120))
        others = range(1, len(state.nodes))
        growths.append((state, frozenset(rng.sample(others, k=len(others) // 4))))
    drains = []
    for state, exclude in growths:
        topology, charge = _grow(state, PARAMS, exclude)
        reference, spent = heap_grow(state, PARAMS, exclude, drains)
        assert topology.parent == reference.parent
        assert topology.active_set == reference.active_set
        assert list(charge.energy.items()) == list(spent.items())
    sides = {unvisited < leaves for unvisited, leaves in drains if unvisited and leaves}
    assert sides == {True, False}  # both enumeration sides ran


def test_wakeup_wakes_the_lowest_id_gateway():
    # relay 1 covers leaves 3 and 2, which sleep in that order; node 4 lies
    # beyond the sink's and the relay's range, beside both leaves
    state = make_state([(0.0, 0.0), (90.0, 0.0), (40.0, 60.0), (45.0, 70.0), (45.0, 150.0)])
    grown, charge = _grow(state, PARAMS, frozenset())
    assert list(charge.energy) == [1, 3, 2, 4]
    assert grown.active_set == {0, 1, 2, 4}
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    assert topology.parent == {1: 0, 2: 0, 3: 0, 4: 2}
    assert topology.active_set == {0, 2}


def test_charge_debit_does_not_depend_on_order():
    rng = random.Random(11)
    state = random_instance(7000, n_range=(60, 60))
    others = list(range(1, len(state.nodes)))
    for nid in rng.sample(others, k=15):  # less than one control exchange
        state.nodes[nid].energy = rng.randrange(10**5, 10**6) * QUANTUM
    state.energy_ledger = rng.randrange(10**9, 10**12) * QUANTUM
    state.time = 17
    _, charge = _grow(state, PARAMS, frozenset())
    assert any(spent == state.nodes[nid].energy for nid, spent in charge.energy.items())
    ids = sorted(charge.energy)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    outcomes = []
    for order in (ids, ids[::-1], shuffled):
        debited = copy.deepcopy(state)
        _apply_charge(debited, ConstructionCharge(energy={nid: charge.energy[nid] for nid in order}))
        outcomes.append((
            [n.energy.hex() for n in debited.nodes],
            debited.energy_ledger.hex(),
            debited.death_step,
        ))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][2]  # the handshake drained a battery dry


def reference_promote(state, topology):
    """A3Cov promotion with nothing kept between tests: each test computes
    the sleeper's distances to the active nodes, of its links or of the
    whole active set when r + r_u reaches past the radio range, and folds
    every one's miss factor under state.site.sensing."""
    sp = state.site.sensing
    r = state.site.radio.sensing_radius
    radius = state.site.radio.communication_radius
    in_links = r + sp.uncertainty_radius <= radius
    nodes, active = state.nodes, topology.active_set
    for sid in sorted(set(topology.parent) - active):
        node = nodes[sid]
        if node.energy <= 0.0:
            continue
        links = state.site.links[sid]
        pool = links if in_links else sorted(active)
        sx, sy = node.position.x, node.position.y
        near = []
        for aid in pool:
            if aid in active:
                pos = nodes[aid].position
                near.append((math.hypot(sx - pos.x, sy - pos.y), aid))
        sensed = [d for d, aid in near if aid != SINK_ID]
        miss = 1.0
        for p in sense_probabilities(sp, r, sensed):
            miss *= 1.0 - p
        if 1.0 - miss >= sp.detection_threshold:
            continue
        if not in_links:
            near = [(d, aid) for d, aid in near if aid in links]
        if not near:
            continue
        topology.parent[sid] = min(near)[1]
        active.add(sid)
        topology.coverage_promoted.add(sid)


# r + r_u = 34 m past R = 30 m, with r - r_u = 24 m inside it, a slow decay
# and a low threshold, so that sensors beyond the radio range decide some
# tests
PAST_LINKS = (
    RadioParams(communication_radius=30.0, sensing_radius=29.0),
    SensingParams(uncertainty_radius=5.0, decay_rate=0.2, detection_threshold=0.3),
)

# r + r_u = 20 m, a lattice distance, inside R = 30 m; at 20 m p = 0.135, so
# two sensors there sense a sleeper
ON_A_LATTICE_DISTANCE = (
    RadioParams(communication_radius=30.0, sensing_radius=18.0),
    SensingParams(detection_threshold=0.2),
)


def promotion_instances():
    """Forty-two states: random deployments with the band inside the radio
    range (22 m within 100 m) and past it, and nodes on a 10 m lattice,
    where equal distances abound."""
    lattice = [(10.0 * i, 10.0 * j) for i in range(12) for j in range(12)]
    for seed in range(14):
        yield random_instance(seed + 8000, n_range=(20, 80))
        state = random_instance(seed + 8100, n_range=(30, 80), area=120.0)
        positions = [(n.position.x, n.position.y) for n in state.nodes]
        radio, sp = PAST_LINKS
        yield make_state(positions, area=state.site.area, radio=radio, sensing=sp)
        spots = random.Random(seed).sample(lattice[1:], k=50)  # (0, 0) is the sink's
        radio, sp = PAST_LINKS if seed % 2 else ON_A_LATTICE_DISTANCE
        yield make_state([(0.0, 0.0), *spots], radio=radio, sensing=sp)


def test_sensing_links_are_the_nodes_within_the_band():
    # one list at r + r_u on both sides of the radio range: the links cut
    # to the band inside it, a pairwise scan past it
    seen = dict(inside=0, past=0, on_edge=0)
    for state in promotion_instances():
        positions = [(n.position.x, n.position.y) for n in state.nodes]
        outer = state.site.radio.sensing_radius + state.site.sensing.uncertainty_radius
        apart = [[math.hypot(xi - xj, yi - yj) for xj, yj in positions] for xi, yi in positions]
        if outer <= state.site.radio.communication_radius:
            seen["inside"] += 1
            links = state.site.links
            want = [[j for j in links[i] if apart[i][j] <= outer] for i in range(len(apart))]
        else:
            seen["past"] += 1
            want = [
                [j for j, d in enumerate(row) if j != i and d <= outer]
                for i, row in enumerate(apart)
            ]
        assert state.site.sensing_links == want
        seen["on_edge"] += sum(row.count(outer) for row in apart)
    assert all(seen.values()), seen


def test_promotion_matches_the_reference_pass():
    seen = dict(promoted=0, covered=0, dead=0, ties=0, moved=0, past_links=0, reused=0)
    for index, state in enumerate(promotion_instances()):
        rng = random.Random(index)
        for _ in range(3):  # later rounds read the inputs earlier ones built
            built = set(state.site.promotion.sensors)
            topology, _ = construct(state, TCProtocol.A3, PARAMS)
            sleepers = sorted(set(topology.parent) - topology.active_set)
            for sid in rng.sample(sleepers, k=len(sleepers) // 6):
                state.kill(sid)
            before = copy.deepcopy(topology)
            expected = copy.deepcopy(topology)
            reference_promote(state, expected)
            _promote_for_sensing(state, topology)
            assert topology.parent == expected.parent
            assert topology.active_set == expected.active_set
            assert topology.coverage_promoted == expected.coverage_promoted
            tested = {sid for sid in sleepers if state.nodes[sid].alive}
            seen["promoted"] += len(topology.coverage_promoted)
            seen["covered"] += len(tested - topology.coverage_promoted)
            seen["dead"] += len(sleepers) - len(tested)
            seen["reused"] += len(tested & built)
            for sid in topology.coverage_promoted:
                # the active nodes when sid is tested: leaves promoted
                # earlier in the pass have lower ids
                awake = before.active_set | {a for a in topology.coverage_promoted if a < sid}
                linked = [
                    distance(state.nodes[sid].position, state.nodes[aid].position)
                    for aid in state.site.links[sid]
                    if aid in awake
                ]
                seen["ties"] += linked.count(min(linked)) > 1
                seen["moved"] += topology.parent[sid] != before.parent[sid]
            sensors = state.site.promotion.sensors
            seen["past_links"] += sum(
                aid not in state.site.links[sid] for sid in tested for aid, _ in sensors[sid]
            )
            for _ in range(len(state.nodes) // 5):  # the network wears down
                state.kill(rng.randrange(1, len(state.nodes)))
    assert all(seen.values()), seen


def test_a_leaf_promoted_earlier_in_the_pass_senses_for_later_ones():
    # both leaves sleep under the sink; leaf 1 is sensed by no active node
    # and is promoted, and then senses leaf 2, 10 m away, for certain
    state = make_state([(0.0, 0.0), (50.0, 0.0), (60.0, 0.0)])
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    assert topology.active_set == {SINK_ID}
    assert topology.parent == {1: 0, 2: 0}
    _promote_for_sensing(state, topology)
    assert topology.coverage_promoted == {1}
    assert topology.parent == {1: 0, 2: 0}
    assert state.site.promotion.sensors[2] == [(1, 0.0)]


def test_promotion_inputs_are_built_per_tested_sleeper():
    state = random_instance(8300, n_range=(40, 40))
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    sleepers = sorted(set(topology.parent) - topology.active_set)
    dead = sleepers[::4]
    for sid in dead:
        state.kill(sid)
    tested = set(sleepers) - set(dead)
    promoted = copy.deepcopy(topology)
    expected = copy.deepcopy(topology)
    _promote_for_sensing(state, promoted)
    reference_promote(state, expected)
    assert (promoted.parent, promoted.active_set) == (expected.parent, expected.active_set)
    assert set(state.site.promotion.sensors) == tested
    assert set(state.site.promotion.distances) == promoted.coverage_promoted
    assert tested - promoted.coverage_promoted  # some sleepers are sensed
    for sid in promoted.coverage_promoted:
        links = state.site.links[sid]
        assert state.site.promotion.distances[sid] == [
            distance(state.nodes[sid].position, state.nodes[nid].position) for nid in links
        ]
