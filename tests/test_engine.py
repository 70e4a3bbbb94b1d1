import gc
import math
import random
import weakref
from collections import Counter
from dataclasses import replace
from functools import reduce
from operator import add, sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import engine
from wsnlife import (
    A3Params,
    ConfigError,
    CoverageGrid,
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    Node,
    Point,
    RadioParams,
    Role,
    SensingParams,
    SimConfig,
    TCProtocol,
    TMProtocol,
    Topology,
    TriggerKind,
    TriggerPolicy,
    activate_topology,
    alive_count,
    construct,
    initialize,
    run,
    rx_energy,
    step,
    tx_energy,
    validate_config,
)
from wsnlife.experiment import summarize
from wsnlife.metrics import MAX_GRID_POINTS

from helpers import make_state

ET = TriggerPolicy(TriggerKind.ENERGY)
TT = TriggerPolicy(TriggerKind.TIME)


def small_config(**overrides):
    defaults = dict(
        deployment=DeploymentConfig(
            node_count=40, area=DeploymentArea(300.0, 200.0), seed=7
        ),
        radio=RadioParams(communication_radius=60.0, sensing_radius=15.0),
        energy=EnergyParams(initial_energy=0.01),
        max_steps=120,
        metrics_stride=10,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def test_family_mismatch_rejected():
    config = small_config(tm=TMProtocol.SGETROT, trigger=TT)
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.field == "trigger.kind"
    config = small_config(tm=TMProtocol.DGTTREC, trigger=ET)
    with pytest.raises(ConfigError):
        initialize(config)


def test_validate_names_offending_field():
    with pytest.raises(ConfigError) as err:
        validate_config(small_config(metrics_stride=0))
    assert err.value.field == "metrics_stride"
    with pytest.raises(ConfigError) as err:
        validate_config(small_config(rotation_k=0))
    assert err.value.field == "rotation_k"
    with pytest.raises(ConfigError) as err:
        validate_config(
            small_config(sensing=__import__("wsnlife").SensingParams(uncertainty_radius=20.0))
        )
    assert err.value.field == "sensing.uncertainty_radius"


@pytest.mark.parametrize(
    "area", [DeploymentArea(100.0, 100.0), DeploymentArea(math.inf, math.inf)]
)
def test_infinite_grid_cell_rejected(area):
    config = small_config(deployment=DeploymentConfig(5, area), grid_cell=math.inf)
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert err.value.field == "grid_cell"
    with pytest.raises(ConfigError):
        run(config)


def test_grid_cell_bounded_without_allocating():
    strip = DeploymentConfig(2, DeploymentArea(float(MAX_GRID_POINTS), 1.0))
    validate_config(small_config(deployment=strip, grid_cell=1.0))
    wider = DeploymentConfig(2, DeploymentArea(MAX_GRID_POINTS + 1.0, 1.0))
    with pytest.raises(ConfigError) as err:
        validate_config(small_config(deployment=wider, grid_cell=1.0))
    assert err.value.field == "grid_cell"
    # n = 3000 at the default density, 4 m cells: 849 x 522 points
    scale = math.sqrt(10.0)
    large = DeploymentConfig(3000, DeploymentArea(1074.0 * scale, 660.0 * scale))
    validate_config(small_config(deployment=large, grid_cell=4.0))


def test_initialize_defaults():
    config = SimConfig()
    state, strategy = initialize(config)
    assert len(state.nodes) == 300
    assert state.time == 0
    assert state.topology.activation_time == 0
    assert strategy is not None and strategy.rotation_set == []
    # the ledger holds exactly the construction charges so far
    initial = config.energy.initial_energy * 299
    current = sum(n.energy for n in state.nodes if n.id != 0)
    assert math.isclose(initial - current, state.energy_ledger, rel_tol=1e-9)
    assert state.energy_ledger > 0


def test_initialize_precomputes_rotation_for_static():
    config = small_config(tm=TMProtocol.SGETROT, trigger=ET, rotation_k=3)
    state, strategy = initialize(config)
    assert len(strategy.rotation_set) == 3
    assert state.topology is strategy.rotation_set[0]


def test_sink_only_run():
    config = SimConfig(
        deployment=DeploymentConfig(node_count=1, seed=0),
        max_steps=2,
        metrics_stride=1,
    )
    result = run(config)
    assert [s.time for s in result.series] == [0, 1, 2]
    for sample in result.series:
        assert sample.alive == 1
        assert sample.sink_reachable == 1
    assert result.final_summary["energy_spent"] == 0.0
    assert result.maintenance_events == []


def two_node_state(budget):
    state = make_state(
        [(0.0, 0.0), (50.0, 0.0)], energy=EnergyParams(initial_energy=budget)
    )
    topology, _ = construct(state, TCProtocol.A3COV, A3Params(), SimConfig().sensing)
    activate_topology(state, topology)
    assert state.nodes[1].role is Role.ACTIVE
    return state


def test_two_node_per_step_cost():
    state = two_node_state(budget=1.0)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=10)
    grid = CoverageGrid(state.area, 4.0)
    before = state.nodes[1].energy
    sink_before = state.sink.energy
    step(state, None, config, grid)
    cost = before - state.nodes[1].energy
    assert cost == pytest.approx(7.5e-5, rel=1e-12)
    assert cost == pytest.approx(tx_energy(config.energy, 1000, 50.0), rel=1e-12)
    assert state.sink.energy == sink_before  # mains powered, never drained


def test_two_node_child_dies_at_step_ten():
    state = two_node_state(budget=7.5e-4)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=50)
    grid = CoverageGrid(state.area, 4.0)
    while state.time < 50 and state.nodes[1].alive:
        step(state, None, config, grid)
    assert not state.nodes[1].alive
    assert state.death_step[1] == 10
    assert state.nodes[1].energy == 0.0


def test_run_is_deterministic():
    config = small_config(tm=TMProtocol.DGETREC, trigger=ET)
    a = run(config)
    b = run(config)
    assert a.to_dict() == b.to_dict()


def test_run_rejects_a_grid_of_another_area_or_cell_size():
    config = small_config()
    for grid in (
        CoverageGrid(DeploymentArea(300.0, 201.0), config.grid_cell),
        CoverageGrid(config.deployment.area, 2.0),
    ):
        with pytest.raises(ValueError, match="coverage grid"):
            run(config, grid)


def test_run_on_a_filled_grid_matches_its_own_grid():
    # the grid already holds footprints of another deployment, of other
    # radii and sensing parameters at the same positions, and of this run
    config = small_config(tc=TCProtocol.A3COV, tm=TMProtocol.DGETREC, trigger=ET)
    grid = CoverageGrid(config.deployment.area, config.grid_cell)
    for other in (
        replace(config, deployment=replace(config.deployment, seed=8)),
        replace(config, radio=RadioParams(communication_radius=45.0, sensing_radius=12.0)),
        replace(config, sensing=SensingParams(uncertainty_radius=5.0)),
        config,
    ):
        run(other, grid)
    radii = {key[1] for key in grid.footprints if key[0] == "disc"}
    assert radii == {60.0, 45.0}
    assert run(config, grid).to_dict() == run(config).to_dict()


def test_series_length_and_monotone_alive():
    config = small_config(max_steps=100, metrics_stride=10, energy=EnergyParams())
    result = run(config)
    assert len(result.series) == 100 // 10 + 1
    assert [s.time for s in result.series] == list(range(0, 101, 10))
    alives = [s.alive for s in result.series]
    assert all(a >= b for a, b in zip(alives, alives[1:]))
    for sample in result.series:
        assert sample.sink_reachable <= sample.alive


def test_ledger_identity_across_run():
    config = small_config(max_steps=80, metrics_stride=8)
    state, strategy = initialize(config)
    grid = CoverageGrid(state.area, config.grid_cell)
    initial = config.energy.initial_energy * (len(state.nodes) - 1)

    def ledger_holds():
        current = sum(n.energy for n in state.nodes if n.id != 0)
        spent = initial - current
        assert math.isclose(spent, state.energy_ledger, rel_tol=1e-9, abs_tol=1e-15)

    ledger_holds()
    while state.time < config.max_steps:
        sample = step(state, strategy, config, grid)
        if sample is not None:
            ledger_holds()
    ledger_holds()


def test_sink_bits_counter_matches_surviving_paths():
    # chain sink <- 1 <- 2, both active, no deaths: every packet arrives
    state = make_state([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)])
    topology = Topology(active_set={0, 1, 2}, parent={1: 0, 2: 1}, root=0)
    activate_topology(state, topology)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=5)
    grid = CoverageGrid(state.area, 4.0)
    step(state, None, config, grid)
    assert state.packets_delivered == 2
    assert state.packets_dropped == 0


def test_packet_dropped_at_dead_relay():
    state = make_state([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)], dead=[1])
    topology = Topology(active_set={0, 1, 2}, parent={1: 0, 2: 1}, root=0)
    activate_topology(state, topology)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=1)
    grid = CoverageGrid(state.area, 4.0)
    energy_before = state.nodes[2].energy
    step(state, None, config, grid)
    # the origin paid its transmit cost but the packet went nowhere
    assert state.packets_dropped == 1
    assert state.nodes[2].energy < energy_before
    # dead nodes never transmit or receive
    assert state.nodes[1].energy == 0.0


def test_early_termination_with_final_sample():
    state = two_node_state(budget=7.5e-4)
    # drive through run(): rebuild an equivalent scenario via the public API
    config = SimConfig(
        tm=None,
        metrics_stride=7,
        max_steps=50,
        energy=EnergyParams(initial_energy=7.5e-4),
    )
    grid = CoverageGrid(state.area, config.grid_cell)
    series = []
    while state.time < config.max_steps:
        sample = step(state, None, config, grid)
        if sample is not None:
            series.append(sample)
        if not any(n.alive for n in state.nodes if n.id != 0):
            break
    assert state.time == 10  # the lone sensor died during step 10
    assert not state.nodes[1].alive


def test_run_early_termination_series_truncated():
    # a 150 x 100 area keeps every point within 100 m of the central sink, so
    # the lone sensor is always promoted by A3Cov; once it dies the run ends
    config = SimConfig(
        deployment=DeploymentConfig(
            node_count=2, area=DeploymentArea(150.0, 100.0), seed=3
        ),
        tc=TCProtocol.A3COV,
        tm=None,
        energy=EnergyParams(initial_energy=7.5e-4),
        max_steps=2000,
        metrics_stride=7,
    )
    result = run(config)
    last = result.series[-1]
    assert last.time < 2000
    assert last.alive == 1
    assert last.time % 7 != 0  # the closing sample lands off-stride
    assert result.final_summary["steps"] == last.time
    assert result.death_times[1] == last.time


def test_maintenance_events_recorded():
    config = small_config(tm=TMProtocol.DGETREC, trigger=ET, max_steps=300)
    result = run(config)
    assert result.maintenance_events, "energy trigger should fire on a tiny budget"
    for step_no, action in result.maintenance_events:
        assert 1 <= step_no <= 300
        assert action in {"Rotated", "Recreated", "Retained"}
        assert action == "Recreated"  # dynamic recreation only recreates


def test_time_triggered_cadence():
    config = small_config(
        tm=TMProtocol.DGTTREC,
        trigger=TriggerPolicy(TriggerKind.TIME, period=40),
        max_steps=130,
        energy=EnergyParams(),  # generous budget: nothing dies, pure cadence
    )
    result = run(config)
    # activation is stamped at the pre-advance clock, so the trigger fires
    # during steps 41, 81, 121: a strict period-40 cadence
    steps = [s for s, _ in result.maintenance_events]
    assert steps == [41, 81, 121]


def test_max_steps_one():
    config = SimConfig(
        deployment=DeploymentConfig(node_count=1, seed=0), max_steps=1, metrics_stride=1
    )
    result = run(config)
    assert [s.time for s in result.series] == [0, 1]


def test_horizon_sampled_off_stride():
    config = small_config(max_steps=75, metrics_stride=50, energy=EnergyParams())
    assert [s.time for s in run(config).series] == [0, 50, 75]


def test_short_run_integrates_its_coverage():
    config = small_config(max_steps=3, metrics_stride=50, energy=EnergyParams())
    result = run(config)
    assert [s.time for s in result.series] == [0, 3]
    row = summarize(result, "A3", "DGETRec", 1, node_count=40)
    assert row.integrated_comm_coverage > 0.0
    assert row.integrated_sensing_coverage > 0.0


def _random_tree_state(positions, order, parent_picks, budgets, dead):
    """A state whose every non-sink node is an active relay of one tree:
    order lists the nodes from the sink outward, and each one's parent is
    the sink or a node earlier in order."""
    state = make_state(positions, dead=dead)
    parent = {}
    for k, nid in enumerate(order):
        earlier = [0] + order[:k]
        parent[nid] = earlier[parent_picks[k] % len(earlier)]
    topology = Topology(active_set={0, *order}, parent=parent, root=0)
    activate_topology(state, topology)
    for nid, (kind, scale) in budgets.items():
        if not state.nodes[nid].alive:
            continue
        _, tx_cost = engine._routes(state).tree.edges[nid]
        # "exact": a battery of one or two transmit costs, which the node's
        # own drains take to exactly 0.0; otherwise a few rounds' worth
        state.nodes[nid].energy = scale * tx_cost if kind == "exact" else scale * 1e-3
    return state


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compiled_round_matches_per_hop_round(data):
    n = data.draw(st.integers(min_value=2, max_value=9))
    coord = st.floats(min_value=0.0, max_value=150.0)
    positions = [(0.0, 0.0)] + [
        (data.draw(coord), data.draw(coord)) for _ in range(n - 1)
    ]
    order = data.draw(st.permutations(range(1, n)))
    picks = data.draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
    budget = st.one_of(
        st.tuples(st.just("exact"), st.sampled_from([1.0, 2.0])),
        st.tuples(st.just("rounds"), st.floats(min_value=0.05, max_value=3.0)),
    )
    budgets = {nid: data.draw(budget) for nid in range(1, n)}
    dead = data.draw(st.lists(st.sampled_from(range(1, n)), unique=True, max_size=2))
    steps = data.draw(st.integers(min_value=1, max_value=40))
    # a ledger already holding earlier charges rounds each addition
    ledger = data.draw(st.floats(min_value=0.0, max_value=1e-2))
    # a node killed between two steps, as maintenance's control traffic may
    killed = data.draw(
        st.none() | st.tuples(st.integers(0, steps - 1), st.integers(1, n - 1))
    )

    compiled = _random_tree_state(positions, order, picks, budgets, dead)
    reference = _random_tree_state(positions, order, picks, budgets, dead)
    compiled.energy_ledger = reference.energy_ledger = ledger
    for k in range(steps):
        engine._traffic(compiled)
        engine._per_hop_round(reference, engine._routes(reference))
        compiled.time += 1
        reference.time += 1
        if killed is not None and killed[0] == k:
            compiled.kill(killed[1])
            reference.kill(killed[1])

    assert [nd.energy.hex() for nd in compiled.nodes] == [
        nd.energy.hex() for nd in reference.nodes
    ]
    assert compiled.energy_ledger.hex() == reference.energy_ledger.hex()
    assert compiled.packets_delivered == reference.packets_delivered
    assert compiled.packets_dropped == reference.packets_dropped
    assert compiled.death_step == reference.death_step


def recorded_round(state, routes):
    """The data round walked hop by hop over the alive set, each drain
    recorded instead of applied: every drain in hop order, each node's own
    drains, and the packets delivered and dropped."""
    rx_cost = rx_energy(state.energy, state.energy.data_packet_bits)
    nodes = state.nodes
    drains, own = [], {}
    delivered = dropped = 0
    for origin in routes.tree.edges:
        if not nodes[origin].alive:
            continue
        current = origin
        while True:
            parent, tx_cost = routes.tree.edges[current]
            drains.append(tx_cost)
            own.setdefault(current, []).append(tx_cost)
            if parent == state.sink.id:
                delivered += 1
                break
            if not nodes[parent].alive:
                dropped += 1
                break
            drains.append(rx_cost)
            own.setdefault(parent, []).append(rx_cost)
            current = parent
    return drains, own, delivered, dropped


def _deep_tree_state(seed, n, fan):
    """A random deep tree over n nodes, every non-sink node an active relay:
    the ids are shuffled, so a relay's descendants lie on both sides of its
    own id, and each node's parent is one of the `fan` nodes placed just
    before it, so chains run deep. A few relays with a parent and a child
    are dead, and a tenth of the batteries last only a few rounds: a leaf's
    one or two transmit costs exactly, or 0.5 to 5 rounds of its drains."""
    rng = random.Random(seed)
    positions = [(0.0, 0.0)] + [
        (rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)) for _ in range(n - 1)
    ]
    order = list(range(1, n))
    rng.shuffle(order)
    parent = {}
    for k, nid in enumerate(order):
        earlier = [0] + order[:k]
        parent[nid] = earlier[-rng.randint(1, min(fan, len(earlier)))]
    children = {p for p in parent.values()}
    mid_chain = [nid for nid in order if nid in children and parent[nid] != 0]
    dead = rng.sample(mid_chain, k=min(len(mid_chain), rng.randint(1, 4)))
    state = make_state(positions, dead=dead)
    topology = Topology(active_set={0, *order}, parent=parent, root=0)
    activate_topology(state, topology)
    _, own, _, _ = recorded_round(state, engine._routes(state))
    for nid in rng.sample(order, k=n // 10):
        if nid not in own:
            continue  # dead
        if len(own[nid]) == 1:
            state.nodes[nid].energy = rng.choice([1.0, 2.0]) * own[nid][0]
        else:
            state.nodes[nid].energy = rng.uniform(0.5, 5.0) * sum(own[nid])
    return state, dead


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(30, 300),
    fan=st.integers(1, 4),
    steps=st.integers(1, 8),
)
def test_compiled_round_matches_hop_by_hop_on_deep_trees(seed, n, fan, steps):
    state, dead = _deep_tree_state(seed, n, fan)
    routes = engine._routes(state)
    parent = state.topology.parent
    # the scenarios this test exists for: a relay that carries packets from
    # ids on both sides of its own, and a dead relay between two live hops
    assert any(
        nid > lo and nid < hi
        for nid, (lo, hi) in _descendant_id_range(parent).items()
        if state.nodes[nid].alive
    )
    assert any(
        parent[d] != 0 and any(p == d and state.nodes[c].alive for c, p in parent.items())
        for d in dead
    )
    program = engine._compile_round(state, routes)
    drains, own, delivered, dropped = recorded_round(state, routes)
    assert_program_matches_recorded(program, drains, own, random.Random(seed))
    assert (program.delivered, program.dropped) == (delivered, dropped)
    assert dropped > 0

    compiled, _ = _deep_tree_state(seed, n, fan)
    reference, _ = _deep_tree_state(seed, n, fan)
    for _ in range(steps):
        engine._traffic(compiled)
        engine._per_hop_round(reference, engine._routes(reference))
        compiled.time += 1
        reference.time += 1
    assert [nd.energy.hex() for nd in compiled.nodes] == [
        nd.energy.hex() for nd in reference.nodes
    ]
    assert compiled.energy_ledger.hex() == reference.energy_ledger.hex()
    assert compiled.packets_delivered == reference.packets_delivered
    assert compiled.packets_dropped == reference.packets_dropped
    assert compiled.death_step == reference.death_step


def assert_program_matches_recorded(program, drains, own, rng):
    """The program's counts, and its drains built on demand, are the
    recorded round's: each relay's, read in a shuffled order, and the hop
    order, read after them; nothing is built before it is read."""
    assert [node.id for node in program.nodes] == sorted(own)
    assert program.relay_costs == [None] * len(own) and program.hop_order is None
    for j, nid in enumerate(sorted(own)):
        assert program.carried[j] == (len(own[nid]) + 1) / 2
        assert program.tx[j].hex() == own[nid][-1].hex()
    reads = list(enumerate(sorted(own)))
    rng.shuffle(reads)
    for j, nid in reads:
        assert [c.hex() for c in program.relay_drains(j)] == [c.hex() for c in own[nid]]
    assert [c.hex() for c in program.drains()] == [c.hex() for c in drains]
    assert program.relay_drains(0) is program.relay_drains(0)  # kept once built
    assert program.drains() is program.drains()


def _descendant_id_range(parent):
    """The least and greatest id below each node that has descendants."""
    ranges = {}
    for nid in parent:
        current = parent[nid]
        while current != 0:
            lo, hi = ranges.get(current, (nid, nid))
            ranges[current] = (min(lo, nid), max(hi, nid))
            current = parent[current]
    return ranges


def test_replaced_topology_is_freed_without_the_cycle_collector():
    # A reference cycle through a topology's route cache (say, a tree that
    # held its own compiled round, which points back at the tree) would keep
    # every replaced topology until the cycle collector ran.
    config = small_config(tm=TMProtocol.DGTTREC, trigger=replace(TT, period=5))
    enabled = gc.isenabled()
    gc.disable()
    try:
        state, strategy = initialize(config)
        grid = CoverageGrid(state.area, config.grid_cell)
        step(state, strategy, config, grid)
        routes = state.topology.route_cache
        assert routes.program is not None
        held = [state.topology, routes, routes.tree, routes.program]
        refs = [weakref.ref(obj) for obj in held]
        del routes, held
        for _ in range(config.trigger.period + 1):
            step(state, strategy, config, grid)
        assert strategy.events  # the topology was replaced
        assert [ref() for ref in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def test_kill_between_steps_recompiles_round():
    # chain sink <- 1 <- 2 <- 3 with generous batteries: no step kills
    state = make_state([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0), (240.0, 0.0)])
    topology = Topology(active_set={0, 1, 2, 3}, parent={1: 0, 2: 1, 3: 2}, root=0)
    activate_topology(state, topology)
    engine._traffic(state)
    program = topology.route_cache.program
    assert (program.delivered, program.dropped) == (3, 0)
    engine._traffic(state)
    assert topology.route_cache.program is program  # nobody died: reused
    state.kill(2)
    before = state.nodes[3].energy
    engine._traffic(state)  # node 2's zeroed battery fails the program: hop by hop
    assert state.packets_delivered == 3 + 3 + 1
    assert state.packets_dropped == 1
    assert state.nodes[3].energy == before - topology.route_cache.tree.edges[3][1]
    assert topology.route_cache.program is None
    engine._traffic(state)  # compiled over the alive set that round left
    program = topology.route_cache.program
    assert (program.delivered, program.dropped) == (1, 1)
    assert [node.id for node in program.nodes] == [1, 3]
    assert program.carried.tolist() == [1.0, 1.0]
    tx = topology.route_cache.tree.edges
    assert program.relay_drains(0) == [tx[1][1]]
    assert program.relay_drains(1) == [tx[3][1]]
    assert program.drains() == [tx[1][1], tx[3][1]]


def test_relay_drains_stop_at_nested_dead_hops():
    # sink <- 5 <- 2 (dead) <- 7 <- 3 (dead) <- 1, a dead hop under a dead
    # hop; 2 <- 9 (dead) <- 10; and 5 <- 4 <- 6, 5 <- 8, 7 <- 11
    parent = {5: 0, 2: 5, 7: 2, 3: 7, 1: 3, 9: 2, 10: 9, 4: 5, 6: 4, 8: 5, 11: 7}
    positions = [(0.0, 0.0)] + [(10.0 * nid, 5.0) for nid in range(1, 12)]
    state = make_state(positions, dead=[2, 3, 9])
    activate_topology(state, Topology(active_set={0, *parent}, parent=parent, root=0))
    routes = engine._routes(state)
    program = engine._compile_round(state, routes)
    drains, own, delivered, dropped = recorded_round(state, routes)
    assert (delivered, dropped) == (4, 4)  # 5, 4, 6, 8; and 7, 1, 10, 11
    assert program.carried.tolist() == [1, 2, 4, 1, 2, 1, 1, 1]  # 1 4 5 6 7 8 10 11
    assert_program_matches_recorded(program, drains, own, random.Random(0))
    assert (program.delivered, program.dropped) == (delivered, dropped)


def iterated(x, op, costs, steps, floor=-math.inf):
    """engine._advance's reference: one reduce per step."""
    done = 0
    while done < steps:
        y = reduce(op, costs, x)
        if y < floor:
            break
        x, done = y, done + 1
    return done, x


G = 2.0**-53  # the grid of the binade [0.5, 1)
ADVANCE_CASES = {
    # from an odd grid place the tie rounds to 1001 grid steps, then to
    # 1000 from every even place after: the decrement is not constant
    "tie": (0.75 + G, sub, [1000.5 * G], 60, -math.inf),
    "tie among others": (0.75 + G, sub, [7.5e-5, 1000.5 * G, 5e-5], 60, -math.inf),
    "at a binade edge": (0.5, sub, [7.5e-5, 5e-5], 300, -math.inf),
    "a grid step above an edge": (0.5 + G, sub, [7.5e-5, 5e-5], 300, -math.inf),
    # the step onto 0.5 is exactly 0.5 - 0.375 G, which rounds to the finer
    # grid below the edge, to 0.5 - 0.5 G
    "onto an edge": (0.5 + 5000 * G, sub, [1000.375 * G], 8, -math.inf),
    "reaches an edge": (0.5 + 1000 * 1.25e-4, sub, [7.5e-5, 5e-5], 3000, -math.inf),
    "drained to zero": (1e-3, sub, [7.5e-5, 5e-5], 100, engine._DEATH_FLOOR),
    "drained exactly to zero": (2.5e-4, sub, [1.25e-4], 100, engine._DEATH_FLOOR),
    "energy-trigger floor": (0.9, sub, [7.5e-5, 5e-5], 5000, 0.6 * 0.9),
    # the ledger's additions, by _ledger_after on a round of one-packet
    # relays whose drains in hop order are the costs
    "ledger crosses upward": (1.0 - 3e-3, add, [7.5e-5, 5e-5, 1.2e-4] * 20, 400, -math.inf),
    "ledger from zero": (0.0, add, [7.5e-5, 5e-5], 50, -math.inf),
}


@pytest.mark.parametrize("case", list(ADVANCE_CASES))
def test_advance_matches_iterated_reduce(case):
    x, op, costs, steps, floor = ADVANCE_CASES[case]
    for limit in (1, 2, steps // 3, steps):
        if op is sub:
            done, value = engine._advance(x, costs, limit, floor)
        else:
            program = jump_program(5e-5, [(0.9, c, 1, 0) for c in costs])
            assert program.drains() == costs
            done, value = limit, engine._ledger_after(program, x, limit)
        want_done, want = iterated(x, op, costs, limit, floor)
        assert (done, value.hex()) == (want_done, want.hex())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_advance_matches_iterated_reduce_random(data):
    x = data.draw(st.floats(min_value=1e-4, max_value=8.0))
    grid = math.ulp(2.0 ** (math.frexp(x)[1] - 1))
    plain = st.floats(min_value=1e-7, max_value=1e-3)
    tie = st.integers(0, 10**6).map(lambda m: (m + 0.5) * grid)
    costs = data.draw(st.lists(plain | tie, min_size=1, max_size=6))
    steps = data.draw(st.integers(1, 1000))
    floor = data.draw(
        st.sampled_from([-math.inf, engine._DEATH_FLOOR])
        | st.floats(min_value=0.0, max_value=1.0).map(lambda f: f * x)
    )
    done, value = engine._advance(x, costs, steps, floor)
    want_done, want = iterated(x, sub, costs, steps, floor)
    assert (done, value.hex()) == (want_done, want.hex())


def run_keeping_state(config, fast_forward=True):
    """run(config), and the state it finished with; without fast_forward,
    every step goes through step()."""
    states = []

    def keep(cfg):
        state, strategy = initialize(cfg)
        states.append(state)
        return state, strategy

    with mock.patch.object(engine, "initialize", keep):
        if fast_forward:
            result = run(config)
        else:
            with mock.patch.object(engine, "_fast_forward", lambda *args: None):
                result = run(config)
    return result, states[0]


def activation_stamp(state):
    topology = state.topology
    energies = {nid: e.hex() for nid, e in topology.activation_energy.items()}
    return topology.activation_time, energies


@pytest.mark.parametrize("tc", list(TCProtocol))
@pytest.mark.parametrize("tm", [*TMProtocol, None])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fast_forward_matches_step_loop(tm, tc, data):
    kind = tm.trigger_kind if tm is not None else TriggerKind.ENERGY
    trigger = TriggerPolicy(
        kind,
        period=data.draw(st.integers(1, 60)),
        energy_threshold=data.draw(st.floats(min_value=0.2, max_value=0.9)),
    )
    config = small_config(
        deployment=DeploymentConfig(
            node_count=data.draw(st.integers(2, 40)),
            area=DeploymentArea(300.0, 200.0),
            seed=data.draw(st.integers(0, 10**6)),
        ),
        energy=EnergyParams(initial_energy=data.draw(st.floats(0.002, 0.05))),
        tc=tc,
        tm=tm,
        trigger=trigger,
        rotation_k=data.draw(st.integers(1, 3)),
        max_steps=data.draw(st.integers(1, 500)),
        metrics_stride=data.draw(st.integers(1, 60)),
    )
    fast, fast_state = run_keeping_state(config)
    plain, plain_state = run_keeping_state(config, fast_forward=False)
    assert fast.to_dict() == plain.to_dict()
    assert [n.energy.hex() for n in fast_state.nodes] == [
        n.energy.hex() for n in plain_state.nodes
    ]
    assert fast_state.energy_ledger.hex() == plain_state.energy_ledger.hex()
    assert activation_stamp(fast_state) == activation_stamp(plain_state)
    alives = [s.alive for s in fast.series]
    assert all(a >= b for a, b in zip(alives, alives[1:]))


@pytest.mark.parametrize("tm", [TMProtocol.DGETREC, TMProtocol.DGTTREC])
def test_fast_forward_matches_step_loop_on_a_large_tree(tm):
    # n = 1000 at the default density, against a step loop whose rounds all
    # run hop by hop, which shares no code with _jump
    scale = math.sqrt(1000 / 300)
    config = SimConfig(
        deployment=DeploymentConfig(
            node_count=1000, area=DeploymentArea(1074.0 * scale, 660.0 * scale), seed=7
        ),
        tm=tm,
        trigger=TriggerPolicy(tm.trigger_kind, period=3),
        max_steps=300,
        metrics_stride=50,
    )
    compiled, built = [], Counter()
    compile_round = engine._compile_round

    def compiling(state, routes):
        program = compile_round(state, routes)
        compiled.append(len(program.nodes))
        return program

    def counting(name, build):
        def counted(*args):
            built[name] += 1
            return build(*args)

        return counted

    with (
        mock.patch.object(engine, "_compile_round", compiling),
        mock.patch.object(engine, "_relay_drains", counting("relay", engine._relay_drains)),
        mock.patch.object(engine, "_hop_order_drains", counting("hop", engine._hop_order_drains)),
    ):
        fast, fast_state, stretches = stretches_of(config)
    # a program builds the drains of the relays it walks, and the hop order
    # at the ledger's binade edges only: under 1 % of the relay lists of
    # these runs, and the hop order of under a third of the compiles
    assert built["relay"] < sum(compiled) // 10
    assert built["hop"] < len(compiled)
    assert any(end - start > 1 for start, end in stretches)
    assert fast.death_times and fast.maintenance_events

    def per_hop(state):
        engine._per_hop_round(state, engine._routes(state))

    with mock.patch.object(engine, "_traffic", per_hop):
        plain, plain_state = run_keeping_state(config, fast_forward=False)
    assert fast.to_dict() == plain.to_dict()
    assert [n.energy.hex() for n in fast_state.nodes] == [
        n.energy.hex() for n in plain_state.nodes
    ]
    assert fast_state.energy_ledger.hex() == plain_state.energy_ledger.hex()


def assert_one_record_of_life(state, initial, alive_before):
    """The sensors without energy are exactly those death_step names, the
    alive count has not risen, and the ledger is the batteries' drop;
    returns the alive count."""
    sensors = state.nodes[1:]
    assert {n.id for n in sensors if not n.alive} == state.death_step.keys()
    alive = alive_count(state)
    assert alive <= alive_before
    spent = math.fsum(initial) - math.fsum(n.energy for n in sensors)
    assert math.isclose(spent, state.energy_ledger, rel_tol=1e-9)
    return alive


@pytest.mark.parametrize("tc", list(TCProtocol))
@pytest.mark.parametrize("tm", [*TMProtocol, None])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_battery_is_the_one_record_of_life(tm, tc, data):
    kind = tm.trigger_kind if tm is not None else TriggerKind.ENERGY
    config = small_config(
        deployment=DeploymentConfig(
            node_count=data.draw(st.integers(2, 30)),
            area=DeploymentArea(300.0, 200.0),
            seed=data.draw(st.integers(0, 10**6)),
        ),
        energy=EnergyParams(initial_energy=data.draw(st.floats(0.002, 0.02))),
        tc=tc,
        tm=tm,
        trigger=TriggerPolicy(kind, period=data.draw(st.integers(1, 30))),
        max_steps=200,
    )
    initial = [config.energy.initial_energy] * (config.deployment.node_count - 1)
    state, strategy = initialize(config)
    grid = CoverageGrid(state.area, config.grid_cell)
    alive = assert_one_record_of_life(state, initial, len(state.nodes))
    while state.time < config.max_steps and not engine._network_finished(state):
        step(state, strategy, config, grid)
        alive = assert_one_record_of_life(state, initial, alive)


TINY_ADVANCE_CASES = {
    # 1/g of x's binade is 2**1052: past the largest double
    "far below the closed form": (2.0**-1000, [2.0**-1010], 5),
    "the lowest binade with a finite 1/g": (2.0**-971, [2.0**-1010], 40),
    "just below it": (2.0**-971 - 2.0**-1023, [2.0**-1010], 40),
    "drained to zero": (2.0**-1000, [2.0**-1004], 40),
}


@pytest.mark.parametrize("case", list(TINY_ADVANCE_CASES))
def test_advance_tiny_normal_matches_iterated(case):
    x, costs, steps = TINY_ADVANCE_CASES[case]
    for floor in (-math.inf, engine._DEATH_FLOOR):
        for limit in (1, 2, steps // 3, steps):
            done, value = engine._advance(x, costs, limit, floor)
            want_done, want = iterated(x, sub, costs, limit, floor)
            assert (done, value.hex()) == (want_done, want.hex())


def jump_program(rx, relays, order=None):
    """A RoundProgram of relays given as (energy, tx, carried, below), with
    rx the receive cost, and its drains already built: each relay's laid
    out as _relay_drains lays them, and the ledger's all of theirs, in
    `order` (a permutation) or one relay after another. No tree stands
    behind it, so it builds nothing itself."""
    nodes, charged = [], []
    for j, (energy, tx, carried, below) in enumerate(relays):
        carry = [rx, tx]
        charged.append(carry * below + [tx] + carry * (carried - 1 - below))
        nodes.append(Node(id=j + 1, position=Point(0.0, 0.0), energy=energy, role=Role.ACTIVE))
    drains = [c for costs in charged for c in costs]
    if order is not None:
        drains = [drains[i] for i in order]
    carried = [r[2] for r in relays]
    program = engine.RoundProgram(
        nodes=nodes,
        carried=np.array(carried, dtype=np.float64),
        tx=np.array([r[1] for r in relays]),
        rx=rx,
        delivered=0,
        dropped=0,
        tree=None,
        counts={node.id: c for node, c in zip(nodes, carried)},
    )
    program.relay_costs = charged
    program.hop_order = drains
    return program


def iterated_jump(program, floors, rounds, ledger):
    """engine._jump's reference: every relay and the ledger by iterated."""
    energies = [node.energy for node in program.nodes]
    costs = [program.relay_drains(j) for j in range(len(program.nodes))]
    n = min(
        [rounds]
        + [
            iterated(x, sub, c, rounds, floor)[0]
            for x, c, floor in zip(energies, costs, floors)
        ]
    )
    if n == 0:
        return 0, energies, ledger
    return (
        n,
        [iterated(x, sub, c, n)[1] for x, c in zip(energies, costs)],
        iterated(ledger, add, program.drains(), n)[1],
    )


def assert_jump_matches_iterated(program, floors, rounds, ledger):
    """_jump agrees with iterated on the rounds taken and, by float.hex,
    every relay and the ledger; the program's nodes are left as they were."""
    before = [node.energy.hex() for node in program.nodes]
    want, energies, after = iterated_jump(program, floors, rounds, ledger)
    n, got, got_after = engine._jump(program, floors, rounds, ledger)
    assert (n, [e.hex() for e in got], got_after.hex()) == (
        want,
        [e.hex() for e in energies],
        after.hex(),
    )
    assert [node.energy.hex() for node in program.nodes] == before


TINY = engine._CLOSED_FORM_MIN  # 2**-971
DF = engine._DEATH_FLOOR
# name: (rx, [(energy, tx, carried, below)], floors, rounds, ledger)
JUMP_CASES = {
    # from an odd grid place a tie rounds one way, then the other way from
    # every even place after: the move is not constant
    "receive cost a tie": (1000.5 * G, [(0.75 + G, 7.5e-5, 3, 1)], [DF], 60, 0.3),
    "transmit cost a tie": (5e-5, [(0.75 + G, 1000.5 * G, 2, 0)], [DF], 60, 0.3),
    "a tie among safe relays": (
        5e-5,
        [(0.75, 7.5e-5, 2, 1), (0.75 + G, 1000.5 * G, 1, 0), (0.9, 6e-5, 4, 2)],
        [DF] * 3,
        60,
        0.3,
    ),
    "a tie on the ledger only": (1000.5 * G, [(3.0, 7.5e-5, 2, 1)], [DF], 60, 0.75 + G),
    "at a binade edge": (5e-5, [(0.5, 7.5e-5, 2, 0)], [DF], 300, 0.3),
    "a grid step above an edge": (5e-5, [(0.5 + G, 7.5e-5, 2, 1)], [DF], 300, 0.3),
    # the fifth round's exact result is 0.5 - 0.375 G, which rounds to the
    # finer grid below the edge: landing on 0.5 needs the spare step
    "onto an edge": (5e-5, [(0.5 + 5000 * G, 1000.375 * G, 1, 0)], [DF], 8, 0.3),
    "onto an edge among safe relays": (
        5e-5,
        [(0.9, 7.5e-5, 2, 1), (0.5 + 5000 * G, 1000.375 * G, 1, 0), (0.7, 6e-5, 3, 0)],
        [DF] * 3,
        8,
        0.3,
    ),
    # the other relay, walked first, cuts the rounds to the fifth: the edge
    # relay may not skip its walk
    "onto an edge on the last round": (
        5e-5,
        [(1e-3, 1.9e-4, 1, 0), (0.5 + 5000 * G, 1000.375 * G, 1, 0)],
        [DF] * 2,
        8,
        0.3,
    ),
    "a floor inside the binade": (5e-5, [(0.9, 7.5e-5, 2, 1)], [0.6 * 0.9], 5000, 0.3),
    # the third round lands on the floor exactly, which it may
    "a floor on the grid": (
        5e-5,
        [(0.5 + 5000 * G, 1000 * G, 1, 0), (0.8, 6e-5, 2, 1)],
        [0.5 + 2000 * G, DF],
        50,
        0.3,
    ),
    "a floor below the binade": (5e-5, [(0.6, 7.5e-5, 2, 1)], [0.3], 5000, 0.3),
    "a floor above the energy": (5e-5, [(0.9, 7.5e-5, 2, 1), (0.6, 6e-5, 1, 0)], [DF, 0.7], 20, 0.3),
    "drained to zero": (5e-5, [(1e-3, 7.5e-5, 2, 1), (0.7, 6e-5, 1, 0)], [DF] * 2, 100, 0.3),
    "walks cut the safe ones": (
        5e-5,
        [(0.9, 7.5e-5, 3, 1), (0.5 + 7e-4, 7.5e-5, 2, 0), (2.5e-3, 1e-4, 2, 1)],
        [DF, DF, 0.5 * 2.5e-3],
        200,
        0.3,
    ),
    "near the closed form's floor": (
        2.0**-1010,
        [(1.5 * TINY, 2.0**-1012, 2, 1), (TINY - 2.0**-1023, 2.0**-1012, 1, 0), (3 * TINY, 2.0**-1005, 2, 0)],
        [DF] * 3,
        40,
        TINY,
    ),
    "ledger from zero": (5e-5, [(0.9, 7.5e-5, 3, 1)], [DF], 50, 0.0),
    "ledger from the least double": (5e-5, [(0.9, 7.5e-5, 3, 1)], [DF], 50, DF),
    "ledger below the closed form": (2.0**-1010, [(0.9, 2.0**-1005, 1, 0)], [DF], 50, 2.0**-1000),
    # 1/g of the ledger's binade is 2**1023, so a cost of joules has more
    # grid steps than a double holds
    "ledger at the closed form's floor, drains of joules": (2.5, [(1000.0, 3.0, 2, 1)], [DF], 30, TINY),
    "ledger crosses upward": (1.2e-4, [(0.9, 7.5e-5, 20, 5), (0.6, 5e-5, 20, 15)], [DF] * 2, 400, 1.0 - 3e-3),
    # reduce up to the 64th round, which lands in _CLOSED_FORM_MIN's binade
    "ledger climbing into it": (
        2.0**-1000,
        [(0.9, 2.0**-978, 1, 0), (0.9, 2.0**-1000, 1, 0)],
        [DF] * 2,
        80,
        2.0**-972,
    ),
    "no relays": (5e-5, [], [], 50, 0.3),
}


@pytest.mark.parametrize("case", list(JUMP_CASES))
def test_jump_matches_iterated(case):
    rx, relays, floors, rounds, ledger = JUMP_CASES[case]
    program = jump_program(rx, relays)
    for limit in (1, 2, rounds // 3, rounds):
        assert_jump_matches_iterated(program, floors, limit, ledger)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jump_matches_iterated_random(data):
    # one binade [lo, 2 lo) with grid g that energies, costs and floors are
    # drawn around; the lowest ones straddle _CLOSED_FORM_MIN
    lo = 2.0 ** data.draw(st.sampled_from([*range(-12, 2), -970, -971, -972]))
    g = lo * 2.0**-52
    steps = st.integers(0, 64).map(lambda j: j * g)
    energy = st.one_of(
        st.sampled_from([lo, lo + g, 2 * lo - g, lo - g / 2, TINY, TINY - 2.0**-1023]),
        steps.map(lambda d: lo + d),
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True).map(lambda f: f * lo),
    )
    cost = st.one_of(
        st.floats(min_value=1e-9, max_value=1e-3).map(lambda f: f * lo),
        st.integers(0, 10**6).map(lambda m: (m + 0.5) * g),  # ties
        st.tuples(st.integers(1, 16), st.sampled_from([0.0, 0.25, 0.375, 0.75])).map(
            lambda mf: (mf[0] + mf[1]) * g
        ),
    )
    rx = data.draw(cost)
    relays = []
    for _ in range(data.draw(st.integers(1, 5))):
        carried = data.draw(st.integers(1, 4))
        below = data.draw(st.integers(0, carried - 1))
        relays.append((data.draw(energy), data.draw(cost), carried, below))
    floors = [
        data.draw(
            st.one_of(
                st.just(DF),
                steps.map(lambda d: lo + d),  # inside the binade
                st.floats(min_value=0.0, max_value=1.0).map(lambda f: f * x),
                st.sampled_from([x, x + g]),
            )
        )
        for x, *_ in relays
    ]
    drain_count = sum(2 * r[2] - 1 for r in relays)
    order = data.draw(st.permutations(range(drain_count)))
    ledger = data.draw(
        st.one_of(
            st.sampled_from([0.0, DF, 2.0**-1000, TINY, TINY - 2.0**-1023]),
            energy,
            st.floats(min_value=0.0, max_value=4.0),
        )
    )
    rounds = data.draw(st.integers(1, 300))
    assert_jump_matches_iterated(jump_program(rx, relays, order), floors, rounds, ledger)


def stretches_of(config):
    """run(config) as run_keeping_state gives it, with the (start, end)
    clock of every quiet stretch it jumped."""
    stretches = []
    jump = engine._fast_forward

    def recording(state, strategy, cfg):
        start = state.time
        jumped = jump(state, strategy, cfg)
        if jumped:
            stretches.append((start, state.time))
        return jumped

    with mock.patch.object(engine, "_fast_forward", recording):
        result, state = run_keeping_state(config)
    return result, state, stretches


def stride_for(scenario, stretches):
    """A sampling stride that gives the scenario on these stretches, which
    do not depend on the stride."""
    if scenario == "stride 1":
        return 1
    start, end = max(stretches, key=lambda s: s[1] - s[0])
    if scenario == "a stretch ends on a sample":
        return end  # no earlier multiple lies past start
    return (end - start) // 3 or 1  # crosses three samples or more


def through_samples_config(tm, stride):
    kind = tm.trigger_kind if tm is not None else TriggerKind.ENERGY
    return small_config(
        tm=tm,
        trigger=TriggerPolicy(kind, period=30, energy_threshold=0.5),
        max_steps=400,
        metrics_stride=stride,
    )


@pytest.mark.parametrize(
    "scenario",
    ["stride 1", "a stretch ends on a sample", "a stretch crosses several samples"],
)
@pytest.mark.parametrize("tm", [*TMProtocol, None])
def test_run_through_samples_matches_step_loop(tm, scenario):
    _, _, probe = stretches_of(through_samples_config(tm, 1000))
    assert any(end - start >= 3 for start, end in probe)
    stride = stride_for(scenario, probe)
    config = through_samples_config(tm, stride)
    fast, fast_state, stretches = stretches_of(config)
    assert stretches == probe
    if scenario == "a stretch ends on a sample":
        assert any(end % stride == 0 for _, end in stretches)
    else:  # the number of stride points in (start, end]
        assert max(end // stride - start // stride for start, end in stretches) >= 2
    plain, plain_state = run_keeping_state(config, fast_forward=False)
    assert fast.to_dict() == plain.to_dict()
    assert [n.energy.hex() for n in fast_state.nodes] == [
        n.energy.hex() for n in plain_state.nodes
    ]
    assert fast_state.energy_ledger.hex() == plain_state.energy_ledger.hex()
    assert activation_stamp(fast_state) == activation_stamp(plain_state)
