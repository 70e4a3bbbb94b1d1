import copy
import gc
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import pairwise
from operator import add, sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import construction, engine
from wsnlife import (
    A3Params,
    ConfigError,
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    MaintenanceStrategy,
    Node,
    Point,
    RadioParams,
    SensingParams,
    SimConfig,
    Site,
    StrategyKind,
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
    sink_reachable,
    step,
    tx_energy,
)
from wsnlife.experiment import summarize
from wsnlife.maintenance import energy_floor
from wsnlife.metrics import MAX_GRID_POINTS

from helpers import coverage_calls, make_state
from test_golden import desk_config

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


def quanta(joules):
    """joules in whole quanta of 2^-40 J, the nearest, ties to even."""
    return round(joules * 2**40)


def test_family_mismatch_rejected():
    with pytest.raises(ConfigError) as err:
        small_config(tm=TMProtocol.SGETROT, trigger=TT)
    assert err.value.field == "trigger.kind"
    with pytest.raises(ConfigError):
        small_config(tm=TMProtocol.DGTTREC, trigger=ET)


def test_validate_names_offending_field():
    with pytest.raises(ConfigError) as err:
        small_config(metrics_stride=0)
    assert err.value.field == "metrics_stride"
    with pytest.raises(ConfigError) as err:
        small_config(rotation_k=0)
    assert err.value.field == "rotation_k"
    with pytest.raises(ConfigError) as err:
        small_config(sensing=SensingParams(uncertainty_radius=20.0))
    assert err.value.field == "sensing.uncertainty_radius"
    # every energy is whole quanta of 2^-40 J below 2^53 quanta = 8192 J
    for energy in (
        EnergyParams(initial_energy=8192.0 / 40),
        EnergyParams(initial_energy=2.0**-42),
    ):
        with pytest.raises(ConfigError) as err:
            small_config(energy=energy)
        assert err.value.field == "energy.initial_energy"
    # 40 batteries of the most whole quanta under 8192 J / 40
    small_config(energy=EnergyParams(initial_energy=8192.0 / 40 - 2.0**-40))
    for bits in ("control_packet_bits", "data_packet_bits"):
        # at 2^-42 J a bit, 2 bits cost half a quantum, which rounds to even,
        # zero, and 4 bits one quantum; at 1e306 J a bit, 1000 bits cost more
        # than the largest double
        for per_bit, size in ((2.0**-42, 2), (1e306, 1000)):
            sizes = {"control_packet_bits": 4, "data_packet_bits": 4, bits: size}
            energy = EnergyParams(elec_energy_per_bit=per_bit, **sizes)
            with pytest.raises(ConfigError) as err:
                small_config(energy=energy)
            assert err.value.field == "energy.elec_energy_per_bit"
            assert bits in str(err.value)


@pytest.mark.parametrize(
    "area", [DeploymentArea(100.0, 100.0), DeploymentArea(math.inf, math.inf)]
)
def test_infinite_grid_cell_rejected(area):
    with pytest.raises(ConfigError) as err:
        small_config(deployment=DeploymentConfig(5, area), grid_cell=math.inf)
    assert err.value.field == "grid_cell"


def test_grid_cell_bounded_without_allocating():
    strip = DeploymentConfig(2, DeploymentArea(float(MAX_GRID_POINTS), 1.0))
    small_config(deployment=strip, grid_cell=1.0)
    wider = DeploymentConfig(2, DeploymentArea(MAX_GRID_POINTS + 1.0, 1.0))
    with pytest.raises(ConfigError) as err:
        small_config(deployment=wider, grid_cell=1.0)
    assert err.value.field == "grid_cell"
    # n = 3000 at the default density, 4 m cells: 849 x 522 points
    scale = math.sqrt(10.0)
    large = DeploymentConfig(3000, DeploymentArea(1074.0 * scale, 660.0 * scale))
    small_config(deployment=large, grid_cell=4.0)


# Each check SimConfig makes on construction: the changes that trip it on
# small_config, the field it names and the start of its message.
REJECTIONS = [
    (dict(rotation_k=0), "rotation_k", "must be at least 1"),
    (dict(max_steps=0), "max_steps", "must be at least 1"),
    (dict(metrics_stride=0), "metrics_stride", "must be at least 1"),
    (dict(grid_cell=0.0), "grid_cell", "must be positive and finite"),
    (dict(grid_cell=math.inf), "grid_cell", "must be positive and finite"),
    (dict(grid_cell=0.05), "grid_cell", "gives 24000000 coverage points, over 10000000"),
    (
        dict(sensing=SensingParams(uncertainty_radius=15.0)),
        "sensing.uncertainty_radius",
        "must be smaller than the sensing radius",
    ),
    (
        dict(energy=EnergyParams(initial_energy=256.0)),
        "energy.initial_energy",
        "gives a budget of 10240.0 J in whole quanta (2^-40 J) over 40 nodes",
    ),
    (
        dict(energy=EnergyParams(initial_energy=2.0**-42)),
        "energy.initial_energy",
        "gives a budget of 0.0 J in whole quanta (2^-40 J) over 40 nodes",
    ),
    (
        dict(energy=EnergyParams(elec_energy_per_bit=2.0**-42, control_packet_bits=2)),
        "energy.elec_energy_per_bit",
        "gives a receive cost of control_packet_bits that rounds to zero quanta",
    ),
    (
        dict(energy=EnergyParams(elec_energy_per_bit=1e306, control_packet_bits=4)),
        "energy.elec_energy_per_bit",
        "gives a receive cost of data_packet_bits that rounds to zero quanta",
    ),
    (
        dict(tm=TMProtocol.SGETROT, trigger=TT),
        "trigger.kind",
        "SGETRot requires an energy-triggered policy",
    ),
    (
        dict(tm=TMProtocol.DGTTREC, trigger=ET),
        "trigger.kind",
        "DGTTRec requires a time-triggered policy",
    ),
]


@pytest.mark.parametrize("changes, name, message", REJECTIONS)
def test_each_rejection_fires_through_replace(changes, name, message):
    # a valid config copied with dataclasses.replace is checked as a new one
    base = small_config()
    for build in (lambda: small_config(**changes), lambda: replace(base, **changes)):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.field == name
        assert err.value.message.startswith(message)


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
    topology, _ = construct(state, TCProtocol.A3COV, A3Params())
    activate_topology(state, topology)
    assert 1 in state.topology.active_set
    return state


def test_two_node_per_step_cost():
    state = two_node_state(budget=1.0)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=10)
    before = state.nodes[1].energy
    sink_before = state.sink.energy
    step(state, None, config)
    cost = before - state.nodes[1].energy
    assert cost == quanta(7.5e-5) / 2**40  # the cost in whole quanta
    assert cost == tx_energy(config.energy, 1000, 50.0)
    assert state.sink.energy == sink_before  # mains powered, never drained


def test_two_node_child_dies_at_step_ten():
    state = two_node_state(budget=7.5e-4)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=50)
    while state.time < 50 and state.nodes[1].alive:
        step(state, None, config)
    assert not state.nodes[1].alive
    assert state.death_step[1] == 10
    assert state.nodes[1].energy == 0.0


def test_run_is_deterministic():
    config = small_config(tm=TMProtocol.DGETREC, trigger=ET)
    a = run(config)
    b = run(config)
    assert a.to_dict() == b.to_dict()


# each changes one value a site is keyed on
OTHER_SITES = {
    "seed": lambda c: replace(c, deployment=replace(c.deployment, seed=8)),
    "node_count": lambda c: replace(c, deployment=replace(c.deployment, node_count=41)),
    "area": lambda c: replace(
        c, deployment=replace(c.deployment, area=DeploymentArea(300.0, 201.0))
    ),
    "communication_radius": lambda c: replace(
        c, radio=replace(c.radio, communication_radius=45.0)
    ),
    "sensing_radius": lambda c: replace(c, radio=replace(c.radio, sensing_radius=12.0)),
    "sensing": lambda c: replace(c, sensing=SensingParams(uncertainty_radius=5.0)),
    "grid_cell": lambda c: replace(c, grid_cell=5.0),
}


@pytest.mark.parametrize("key", OTHER_SITES)
def test_run_rejects_a_site_of_another_config(key):
    config = small_config(tc=TCProtocol.A3COV, tm=TMProtocol.DGETREC, trigger=ET)
    other = OTHER_SITES[key](config)
    site = Site(other.deployment, other.radio, other.sensing, other.grid_cell)
    with mock.patch.object(engine, "deploy", side_effect=AssertionError("deployed")):
        with pytest.raises(ValueError, match="does not fit"):
            run(config, site)
    # nothing ran: no position drawn, no link or grid built, no initial
    # state or coverage kept
    assert "grid" not in vars(site)
    assert vars(site).keys() == {
        "deployment", "radio", "sensing", "grid_cell", "sensors", "distances", "initial",
        "coverages",
    }
    assert site.sensors == {} and site.distances == {}
    assert site.initial == {} and site.coverages == {}


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
    # every battery starts at the initial energy in whole quanta, and every
    # sum below is of whole quanta, so exact
    initial = quanta(config.energy.initial_energy) / 2**40 * (len(state.nodes) - 1)

    def ledger_holds():
        current = sum(n.energy for n in state.nodes if n.id != 0)
        spent = initial - current
        assert spent == state.energy_ledger

    ledger_holds()
    while state.time < config.max_steps:
        step(state, strategy, config)
        ledger_holds()


def test_sink_bits_counter_matches_surviving_paths():
    # chain sink <- 1 <- 2, both active, no deaths: every packet arrives
    state = make_state([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)])
    topology = Topology(active_set={0, 1, 2}, parent={1: 0, 2: 1})
    activate_topology(state, topology)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=5)
    step(state, None, config)
    assert state.packets_delivered == 2
    assert state.packets_dropped == 0


def test_packet_dropped_at_dead_relay():
    state = make_state([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)], dead=[1])
    topology = Topology(active_set={0, 1, 2}, parent={1: 0, 2: 1})
    activate_topology(state, topology)
    config = SimConfig(tm=None, metrics_stride=1, max_steps=1)
    energy_before = state.nodes[2].energy
    step(state, None, config)
    # the origin paid its transmit cost but the packet went nowhere
    assert state.packets_dropped == 1
    assert state.nodes[2].energy < energy_before
    # dead nodes never transmit or receive
    assert state.nodes[1].energy == 0.0


def test_early_termination_with_final_sample():
    # a lone sensor 50 m from the sink pays about 7.5e-5 J a step; ten whole
    # drains, 7.5e-4 J less one quantum, last ten steps, and the run ends on
    # the step it dies in, sampled there off the stride of 7
    positions, parent = [(0.0, 0.0), (50.0, 0.0)], {1: 0}
    _, tx = packet_costs(positions, parent)
    assert 10 * tx[1] == quanta(7.5e-4) - 1
    result = run_hand_built(positions, parent, {1: 10 * tx[1]}, max_steps=50, metrics_stride=7)
    assert [s.time for s in result.series] == [0, 7, 10]
    assert result.series[-1].alive == 1
    assert result.death_times == {1: 10}


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
        assert action in {"Rotated", "Recreated", "Exhausted"}
        assert action == "Recreated"  # dynamic recreation only recreates


@pytest.mark.parametrize("tm", [TMProtocol.SGETROT, TMProtocol.SGTTROT])
def test_spent_static_set_disarms_its_trigger(tm):
    # on the desk scenario the rotation set runs out long before the horizon
    checked = []  # the step each trigger check would log its event at
    check = engine.should_trigger

    def counting(policy, state):
        checked.append(state.time + 1)
        return check(policy, state)

    with mock.patch.object(engine, "should_trigger", counting):
        result = run(desk_config(TCProtocol.A3, tm, 1))
    events = result.maintenance_events
    actions = [action for _, action in events]
    assert actions.count("Exhausted") == 1
    assert actions[-1] == "Exhausted"
    spent = events[-1][0]
    assert spent < result.final_summary["steps"]
    assert max(checked) == spent  # no trigger check after that step


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
    topology = Topology(active_set={0, *order}, parent=parent)
    activate_topology(state, topology)
    for nid, (kind, scale) in budgets.items():
        if not state.nodes[nid].alive:
            continue
        _, tx_cost = engine._routes(state).edges[nid]
        # "exact": a battery of one or two transmit costs, which the node's
        # own drains take to exactly 0.0; otherwise a few rounds' worth, in
        # whole quanta like every battery
        joules = scale * tx_cost if kind == "exact" else quanta(scale * 1e-3) / 2**40
        state.nodes[nid].energy = joules
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
    # a ledger already holding earlier charges, in whole quanta up to 1e-2 J
    ledger = data.draw(st.integers(0, 10**10)) / 2**40
    # a node killed between two steps, as maintenance's control traffic may
    killed = data.draw(
        st.none() | st.tuples(st.integers(0, steps - 1), st.integers(1, n - 1))
    )

    compiled = _random_tree_state(positions, order, picks, budgets, dead)
    reference = _random_tree_state(positions, order, picks, budgets, dead)
    compiled.energy_ledger = reference.energy_ledger = ledger
    config = SimConfig(tm=None)
    for k in range(steps):
        step(compiled, None, config)
        with hop_by_hop():
            step(reference, None, config)
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


def recorded_round(state, tree):
    """The data round walked hop by hop over the alive set, each drain
    recorded instead of applied: every drain in hop order, each node's own
    drains, and the packets delivered and dropped."""
    rx_cost = rx_energy(state.energy, state.energy.data_packet_bits)
    nodes = state.nodes
    drains, own = [], {}
    delivered = dropped = 0
    for origin in tree.edges:
        if not nodes[origin].alive:
            continue
        current = origin
        while True:
            parent, tx_cost = tree.edges[current]
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
    one or two transmit costs exactly, or 0.5 to 5 rounds of its drains in
    whole quanta."""
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
    topology = Topology(active_set={0, *order}, parent=parent)
    activate_topology(state, topology)
    _, own, _, _ = recorded_round(state, engine._routes(state))
    for nid in rng.sample(order, k=n // 10):
        if nid not in own:
            continue  # dead
        if len(own[nid]) == 1:
            state.nodes[nid].energy = rng.choice([1.0, 2.0]) * own[nid][0]
        else:
            state.nodes[nid].energy = quanta(rng.uniform(0.5, 5.0) * sum(own[nid])) / 2**40
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
    tree = engine._routes(state)
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
    # each relay's drain over the round is the sum of its recorded drains,
    # and the ledger's the sum of them all; sums of whole quanta are exact
    program = engine._compile_round(state, tree)
    drains, own, delivered, dropped = recorded_round(state, tree)
    assert [node.id for node in program.nodes] == sorted(own)
    assert program.per_round.tolist() == [sum(own[nid]) for nid in sorted(own)]
    assert program.spent == sum(drains)
    assert (program.delivered, program.dropped) == (delivered, dropped)
    assert dropped > 0

    config = SimConfig(tm=None, max_steps=steps, metrics_stride=steps)
    compiled, _ = _deep_tree_state(seed, n, fan)
    reference, _ = _deep_tree_state(seed, n, fan)
    for _ in range(steps):
        step(compiled, None, config)
    with hop_by_hop():
        for _ in range(steps):
            step(reference, None, config)
    assert [nd.energy.hex() for nd in compiled.nodes] == [
        nd.energy.hex() for nd in reference.nodes
    ]
    assert compiled.energy_ledger.hex() == reference.energy_ledger.hex()
    assert compiled.packets_delivered == reference.packets_delivered
    assert compiled.packets_dropped == reference.packets_dropped
    assert compiled.death_step == reference.death_step


def hop_by_hop():
    """A patch of the one mover of compiled rounds that takes none, so that
    every step runs its data round hop by hop, which shares no code with
    _jump."""
    return mock.patch.object(engine, "_take_rounds", lambda *args: 0)


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
        step(state, strategy, config)
        routes = state.topology.route_cache
        assert routes.program is not None
        held = [state.topology, routes, routes.program, routes.program.per_round]
        refs = [weakref.ref(obj) for obj in held]
        del routes, held
        for _ in range(config.trigger.period + 1):
            step(state, strategy, config)
        assert strategy.events  # the topology was replaced
        assert [ref() for ref in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def test_kill_between_steps_recompiles_round():
    # chain sink <- 1 <- 2 <- 3 with generous batteries: no step kills
    state = make_state([(0.0, 0.0), (80.0, 0.0), (160.0, 0.0), (240.0, 0.0)])
    topology = Topology(active_set={0, 1, 2, 3}, parent={1: 0, 2: 1, 3: 2})
    activate_topology(state, topology)
    config = SimConfig(tm=None, max_steps=10, metrics_stride=10)
    tx = tx_energy(state.energy, state.energy.data_packet_bits, 80.0)
    step(state, None, config)
    program = topology.route_cache.program
    assert (program.delivered, program.dropped) == (3, 0)
    step(state, None, config)
    assert topology.route_cache.program is program  # nobody died: reused
    state.kill(2)
    before = state.nodes[3].energy
    step(state, None, config)  # node 2's zeroed battery fails the program: hop by hop
    assert state.packets_delivered == 3 + 3 + 1
    assert state.packets_dropped == 1
    assert state.nodes[3].energy == before - tx
    assert topology.route_cache.program is None
    step(state, None, config)  # compiled over the alive set that round left
    program = topology.route_cache.program
    assert (program.delivered, program.dropped) == (1, 1)
    assert [node.id for node in program.nodes] == [1, 3]
    assert program.per_round.tolist() == [tx, tx]
    assert (state.packets_delivered, state.packets_dropped) == (8, 2)


def test_relay_drains_stop_at_nested_dead_hops():
    # sink <- 5 <- 2 (dead) <- 7 <- 3 (dead) <- 1, a dead hop under a dead
    # hop; 2 <- 9 (dead) <- 10; and 5 <- 4 <- 6, 5 <- 8, 7 <- 11
    parent = {5: 0, 2: 5, 7: 2, 3: 7, 1: 3, 9: 2, 10: 9, 4: 5, 6: 4, 8: 5, 11: 7}
    positions = [(0.0, 0.0)] + [(10.0 * nid, 5.0) for nid in range(1, 12)]
    state = make_state(positions, dead=[2, 3, 9])
    activate_topology(state, Topology(active_set={0, *parent}, parent=parent))
    tree = engine._routes(state)
    program = engine._compile_round(state, tree)
    drains, own, delivered, dropped = recorded_round(state, tree)
    assert (delivered, dropped) == (4, 4)  # 5, 4, 6, 8; and 7, 1, 10, 11
    # a relay that carries k packets takes k transmit and k - 1 receive drains
    assert [node.id for node in program.nodes] == [1, 4, 5, 6, 7, 8, 10, 11]
    assert [(len(own[nid]) + 1) // 2 for nid in sorted(own)] == [1, 2, 4, 1, 2, 1, 1, 1]
    assert program.per_round.tolist() == [sum(own[nid]) for nid in sorted(own)]
    assert program.spent == sum(drains)
    assert (program.delivered, program.dropped) == (delivered, dropped)


def iterated(x, op, costs, steps, floor=-math.inf):
    """_jump's reference: one reduce of the drains per round, stopping
    before a round that would leave x under floor or empty, a death; the
    rounds taken and x after them."""
    done = 0
    while done < steps:
        y = reduce(op, costs, x)
        if y < floor or y <= 0.0:
            break
        x, done = y, done + 1
    return done, x


def jump_program(rx, relays, order=None):
    """A RoundProgram of relays given as (energy, tx, carried, below), with
    rx the receive cost, and the round's drains: each relay's, charged in
    the order a round charges them, and every drain, in `order` (a
    permutation) or one relay after another. No tree stands behind it."""
    nodes, charged = [], []
    for j, (energy, tx, carried, below) in enumerate(relays):
        carry = [rx, tx]
        charged.append(carry * below + [tx] + carry * (carried - 1 - below))
        nodes.append(Node(id=j + 1, position=Point(0.0, 0.0), energy=energy))
    drains = [c for costs in charged for c in costs]
    if order is not None:
        drains = [drains[i] for i in order]
    program = engine.RoundProgram(
        nodes=nodes,
        per_round=np.array([sum(costs) for costs in charged], dtype=np.float64),
        spent=sum(drains),
        delivered=0,
        dropped=0,
    )
    return program, charged, drains


def iterated_jump(energies, charged, drains, floors, rounds, ledger):
    """engine._jump's reference: every relay and the ledger by iterated."""
    n = min(
        [rounds]
        + [
            iterated(x, sub, c, rounds, floor)[0]
            for x, c, floor in zip(energies, charged, floors)
        ]
    )
    if n == 0:
        return 0, [], ledger
    return (
        n,
        [iterated(x, sub, c, n)[1] for x, c in zip(energies, charged)],
        iterated(ledger, add, drains, n)[1],
    )


def trip_level(product):
    """energy_floor's value for a member whose threshold times activation
    energy is product: a threshold of 0.5 on twice it, an exact product."""
    policy = TriggerPolicy(TriggerKind.ENERGY, energy_threshold=0.5)
    topology = Topology(active_set={0, 1}, parent={1: 0}, activation_energy={1: 2 * product})
    return energy_floor(policy, topology, 1)


def assert_jump_matches_iterated(rx, relays, floors, rounds, ledger, order=None):
    """_jump, given energy_floor's value for each floor, as _fast_forward
    gives it, agrees with iterated on the rounds taken and, by float.hex,
    every relay and the ledger; the program's nodes are left as they were."""
    program, charged, drains = jump_program(rx, relays, order)
    energies = [node.energy for node in program.nodes]
    want, after, ledger_after = iterated_jump(energies, charged, drains, floors, rounds, ledger)
    lowest = [trip_level(f) for f in floors]
    n, got, got_ledger = engine._jump(program, lowest, rounds, ledger)
    assert (n, [e.hex() for e in got], got_ledger.hex()) == (
        want,
        [e.hex() for e in after],
        ledger_after.hex(),
    )
    assert [node.energy for node in program.nodes] == energies


Q = 2.0**-40  # one quantum
DF = Q  # the death floor: a battery of whole quanta is alive from one up


def whole(joules):
    """joules rounded to whole quanta."""
    return quanta(joules) / 2**40


# name: (rx, [(energy, tx, carried, below)], floors, rounds, ledger), in
# joules; _jump sees rx, every energy and tx, and the ledger rounded to
# whole quanta, and each floor raised to them. The cases put a battery,
# a floor or the ledger at an edge of float arithmetic (a binade edge, a
# cost that was a half-quantum tie, the fewest quanta, joules of drains on
# a ledger of one quantum), where a subtraction of floats that were not
# whole quanta would round.
JUMP_CASES = {
    "receive cost a tie": (1000.5 * Q, [(0.75 + Q, 7.5e-5, 3, 1)], [DF], 60, 0.3),
    "transmit cost a tie": (5e-5, [(0.75 + Q, 1001.5 * Q, 2, 0)], [DF], 60, 0.3),
    "a tie among safe relays": (
        5e-5,
        [(0.75, 7.5e-5, 2, 1), (0.75 + Q, 1000.5 * Q, 1, 0), (0.9, 6e-5, 4, 2)],
        [DF] * 3,
        60,
        0.3,
    ),
    "a tie on the ledger only": (1000.5 * Q, [(3.0, 7.5e-5, 2, 1)], [DF], 60, 0.75 + Q),
    "at a binade edge": (5e-5, [(0.5, 7.5e-5, 2, 0)], [DF], 300, 0.3),
    "a grid step above an edge": (5e-5, [(0.5 + Q, 7.5e-5, 2, 1)], [DF], 300, 0.3),
    # the fifth round lands on 0.5 exactly
    "onto an edge": (5e-5, [(0.5 + 5000 * Q, 1000 * Q, 1, 0)], [DF], 8, 0.3),
    "onto an edge among safe relays": (
        5e-5,
        [(0.9, 7.5e-5, 2, 1), (0.5 + 5000 * Q, 1000 * Q, 1, 0), (0.7, 6e-5, 3, 0)],
        [DF] * 3,
        8,
        0.3,
    ),
    # the other relay cuts the rounds to the fifth
    "onto an edge on the last round": (
        5e-5,
        [(1e-3, 1.9e-4, 1, 0), (0.5 + 5000 * Q, 1000 * Q, 1, 0)],
        [DF] * 2,
        8,
        0.3,
    ),
    "a floor inside the binade": (5e-5, [(0.9, 7.5e-5, 2, 1)], [0.6 * 0.9], 5000, 0.3),
    # the third round lands on the floor exactly, which it may
    "a floor on the grid": (
        5e-5,
        [(0.5 + 5000 * Q, 1000 * Q, 1, 0), (0.8, 6e-5, 2, 1)],
        [0.5 + 2000 * Q, DF],
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
    # batteries and drains of a few quanta; the second relay ends on one
    "near the closed form's floor": (
        Q,
        [(40 * Q, 2 * Q, 2, 1), (7 * Q, 2 * Q, 1, 0), (90 * Q, 4 * Q, 2, 0)],
        [DF] * 3,
        40,
        Q,
    ),
    "ledger from zero": (5e-5, [(0.9, 7.5e-5, 3, 1)], [DF], 50, 0.0),
    "ledger from the least double": (5e-5, [(0.9, 7.5e-5, 3, 1)], [DF], 50, Q),
    "ledger below the closed form": (Q, [(0.9, 32 * Q, 1, 0)], [DF], 50, Q),
    "ledger at the closed form's floor, drains of joules": (2.5, [(1000.0, 3.0, 2, 1)], [DF], 30, Q),
    "ledger crosses upward": (1.2e-4, [(0.9, 7.5e-5, 20, 5), (0.6, 5e-5, 20, 15)], [DF] * 2, 400, 1.0 - 3e-3),
    "ledger climbing into it": (
        Q,
        [(0.9, 2**22 * Q, 1, 0), (0.9, Q, 1, 0)],
        [DF] * 2,
        80,
        2 * Q,
    ),
    "no relays": (5e-5, [], [], 50, 0.3),
}


@pytest.mark.parametrize("case", list(JUMP_CASES))
def test_jump_matches_iterated(case):
    rx, relays, floors, rounds, ledger = JUMP_CASES[case]
    relays = [(whole(x), whole(tx), carried, below) for x, tx, carried, below in relays]
    for limit in (1, 2, rounds // 3, rounds):
        assert_jump_matches_iterated(whole(rx), relays, floors, limit, whole(ledger))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_jump_matches_iterated_random(data):
    # energies, costs and the ledger in whole quanta, drawn around one
    # binade [lo, 2 lo) and among the fewest quanta; floors anywhere
    lo = 2.0 ** data.draw(st.integers(-12, 1))
    energy = st.one_of(
        st.sampled_from([lo, lo + Q, 2 * lo - Q, Q, 2 * Q]),
        st.integers(0, 64).map(lambda j: lo + j * Q),
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True).map(lambda f: whole(f * lo)),
    )
    cost = st.one_of(
        st.floats(min_value=1e-9, max_value=1e-3).map(lambda f: max(Q, whole(f * lo))),
        st.integers(1, 10**6).map(lambda m: m * Q),
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
                st.integers(0, 64).map(lambda j: lo + j * Q),
                st.floats(min_value=0.0, max_value=1.0).map(lambda f: f * x),
                st.sampled_from([x, x + Q]),
            )
        )
        for x, *_ in relays
    ]
    drain_count = sum(2 * r[2] - 1 for r in relays)
    order = data.draw(st.permutations(range(drain_count)))
    ledger = data.draw(
        st.one_of(
            st.sampled_from([0.0, Q, 2 * Q]),
            energy,
            st.floats(min_value=0.0, max_value=4.0).map(whole),
        )
    )
    rounds = data.draw(st.integers(1, 300))
    assert_jump_matches_iterated(rx, relays, floors, rounds, ledger, order)


def run_keeping_state(config, fast_forward=True):
    """run(config), and the state it finished with; without fast_forward,
    every step goes through step()."""
    states = []

    def keep(cfg, site):
        state, strategy = initialize(cfg, site)
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
    # every battery and the ledger are whole quanta of 2^-40 J, so nothing
    # was lost to rounding: the ledger and the residuals add up to the
    # initial budget exactly
    residuals = [n.energy for n in fast_state.nodes if n.id != 0]
    assert all((e * 2**40).is_integer() for e in [*residuals, fast_state.energy_ledger])
    initial = quanta(config.energy.initial_energy) / 2**40
    assert fast_state.energy_ledger + sum(residuals) == len(residuals) * initial


def packet_costs(positions, parent):
    """The costs of one data packet in quanta under the default energy
    model: the receive cost, and each node's transmit cost over its hop.
    Every coordinate is a whole number of meters and every hop lies along
    an axis, so each hop length and its square are exact."""
    energy = EnergyParams()
    bits = energy.data_packet_bits
    elec = energy.elec_energy_per_bit * bits
    amp = energy.amp_energy_per_bit_m2 * bits
    tx = {}
    for nid, pid in parent.items():
        (x, y), (px, py) = positions[nid], positions[pid]
        tx[nid] = quanta(elec + amp * (abs(x - px) + abs(y - py)) ** 2)
    return quanta(elec), tx


def run_hand_built(positions, parent, batteries, max_steps=1000, **overrides):
    """run() on a hand-built tree in place of a deployment, every node of it
    active, with the batteries given in quanta; without maintenance unless
    the overrides of the config name a tm."""
    state = make_state(positions)
    for nid, joules in batteries.items():
        state.nodes[nid].energy = joules / 2**40
    activate_topology(state, Topology(active_set={0, *parent}, parent=parent))
    config = SimConfig(
        **{"tm": None, "max_steps": max_steps, "metrics_stride": max_steps, **overrides}
    )
    strategy = None if config.tm is None else MaintenanceStrategy(config.tm.strategy_kind)
    with mock.patch.object(engine, "initialize", lambda cfg, site: (state, strategy)):
        return run(config)


def test_star_leaves_die_at_their_closed_form_step():
    # each leaf is one hop from the sink, so a battery of E quanta and a
    # transmit cost of tx quanta last ceil(E / tx) rounds; some batteries
    # are whole multiples of the cost, and run dry exactly. The costs of
    # leaves 1 and 4 lie 0.99 and 0.9 of a quantum above a whole one, and
    # that of leaf 5 0.03 above: rounded down, or up, they die a step late
    distances = {1: 17, 2: 35, 3: 50, 4: 63, 5: 99}
    positions = [(100.0, 100.0)] + [
        (100.0 + d, 100.0) if nid % 2 else (100.0, 100.0 + d) for nid, d in distances.items()
    ]
    parent = dict.fromkeys(distances, 0)
    _, tx = packet_costs(positions, parent)
    rounds = {1: 7, 2: 12, 3: 12, 4: 30, 5: 45}
    extra = {1: 0, 2: 1, 3: -1, 4: 0, 5: 1}
    batteries = {nid: rounds[nid] * tx[nid] + extra[nid] for nid in distances}
    want = {nid: -(-batteries[nid] // tx[nid]) for nid in distances}
    assert want == {1: 7, 2: 13, 3: 12, 4: 30, 5: 46}
    assert run_hand_built(positions, parent, batteries).death_times == want


def test_chain_first_death_at_its_closed_form_step():
    # sink <- 1 <- 2 <- 3 along the x axis: relay i pays for its own packet
    # and every packet behind it, k_i transmits and k_i - 1 receives a
    # round, so the first death is at the least ceil(E_i / drain_i); relay
    # 2, whose hop is the longest, is first, and its battery is a whole
    # multiple of its drain
    positions = [(100.0, 100.0), (110.0, 100.0), (209.0, 100.0), (259.0, 100.0)]
    parent = {1: 0, 2: 1, 3: 2}
    carried = {1: 3, 2: 2, 3: 1}
    rx, tx = packet_costs(positions, parent)
    drain = {nid: k * tx[nid] + (k - 1) * rx for nid, k in carried.items()}
    batteries = {1: quanta(5e-3), 2: 15 * drain[2], 3: quanta(5e-3)}
    lasts = {nid: -(-batteries[nid] // drain[nid]) for nid in parent}
    assert lasts[2] == 15 and min(lasts[1], lasts[3]) > 15
    deaths = run_hand_built(positions, parent, batteries).death_times
    assert min(deaths.values()) == deaths[2] == 15


def test_energy_trigger_fires_at_its_closed_form_step():
    # one leaf 50 m from the sink, activated with 1 J, so its floor is the
    # threshold in joules; the floor lies 2^-56 J above W, the battery after
    # K rounds, so the trigger first fires in step K. The jump before it
    # must stop at step K - 1: x - floor is a whole number of drains less
    # 2^-56 J, which rounds to that whole number, and only the floor raised
    # to whole quanta keeps the last of those rounds out
    positions = [(100.0, 100.0), (150.0, 100.0)]
    parent = {1: 0}
    _, tx = packet_costs(positions, parent)
    K = 12000
    W = quanta(1.0) - K * tx[1]
    threshold = W / 2**40 + 2.0**-56
    floor = Fraction(threshold) * 2**40  # in quanta, exactly
    assert floor - W == Fraction(1, 2**16)
    first = math.floor((quanta(1.0) - floor) / tx[1]) + 1  # the least k with E - k*tx < floor
    assert first == K
    result = run_hand_built(
        positions,
        parent,
        {},
        max_steps=K + 10,
        tm=TMProtocol.DGETREC,
        trigger=TriggerPolicy(TriggerKind.ENERGY, energy_threshold=threshold),
    )
    assert result.maintenance_events[0] == (first, "Recreated")


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
    fast, fast_state, stretches = stretches_of(config)
    assert any(end - start > 1 for start, end in stretches)
    assert fast.death_times and fast.maintenance_events

    with hop_by_hop():
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
    assert spent == state.energy_ledger  # whole quanta: no sum rounds
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
    quantized = quanta(config.energy.initial_energy) / 2**40
    initial = [quantized] * (config.deployment.node_count - 1)
    state, strategy = initialize(config)
    alive = assert_one_record_of_life(state, initial, len(state.nodes))
    while state.time < config.max_steps and not engine._network_finished(state):
        step(state, strategy, config)
        alive = assert_one_record_of_life(state, initial, alive)


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
    if scenario == "stride 1":
        # one sample at time 0, then one per step, however far the stretch
        # after it runs: run() is the one place that samples
        calls = {"step": 0, "sample_metrics": 0}

        def counted(name):
            fn = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        with mock.patch.object(engine, "step", counted("step")), mock.patch.object(
            engine, "sample_metrics", counted("sample_metrics")
        ):
            assert run(config).to_dict() == fast.to_dict()
        assert calls["sample_metrics"] == 1 + calls["step"]


def test_coverage_is_computed_once_per_change_of_the_reach_set():
    config = desk_config(TCProtocol.A3COV, TMProtocol.DGETREC, 1)
    with coverage_calls() as (samples, calls):
        result = run(config)
    reaches = [reach for _, reach in samples]
    changes = sum(a != b for a, b in pairwise(reaches))
    assert calls == {"comm_coverage": 1 + changes, "sensing_coverage": 1 + changes}
    assert 0 < changes < len(reaches) - 1  # some samples reuse, some recompute
    assert len(result.series) >= len(reaches)


def test_a_run_reuses_the_coverages_of_a_reach_set_seen_samples_before():
    # SGTTRot rotates its three entries every 25 steps, sampled every 10, so
    # an entry's reach set comes back after the others'
    config = desk_config(TCProtocol.A3, TMProtocol.SGTTROT, 1)
    with coverage_calls() as (samples, calls):
        result = run(config)
    reaches = [reach for _, reach in samples]
    assert any(
        reaches[j] != reaches[j - 1] and reaches[j] in reaches[: j - 1]
        for j in range(1, len(reaches))
    )
    distinct = len(set(reaches))
    assert calls == {"comm_coverage": distinct, "sensing_coverage": distinct}
    assert len(result.series) >= len(reaches)


def initial_fields(state, strategy):
    """Everything initialize sets, field by field, in comparable values."""
    fields = {
        name: getattr(state, name)
        for name in vars(state)
        if name not in ("nodes", "site", "energy_ledger")
    }
    fields["energies"] = [node.energy.hex() for node in state.nodes]
    fields["energy_ledger"] = state.energy_ledger.hex()
    if strategy is not None:
        fields["strategy"] = vars(strategy)
        fields["installed"] = [state.topology is t for t in strategy.rotation_set]
    return fields


INITIAL_CASES = {
    # one handshake drains a sensor farther than about 41 m from its
    # parent dry, so some die at time 0 in every family
    "handshakes kill": replace(
        desk_config(TCProtocol.A3, None, 1), energy=EnergyParams(initial_energy=1.5e-5)
    ),
    # the third rotation entry's exclusion leaves a stump, so it is relaxed
    "an exclusion is relaxed": small_config(),
}


@pytest.mark.parametrize("case", INITIAL_CASES)
def test_a_shared_site_initializes_each_family_as_a_fresh_site_does(case):
    base = INITIAL_CASES[case]
    site = Site(base.deployment, base.radio, base.sensing, base.grid_cell)
    grows = []
    grow = construction._grow

    def counted(*args):
        grows.append(args)
        return grow(*args)

    for tc in TCProtocol:
        for tm in [*TMProtocol, None]:
            trigger = base.trigger if tm is None else replace(base.trigger, kind=tm.trigger_kind)
            config = replace(base, tc=tc, tm=tm, trigger=trigger)
            with mock.patch.object(construction, "_grow", counted):
                fresh = initial_fields(*initialize(config))
            assert initial_fields(*initialize(config, site)) == fresh
            if case == "handshakes kill":
                assert 0 in fresh["death_step"].values()
            elif tm is not None and tm.strategy_kind is not StrategyKind.DYNAMIC_RECREATION:
                assert len(grows) > config.rotation_k
            grows.clear()
    # per tc, one construction and one rotation set
    assert len(site.initial) == 2 * len(TCProtocol)


def test_a_cell_starts_from_copies_of_the_kept_initial_state():
    config = desk_config(TCProtocol.A3COV, TMProtocol.HGETRECROT, 1)
    site = Site(config.deployment, config.radio, config.sensing, config.grid_cell)
    initialize(config, site)
    (kept,) = site.initial.values()
    before = copy.deepcopy(vars(kept))
    state, strategy = initialize(config, site)
    assert state.death_step is not kept.death_step
    for entry, (active, parent, promoted) in zip(strategy.rotation_set, kept.topologies):
        assert entry.active_set is not active
        assert entry.parent is not parent
        assert entry.coverage_promoted is not promoted
    while state.time < config.max_steps and alive_count(state) > 1:
        step(state, strategy, config)
    assert "Recreated" in {action for _, action in strategy.events}
    for tm in TMProtocol:
        other = replace(config, tm=tm, trigger=replace(config.trigger, kind=tm.trigger_kind))
        run(other, site=site)
    assert vars(kept) == before


def test_a_lone_run_keeps_no_initial_state():
    sites = []

    def recorded(*args):
        sites.append(Site(*args))
        return sites[-1]

    config = small_config(tm=TMProtocol.SGETROT, trigger=ET)
    with mock.patch.object(engine, "Site", recorded):
        run(config)
    (site,) = sites
    assert site.initial == {}
    assert site.coverages  # the run's own samples share theirs
