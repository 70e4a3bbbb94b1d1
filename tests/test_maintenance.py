import copy

import pytest

from wsnlife import (
    A3Params,
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    MaintenanceStrategy,
    RadioParams,
    SensingParams,
    Site,
    StrategyKind,
    TCProtocol,
    TMProtocol,
    Topology,
    TriggerKind,
    TriggerPolicy,
    activate_topology,
    construct,
    deploy,
    maintain,
    precompute_rotation_set,
    should_trigger,
)
from wsnlife.maintenance import energy_floor
from wsnlife.radio import QUANTUM

from helpers import make_state

PARAMS = A3Params()


def chain_state():
    return make_state([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)])


def test_trigger_policy_validation():
    with pytest.raises(ValueError):
        TriggerPolicy(TriggerKind.TIME, period=0)
    with pytest.raises(ValueError):
        TriggerPolicy(TriggerKind.ENERGY, energy_threshold=1.0)


def test_protocol_name_taxonomy():
    assert TMProtocol.DGETREC.trigger_kind is TriggerKind.ENERGY
    assert TMProtocol.SGTTROT.trigger_kind is TriggerKind.TIME
    assert TMProtocol.DGTTREC.strategy_kind is StrategyKind.DYNAMIC_RECREATION
    assert TMProtocol.HGETRECROT.strategy_kind is StrategyKind.HYBRID
    assert TMProtocol.SGETROT.strategy_kind is StrategyKind.STATIC_ROTATION
    # the six names map onto distinct (trigger, strategy) pairs
    pairs = {(p.trigger_kind, p.strategy_kind) for p in TMProtocol}
    assert len(pairs) == 6


def test_time_trigger_fires_at_period():
    state = chain_state()
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    activate_topology(state, topology)
    policy = TriggerPolicy(TriggerKind.TIME, period=100)
    state.time = 99
    assert not should_trigger(policy, state)
    state.time = 100
    assert should_trigger(policy, state)
    # monotone: stays fired until re-activation resets the clock
    state.time = 250
    assert should_trigger(policy, state)
    activate_topology(state, topology)
    assert not should_trigger(policy, state)


def test_energy_trigger_threshold():
    state = chain_state()
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    activate_topology(state, topology)
    policy = TriggerPolicy(TriggerKind.ENERGY, energy_threshold=0.5)
    assert not should_trigger(policy, state)
    snapshot = state.topology.activation_energy[1]
    state.nodes[1].energy = 0.51 * snapshot
    assert not should_trigger(policy, state)
    state.nodes[1].energy = 0.49 * snapshot
    assert should_trigger(policy, state)


def test_energy_trigger_on_dead_active():
    state = chain_state()
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    activate_topology(state, topology)
    policy = TriggerPolicy(TriggerKind.ENERGY, energy_threshold=0.5)
    state.kill(1)
    assert should_trigger(policy, state)


def test_energy_floor_trips_as_the_product_does_for_whole_quanta():
    state = chain_state()
    topology = Topology(active_set={0, 1}, parent={1: 0})
    activate_topology(state, topology)
    policy = TriggerPolicy(TriggerKind.ENERGY, energy_threshold=0.6)
    product = policy.energy_threshold * topology.activation_energy[1]
    assert not (product / QUANTUM).is_integer()
    floor = energy_floor(policy, topology, 1)
    assert floor - QUANTUM < product < floor
    for battery in (floor - QUANTUM, floor, floor + QUANTUM):
        state.nodes[1].energy = battery
        assert should_trigger(policy, state) == (battery < product)


def test_member_activated_empty_trips_the_energy_trigger():
    # a later rotation entry's handshake can drain a member of entry 0 dry
    # before entry 0 is activated, which then snapshots 0.0 for it
    state = chain_state()
    topology = Topology(active_set={0, 1}, parent={1: 0})
    state.kill(1)
    activate_topology(state, topology)
    assert topology.activation_energy[1] == 0.0
    policy = TriggerPolicy(TriggerKind.ENERGY, energy_threshold=0.5)
    assert energy_floor(policy, topology, 1) == QUANTUM
    assert should_trigger(policy, state)


def test_precompute_k1_equals_plain_construction():
    state = chain_state()
    reference, _ = construct(copy.deepcopy(state), TCProtocol.A3, PARAMS)
    rotation = precompute_rotation_set(state, TCProtocol.A3, 1, PARAMS)
    assert len(rotation) == 1
    assert rotation[0].parent == reference.parent
    assert rotation[0].active_set == reference.active_set


def test_precompute_disjoint_relays_on_dense_instance():
    state = make_state([(0.0, 0.0), (80.0, 0.0), (60.0, 10.0), (150.0, 0.0)])
    rotation = precompute_rotation_set(state, TCProtocol.A3, 2, PARAMS)
    first, second = rotation
    assert first.active_set == {0, 1}
    assert second.active_set == {0, 2}
    assert first.active_set & second.active_set == {0}


def test_precompute_reuses_cut_vertex_on_chain():
    state = chain_state()
    rotation = precompute_rotation_set(state, TCProtocol.A3, 2, PARAMS)
    assert rotation[0].active_set == {0, 1}
    # node 1 is the only route to node 2: exclusion is lifted and it returns
    assert rotation[1].active_set == {0, 1}


def test_precompute_requires_fresh_state_and_valid_k():
    state = chain_state()
    with pytest.raises(ValueError):
        precompute_rotation_set(state, TCProtocol.A3, 0, PARAMS)
    state.time = 5
    with pytest.raises(ValueError):
        precompute_rotation_set(state, TCProtocol.A3, 2, PARAMS)


def star_state_and_rotation():
    """Three interchangeable relays around the sink, one topology each."""
    state = make_state([(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)])
    rotation = [
        Topology(active_set={0, nid}, parent={nid: 0}) for nid in (1, 2, 3)
    ]
    activate_topology(state, rotation[0])
    return state, rotation


def test_static_rotation_k1_wraps_to_itself():
    state = make_state([(0.0, 0.0), (50.0, 0.0)])
    topology = Topology(active_set={0, 1}, parent={1: 0})
    activate_topology(state, topology)
    strategy = MaintenanceStrategy(StrategyKind.STATIC_ROTATION, [topology], 0)
    state.time = 40
    result, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Rotated"
    assert result is topology
    assert result.activation_time == 40


def test_static_rotation_skips_dead_entry():
    state, rotation = star_state_and_rotation()
    strategy = MaintenanceStrategy(StrategyKind.STATIC_ROTATION, rotation, 0)
    state.kill(2)  # topology [1] contains node 2
    result, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Rotated"
    assert strategy.cursor == 2
    assert result.active_set == {0, 3}
    assert state.topology is result
    assert 3 in state.topology.active_set
    assert 1 not in state.topology.active_set


def test_static_rotation_exhausted_when_none_usable():
    state, rotation = star_state_and_rotation()
    strategy = MaintenanceStrategy(StrategyKind.STATIC_ROTATION, rotation, 0)
    for nid in (1, 2, 3):
        state.kill(nid)
    state.time = 77
    result, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Exhausted"
    assert result is state.topology is rotation[0]
    assert result.activation_time == 0  # not re-stamped: the trigger stays off
    assert strategy.cursor == 0


def test_exhausted_leaves_state_untouched():
    # the installed entry keeps the alive relay 4 active and 5 asleep; every
    # entry holds a dead relay, so nothing is usable
    state = make_state(
        [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0), (60.0, 0.0), (0.0, 60.0)]
    )
    rotation = [
        Topology(active_set={0, 1, 4}, parent={1: 0, 4: 1, 5: 0}),
        Topology(active_set={0, 2}, parent={2: 0, 4: 2, 5: 2}),
        Topology(active_set={0, 3, 5}, parent={3: 0, 5: 3, 4: 0}),
    ]
    activate_topology(state, rotation[0])
    strategy = MaintenanceStrategy(StrategyKind.STATIC_ROTATION, rotation, 0)
    for nid in (1, 2, 3):
        state.kill(nid)
    state.nodes[4].energy = 0.375
    state.time = 77
    before_state, before_strategy = copy.deepcopy((state, strategy))
    result, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Exhausted"
    assert result is state.topology is rotation[0]
    assert 4 in state.topology.active_set
    assert 5 not in state.topology.active_set
    # no state changes: no re-stamp, no new topology, no cursor move
    assert [n.energy for n in state.nodes] == [n.energy for n in before_state.nodes]
    assert result.activation_time == before_state.topology.activation_time == 0
    assert result.activation_energy == before_state.topology.activation_energy
    assert strategy.cursor == before_strategy.cursor


def test_hybrid_rotates_then_recreates():
    state, rotation = star_state_and_rotation()
    strategy = MaintenanceStrategy(StrategyKind.HYBRID, list(rotation), 0)
    _, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Rotated"
    for nid in (1, 2, 3):
        state.kill(nid)
    # a fresh relay appears far out; recreation can still find nobody nearby
    result, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Recreated"
    assert strategy.rotation_set == [result]
    assert strategy.cursor == 0


def test_hybrid_fallback_matches_dynamic_recreation():
    base = make_state(
        [(0.0, 0.0), (50.0, 0.0), (90.0, 0.0), (180.0, 0.0), (60.0, 60.0)]
    )
    dead_entry = Topology(active_set={0, 1}, parent={1: 0})
    activate_topology(base, dead_entry)
    base.kill(1)
    hybrid_state = copy.deepcopy(base)
    dynamic_state = copy.deepcopy(base)
    hybrid = MaintenanceStrategy(StrategyKind.HYBRID, [dead_entry], 0)
    dynamic = MaintenanceStrategy(StrategyKind.DYNAMIC_RECREATION)
    h_topo, h_action = maintain(hybrid, hybrid_state, TCProtocol.A3, PARAMS)
    d_topo, d_action = maintain(dynamic, dynamic_state, TCProtocol.A3, PARAMS)
    assert h_action == d_action == "Recreated"
    assert h_topo.parent == d_topo.parent
    assert h_topo.active_set == d_topo.active_set


def test_maintain_restamps_and_installs():
    state, rotation = star_state_and_rotation()
    strategy = MaintenanceStrategy(StrategyKind.STATIC_ROTATION, rotation, 0)
    state.nodes[2].energy = 0.25
    state.time = 10
    result, _ = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert result.active_set == {0, 2}
    assert result.activation_time == 10
    assert result.activation_energy[2] == 0.25
    assert state.topology is result
    assert 2 in state.topology.active_set
    assert not {1, 3} & state.topology.active_set


def test_recreation_after_deaths_uses_survivors():
    config = DeploymentConfig(node_count=30, area=DeploymentArea(250.0, 250.0), seed=11)
    state = deploy(Site(config, RadioParams(), SensingParams()), EnergyParams())
    topology, _ = construct(state, TCProtocol.A3, PARAMS)
    activate_topology(state, topology)
    for nid in sorted(topology.active_set - {0}):
        state.kill(nid)
    strategy = MaintenanceStrategy(StrategyKind.DYNAMIC_RECREATION)
    rebuilt, action = maintain(strategy, state, TCProtocol.A3, PARAMS)
    assert action == "Recreated"
    for nid in rebuilt.active_set:
        assert state.nodes[nid].alive
