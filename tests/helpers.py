"""Shared fixtures for hand-built network states."""
from __future__ import annotations

from wsnlife import (
    DeploymentArea,
    EnergyParams,
    NetworkState,
    Node,
    Point,
    RadioParams,
    SensingParams,
    Topology,
    distance,
)


def make_state(
    positions,
    area=None,
    radio=None,
    sensing=None,
    energy=None,
    initial_energy=None,
    active=(),
    dead=(),
):
    """Build a NetworkState with node 0 as the sink at positions[0].

    active lists the ids of the installed topology's active set besides the
    sink (default: every non-sink node sleeps); dead lists ids to kill
    outright.
    """
    radio = radio or RadioParams()
    sensing = sensing or SensingParams()
    if energy is None:
        if initial_energy is not None:
            energy = EnergyParams(initial_energy=initial_energy)
        else:
            energy = EnergyParams()
    # every battery in whole quanta of 2^-40 J, as deploy starts them
    initial = round(energy.initial_energy * 2**40) / 2**40
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    area = area or DeploymentArea(max(xs) + 100.0, max(ys) + 100.0)
    nodes = [
        Node(id=i, position=Point(x, y), energy=initial)
        for i, (x, y) in enumerate(positions)
    ]
    state = NetworkState(
        nodes=nodes,
        area=area,
        radio=radio,
        energy=energy,
        sensing=sensing,
        topology=Topology(active_set={0, *active}, parent={}),
    )
    for nid in dead:
        state.nodes[nid].energy = 0.0
    return state


def neighbors(state: NetworkState, node_id: int, radius: float) -> list[int]:
    """Alive nodes other than node_id within radius of it, ascending by id."""
    if not 0 <= node_id < len(state.nodes):
        raise KeyError(f"unknown node id {node_id}")
    origin = state.nodes[node_id].position
    found = []
    for other in state.nodes:
        if other.id == node_id or not other.alive:
            continue
        if distance(origin, other.position) <= radius:
            found.append(other.id)
    return found
