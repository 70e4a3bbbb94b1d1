"""Shared fixtures for hand-built network states and for counting the
engine's calls."""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from wsnlife import engine
from wsnlife import (
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    NetworkState,
    Point,
    RadioParams,
    SensingParams,
    Site,
    deploy,
    distance,
    sink_reachable,
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
    """Deploy a NetworkState on a site holding the given positions, node 0
    the sink at positions[0], each battery whole quanta as deploy starts
    them.

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
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    area = area or DeploymentArea(max(xs) + 100.0, max(ys) + 100.0)
    site = Site(DeploymentConfig(node_count=len(positions), area=area), radio, sensing)
    # the given positions stand in for the ones the site would draw
    site.positions = [Point(x, y) for x, y in positions]
    state = deploy(site, energy)
    state.topology.active_set.update(active)
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


@contextmanager
def coverage_calls():
    """While open, record each sample's (site, sink-reachable set) in
    reaches and count the calls engine.sample_metrics makes to each
    coverage metric in calls; yields (reaches, calls)."""
    reaches: list = []
    calls: Counter = Counter()

    def reached(state):
        reach = sink_reachable(state)
        reaches.append((state.site, frozenset(reach)))
        return reach

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    with mock.patch.object(engine, "sink_reachable", reached), mock.patch.object(
        engine, "comm_coverage", counted("comm_coverage")
    ), mock.patch.object(engine, "sensing_coverage", counted("sensing_coverage")):
        yield reaches, calls
