"""Topology maintenance: trigger policies and the rotation / recreation /
hybrid replacement strategies behind the six named protocols.

Naming follows the usual maintenance taxonomy: D/H/S for dynamic, hybrid,
static; G for global (the sink coordinates network-wide, no local repair);
ET/TT for energy- and time-triggered; Rec/Rot for recreation and rotation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .construction import A3Params, TCProtocol, construct
from .errors import ConfigError
from .model import SINK_ID, NetworkState, Topology
from .radio import QUANTUM


class TriggerKind(Enum):
    TIME = "time"
    ENERGY = "energy"


class StrategyKind(Enum):
    STATIC_ROTATION = "static-rotation"
    DYNAMIC_RECREATION = "dynamic-recreation"
    HYBRID = "hybrid-recreation-rotation"


class TMProtocol(Enum):
    DGETREC = "DGETRec"
    HGETRECROT = "HGETRecRot"
    SGETROT = "SGETRot"
    DGTTREC = "DGTTRec"
    HGTTRECROT = "HGTTRecRot"
    SGTTROT = "SGTTRot"

    @property
    def trigger_kind(self) -> TriggerKind:
        return TriggerKind.ENERGY if "GET" in self.value else TriggerKind.TIME

    @property
    def strategy_kind(self) -> StrategyKind:
        head = self.value[0]
        if head == "D":
            return StrategyKind.DYNAMIC_RECREATION
        if head == "H":
            return StrategyKind.HYBRID
        return StrategyKind.STATIC_ROTATION


@dataclass(frozen=True)
class TriggerPolicy:
    """When to replace the reduced topology.

    Time-triggered: after `period` steps since activation. Energy-triggered:
    as soon as any active non-sink node drops below `energy_threshold` times
    the energy it had at activation, or dies outright. Comparing against
    activation-time energy (not the initial budget) re-arms the trigger at
    every activation. Once a static rotation set is spent, the run logs one
    "Exhausted" and the trigger stays off for the rest of it (see armed).
    """

    kind: TriggerKind
    period: int = 500
    energy_threshold: float = 0.6

    def __post_init__(self):
        if self.period < 1:
            raise ConfigError("period", "must be at least 1 step")
        if not 0 < self.energy_threshold < 1:
            raise ConfigError("energy_threshold", "must lie strictly between 0 and 1")


@dataclass
class MaintenanceStrategy:
    kind: StrategyKind
    rotation_set: list[Topology] = field(default_factory=list)
    cursor: int = 0
    events: list[tuple[int, str]] = field(default_factory=list)


def should_trigger(policy: TriggerPolicy, state: NetworkState) -> bool:
    topology = state.topology
    if policy.kind is TriggerKind.TIME:
        return steps_to_time_trigger(policy, state) <= 0
    nodes = state.nodes
    for nid in topology.active_set:
        if nid != SINK_ID and nodes[nid].energy < energy_floor(policy, topology, nid):
            return True
    return False


def steps_to_time_trigger(policy: TriggerPolicy, state: NetworkState) -> int:
    """How many steps, the current one included, the time trigger stays off."""
    return state.topology.activation_time + policy.period - state.time


def energy_floor(policy: TriggerPolicy, topology: Topology, nid: int) -> float:
    """The one home of the energy trigger's trip level for active node nid,
    which should_trigger and the engine's look-ahead both compare with: the
    threshold times its activation energy, raised to whole quanta and at
    least one. A battery of whole quanta is under it exactly when it is
    under the product or empty, a dead member; raising is exact, as
    1 / QUANTUM is a power of two."""
    product = policy.energy_threshold * topology.activation_energy[nid]
    return math.ceil(product / QUANTUM) * QUANTUM or QUANTUM  # only 0.0 raises to 0


def armed(strategy: MaintenanceStrategy | None) -> bool:
    """False without maintenance, and once a static strategy has logged
    "Exhausted": its entries only ever lose nodes, so none becomes usable
    again, and the trigger stays off for the rest of the run."""
    return strategy is not None and not (
        strategy.events and strategy.events[-1][1] == "Exhausted"
    )


def activate_topology(state: NetworkState, topology: Topology) -> None:
    """Install a topology: stamp the activation clock and energy snapshot.
    The installed topology is the one record of which nodes are awake: its
    active set's members relay and sense, and every other node sleeps."""
    topology.activation_time = state.time
    topology.activation_energy = {
        nid: state.nodes[nid].energy for nid in sorted(topology.active_set)
    }
    state.topology = topology


def precompute_rotation_set(
    state: NetworkState,
    tc: TCProtocol,
    k: int,
    params: A3Params,
) -> list[Topology]:
    """Build k alternative topologies up front, each excluding the awake
    nodes of the entries before it so rotations drain different nodes; an
    entry whose exclusion would leave a stump reuses them (see construct).
    Construction energy for all k is charged here, at precomputation time."""
    if k < 1:
        raise ValueError("rotation set size must be at least 1")
    if state.time != 0:
        raise ValueError("rotation sets are precomputed on a fresh deployment")
    topologies: list[Topology] = []
    exclude: set[int] = set()
    for _ in range(k):
        topology, _charge = construct(state, tc, params, frozenset(exclude))
        topologies.append(topology)
        exclude |= topology.active_set - {SINK_ID}
    return topologies


def _next_usable(strategy: MaintenanceStrategy, state: NetworkState) -> int | None:
    """Next rotation entry, scanning cyclically from the cursor, whose
    non-sink members are all alive; wraps back to the cursor itself."""
    nodes = state.nodes
    k = len(strategy.rotation_set)
    for offset in range(1, k + 1):
        idx = (strategy.cursor + offset) % k
        candidate = strategy.rotation_set[idx]
        if all(nodes[nid].alive for nid in candidate.active_set if nid != SINK_ID):
            return idx
    return None


def maintain(
    strategy: MaintenanceStrategy,
    state: NetworkState,
    tc: TCProtocol,
    params: A3Params,
) -> tuple[Topology, str]:
    """Replace the reduced topology after a trigger fired.

    Returns the installed topology and what happened: "Rotated" or
    "Recreated", which re-stamp the activation clock and snapshot and so
    re-arm the trigger, or "Exhausted": a static set with no usable entry
    changes no state, and its trigger stays off from then on (see armed).
    """
    idx = None
    if strategy.kind is not StrategyKind.DYNAMIC_RECREATION:
        idx = _next_usable(strategy, state)
    if idx is not None:
        strategy.cursor = idx
        topology = strategy.rotation_set[idx]
        action = "Rotated"
    elif strategy.kind is StrategyKind.STATIC_ROTATION:
        return state.topology, "Exhausted"
    else:  # dynamic always rebuilds; hybrid once its set is spent
        topology, _ = construct(state, tc, params)
        if strategy.kind is StrategyKind.HYBRID:
            strategy.rotation_set = [topology]
            strategy.cursor = 0
        action = "Recreated"
    activate_topology(state, topology)
    return topology, action
