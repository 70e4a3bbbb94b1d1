"""Reduced-topology builders.

A3 grows a connected dominating tree outward from the sink, selecting relay
children by a weighted score of residual energy and parent distance. A3Cov
then promotes sleeping leaves whose own positions the active sensors cannot
detect. Both run centrally but charge per-node control-message energy as if
the handshake messages were actually exchanged, so that rebuilding a
topology is never free.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush

from .errors import ConfigError
from .metrics import alive_count, sense_probabilities
from .model import NetworkState, Topology
from .radio import QUANTIZER, rx_energy, tx_coefficients


class TCProtocol(Enum):
    A3 = "A3"
    A3COV = "A3Cov"


@dataclass(frozen=True)
class A3Params:
    """Relay selection weights. The score of a candidate at distance d from
    its prospective parent is
    energy_weight * (residual / initial) + distance_weight * (d / radius),
    favoring well-charged candidates that extend the tree far."""

    energy_weight: float = 0.5
    distance_weight: float = 0.5

    def __post_init__(self):
        for name in ("energy_weight", "distance_weight"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(name, "must lie in [0, 1]")
        if abs(self.energy_weight + self.distance_weight - 1.0) > 1e-9:
            raise ConfigError("distance_weight", "weights must sum to 1")


@dataclass
class ConstructionCharge:
    """Per-node control traffic accounted during one construction."""

    sent: dict[int, int] = field(default_factory=dict)
    energy: dict[int, float] = field(default_factory=dict)


def _grow(
    state: NetworkState, params: A3Params, exclude: frozenset[int]
) -> tuple[Topology, ConstructionCharge]:
    """One growth pass. Does not touch the state: it returns the tree and
    the control energy each node would spend, so callers can preview a
    construction.

    Every node a relay's hello reaches leaves `unvisited` before it is
    charged, so each node hears at most one hello and answers it once: it is
    scored and charged on its battery as the state holds it, every count in
    the charge is 1, and the charged nodes are the ones reached besides the
    sink. A candidate's distance is distance()'s hypot and its handshake
    costs rx_energy + tx_energy, both taken from hoisted terms with the
    same bits, in whole quanta."""
    nodes, links = state.nodes, state.links
    radio, energy = state.radio, state.energy
    radius = radio.communication_radius
    e_init = energy.initial_energy
    ew, dw = params.energy_weight, params.distance_weight
    control_bits = energy.control_packet_bits
    rx_cost = rx_energy(energy, control_bits)
    tx_elec, tx_amp = tx_coefficients(energy, control_bits)
    quantizer = QUANTIZER
    hypot = math.hypot
    sink = state.sink.id

    spent: dict[int, float] = {}  # each reached node's control energy
    unvisited = {
        n.id
        for n in nodes
        if n.energy > 0.0 and n.id != sink and n.id not in exclude
    }
    active = {sink}
    parent: dict[int, int] = {}
    queue = deque([sink])
    leaves: list[int] = []  # a heap of the sleeping leaves not yet rejected

    while True:
        while queue:
            pid = queue.popleft()
            heard = unvisited.intersection(links[pid])
            if not heard:
                continue
            unvisited -= heard
            ppos = nodes[pid].position
            px, py = ppos.x, ppos.y
            candidates = []
            for cid in heard:
                node = nodes[cid]
                pos = node.position
                d = hypot(px - pos.x, py - pos.y)
                e = node.energy
                candidates.append((-(ew * e / e_init + dw * d / radius), cid, d, e))
            candidates.sort()  # best score first; ids are unique, so ties go by id
            appointed: set[int] = set()
            for _, cid, d, e in candidates:
                # The candidate hears one hello and answers with its score.
                cost = rx_cost + ((tx_elec + tx_amp * d**2 + quantizer) - quantizer)
                drained = e if e < cost else cost
                spent[cid] = drained
                if e - drained <= 0.0:
                    continue  # drained dry by the handshake; never attached
                parent[cid] = pid
                # A relay unless one appointed before it here is in radio
                # range; a covered candidate sleeps.
                if appointed.isdisjoint(links[cid]):
                    appointed.add(cid)
                    active.add(cid)
                    queue.append(cid)
                else:
                    heappush(leaves, cid)
        # Wake-up pass: a sleeping leaf may be the sole gateway to nodes the
        # relays never saw; promote the lowest-id such leaf and keep growing,
        # otherwise the tree would not dominate its disk-graph component.
        # unvisited only shrinks, so a leaf rejected once is rejected for good.
        while leaves and unvisited.isdisjoint(links[leaves[0]]):
            heappop(leaves)
        if not leaves:
            break
        woken = heappop(leaves)
        active.add(woken)
        queue.append(woken)

    topology = Topology(active_set=active, parent=parent, root=sink)
    charge = ConstructionCharge(sent=dict.fromkeys(spent, 1), energy=spent)
    return topology, charge


def _apply_charge(state: NetworkState, charge: ConstructionCharge) -> None:
    """Debit a growth's charge, in ascending id. Each drain was clamped to
    the battery it was computed from, which nothing has touched since, so it
    is taken in full; a battery it empties dies."""
    nodes = state.nodes
    ledger = state.energy_ledger
    for nid in sorted(charge.energy):
        drained = charge.energy[nid]
        node = nodes[nid]
        node.energy -= drained
        ledger += drained
        if node.energy <= 0.0:
            state.kill(nid)
    state.energy_ledger = ledger


def prune_childless(topology: Topology) -> Topology:
    """Demote active non-sink nodes with no attached children back to
    sleeping leaves. Coverage-promoted nodes are kept. Demotion never
    detaches a child, so one pass over the parents reaches the fixpoint:
    the kept nodes are the active ones that are a parent, the root or
    promoted."""
    kept = set(topology.parent.values())
    kept.add(topology.root)
    kept |= topology.coverage_promoted
    return Topology(
        active_set=topology.active_set & kept,
        parent=dict(topology.parent),
        root=topology.root,
        activation_time=topology.activation_time,
        activation_energy=dict(topology.activation_energy),
        coverage_promoted=set(topology.coverage_promoted),
    )


def _promote_for_sensing(state: NetworkState, topology: Topology, sp) -> None:
    """Activate sleeping leaves whose own positions are not sensed with
    probability detection_threshold by the current active sensors. Each
    promotion joins as a leaf under the nearest linked active node and
    immediately counts as a sensor for the leaves tested after it.

    A sensor past r + r_u contributes a factor of exactly 1.0 to the miss
    product, so while that band lies within the radio range the sleeper's
    links hold every sensor that matters, and every active node near it is
    one it can attach to. Distances are distance()'s hypot with the same
    bits; the miss factors are folded in ascending id."""
    r = state.radio.sensing_radius
    radius = state.radio.communication_radius
    in_links = r + sp.uncertainty_radius <= radius
    nodes, active, root = state.nodes, topology.active_set, topology.root
    hypot = math.hypot
    sleepers = sorted(set(topology.parent) - active)
    for sid in sleepers:
        node = nodes[sid]
        if node.energy <= 0.0:
            continue  # dead
        links = state.links[sid]
        pool = links if in_links else sorted(active)
        sx, sy = node.position.x, node.position.y
        near = []
        for aid in pool:
            if aid in active:
                pos = nodes[aid].position
                near.append((hypot(sx - pos.x, sy - pos.y), aid))
        # the sink collects, it does not sense
        sensed = [d for d, aid in near if aid != root]
        miss = 1.0
        for p in sense_probabilities(sp, r, sensed):
            miss *= 1.0 - p
        if 1.0 - miss >= sp.detection_threshold:
            continue
        if not in_links:
            near = [(d, aid) for d, aid in near if aid in links]
        if not near:
            continue  # no active node in range; cannot attach
        topology.parent[sid] = min(near)[1]
        active.add(sid)
        topology.coverage_promoted.add(sid)


def construct(
    state: NetworkState,
    tc: TCProtocol,
    params: A3Params,
    sensing=None,
    exclude: frozenset[int] = frozenset(),
    relax_below: float | None = None,
) -> tuple[Topology, ConstructionCharge]:
    """Build a reduced topology with the selected protocol and charge the
    control traffic to the batteries.

    relax_below, when set, lifts the exclusion set if the excluded growth
    reaches fewer than that fraction of the alive nodes; rotation-set
    precomputation uses it to allow relay reuse in sparse networks.
    """
    if state.sink.id in exclude:
        raise ValueError("the sink cannot be excluded from construction")
    if tc is TCProtocol.A3COV and sensing is None:
        raise ValueError("A3Cov requires sensing parameters")
    grown, charge = _grow(state, params, frozenset(exclude))
    reached = len(charge.energy) + 1  # the charged nodes and the sink
    if relax_below is not None and reached < relax_below * alive_count(state):
        grown, charge = _grow(state, params, frozenset())
    _apply_charge(state, charge)
    topology = prune_childless(grown)
    if tc is TCProtocol.A3COV:
        _promote_for_sensing(state, topology, sensing)
    return topology, charge
