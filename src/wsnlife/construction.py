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

from .errors import ConfigError
from .metrics import alive_count, sense_probabilities
from .model import SINK_ID, NetworkState, Topology, distance
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
    """One growth pass. Does not touch the state: it returns the tree,
    childless relays still active, and the control energy each node would
    spend, so callers can preview a construction.

    Every node a relay's hello reaches leaves `unvisited` before it is
    charged, so each node hears at most one hello and answers it once: it is
    scored and charged on its battery as the state holds it, every count in
    the charge is 1, and the charged nodes are the ones reached besides the
    sink. A candidate's distance is distance()'s hypot and its handshake
    costs rx_energy + tx_energy, both taken from hoisted terms with the
    same bits, in whole quanta. Each time the relays' queue drains, the
    lowest-id sleeping leaf linked to an unvisited node wakes as a relay;
    the growth ends when no such gateway is left. The charge lists the
    reached nodes in growth order."""
    nodes, links = state.nodes, state.site.links
    radio, energy = state.site.radio, state.energy
    radius = radio.communication_radius
    e_init = energy.initial_energy
    ew, dw = params.energy_weight, params.distance_weight
    control_bits = energy.control_packet_bits
    rx_cost = rx_energy(energy, control_bits)
    tx_elec, tx_amp = tx_coefficients(energy, control_bits)
    quantizer = QUANTIZER
    hypot = math.hypot

    spent: dict[int, float] = {}  # each reached node's control energy
    unvisited = {n.id for n in nodes if n.energy > 0.0}
    unvisited.discard(SINK_ID)
    unvisited -= exclude
    active = {SINK_ID}
    parent: dict[int, int] = {}
    queue = deque([SINK_ID])
    leaves: list[int] = []  # the sleeping leaves not yet rejected

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
                    leaves.append(cid)
        # Wake-up pass: a sleeping leaf may be the sole gateway to nodes the
        # relays never saw; promote the lowest-id such leaf and keep growing,
        # otherwise the tree would not dominate its disk-graph component.
        # The leaves shrink to the gateways, the ones linked to an unvisited
        # node, found from the smaller side: links are symmetric, so the
        # unvisited nodes' links hold every gateway. unvisited only shrinks,
        # so a leaf rejected once is rejected for good. A list holds them in
        # an eighth of a set's memory, and min() scans either.
        if len(unvisited) < len(leaves):
            near = set().union(*[links[u] for u in unvisited])
            leaves = [leaf for leaf in leaves if leaf in near]
        else:
            leaves = [leaf for leaf in leaves if not unvisited.isdisjoint(links[leaf])]
        if not leaves:
            break
        woken = min(leaves)
        leaves.remove(woken)
        active.add(woken)
        queue.append(woken)

    topology = Topology(active_set=active, parent=parent)
    charge = ConstructionCharge(sent=dict.fromkeys(spent, 1), energy=spent)
    return topology, charge


def _apply_charge(state: NetworkState, charge: ConstructionCharge) -> None:
    """Debit a growth's charge, in growth order. Each drain was clamped to
    the battery it was computed from, which nothing has touched since, so it
    is taken in full; a battery it empties dies. Every drain is whole quanta
    and the ledger stays under 2^53 of them, so the batteries, the ledger's
    sum and the death steps are the same bits in any order."""
    nodes = state.nodes
    ledger = state.energy_ledger
    for nid, drained in charge.energy.items():
        node = nodes[nid]
        node.energy -= drained
        ledger += drained
        if node.energy <= 0.0:
            state.kill(nid)
    state.energy_ledger = ledger


def _promote_for_sensing(state: NetworkState, topology: Topology) -> None:
    """Activate sleeping leaves whose own positions are not sensed with
    probability detection_threshold, under the site's sensing model, by the
    current active sensors. Each promotion joins as a leaf under its
    nearest linked active node, the least (distance, id), even a leaf that
    was attached before, and immediately counts as a sensor for the leaves
    tested after it.

    A test reads the sleeper's entry in site.sensors, built by
    _sensors on its first test in any run on the site, and folds the miss
    factors of the active ones in ascending id. Every factor left out is
    exactly 1.0, which changes no bit of the product, so the miss is the
    one a fold over every active sensor gives. A promotion attaches over
    the sleeper's entry in site.distances, its distances to its links,
    built on its first promotion on the site."""
    site = state.site
    threshold = site.sensing.detection_threshold
    distances, sensors = site.distances, site.sensors
    nodes, links, active = state.nodes, site.links, topology.active_set
    for sid in sorted(set(topology.parent) - active):
        if nodes[sid].energy <= 0.0:
            continue  # dead
        entry = sensors.get(sid)
        if entry is None:
            entry = sensors[sid] = _sensors(state, sid)
        miss = 1.0
        for aid, factor in entry:
            if aid in active:
                miss *= factor
        if 1.0 - miss >= threshold:
            continue
        dists = distances.get(sid)
        if dists is None:
            at = nodes[sid].position
            dists = distances[sid] = [distance(at, nodes[nid].position) for nid in links[sid]]
        near = [(d, aid) for aid, d in zip(links[sid], dists) if aid in active]
        if not near:
            continue  # no active node in range; cannot attach
        topology.parent[sid] = min(near)[1]
        active.add(sid)
        topology.coverage_promoted.add(sid)


def _sensors(state: NetworkState, sid: int) -> list[tuple[int, float]]:
    """Node sid's sensors under the site's sensing model with their miss
    factors, in ascending id: the non-sink nodes of sensing_links[sid],
    those within r + r_u, whose factor is not exactly 1.0. A sensor past
    r + r_u has a factor of exactly 1.0, so these are all that matter."""
    nodes, site = state.nodes, state.site
    at = nodes[sid].position
    near = [
        (nid, distance(at, nodes[nid].position))
        for nid in site.sensing_links[sid]
        if nid != SINK_ID
    ]
    probabilities = sense_probabilities(
        site.sensing, site.radio.sensing_radius, [d for _, d in near]
    )
    return [(nid, 1.0 - p) for (nid, _), p in zip(near, probabilities) if 1.0 - p != 1.0]


# An excluding growth that reaches under half of the alive nodes lifts its
# exclusion: better to reuse relays than to precompute a stump.
RELAX_REACH_FRACTION = 0.5


def construct(
    state: NetworkState,
    tc: TCProtocol,
    params: A3Params,
    exclude: frozenset[int] = frozenset(),
) -> tuple[Topology, ConstructionCharge]:
    """Build a reduced topology with the selected protocol, charge the
    control traffic to the batteries and return the finished tree.

    A growth that excludes nodes yet reaches fewer than
    RELAX_REACH_FRACTION of the alive nodes is grown again without the
    exclusion, and that growth is charged instead. Relays left without a
    child after the growth are demoted to sleeping leaves; demotion never
    detaches a child, so the active nodes left are the sink and the
    parents. A3Cov then promotes its sensing leaves under the site's
    sensing model.
    """
    if SINK_ID in exclude:
        raise ValueError("the sink cannot be excluded from construction")
    topology, charge = _grow(state, params, frozenset(exclude))
    reached = len(charge.energy) + 1  # the charged nodes and the sink
    if exclude and reached < RELAX_REACH_FRACTION * alive_count(state):
        topology, charge = _grow(state, params, frozenset())
    _apply_charge(state, charge)
    topology.active_set &= {SINK_ID, *topology.parent.values()}
    if tc is TCProtocol.A3COV:
        _promote_for_sensing(state, topology)
    return topology, charge
