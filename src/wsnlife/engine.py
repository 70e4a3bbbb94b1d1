"""Time-stepped lifetime loop.

Each step runs, in order: data traffic over the active tree, the
maintenance trigger check (and maintenance itself when it fires), the clock
advance, and metric sampling when due. A node dies the moment its battery
is drained. One data round per step; the link layer is lossless, so node
death is the only loss mechanism, and idle listening costs nothing.

A node is alive exactly while its battery holds energy, so every liveness
test reads the battery, and a drain that empties one calls
NetworkState.kill to record the death step. Each tree caches its data round
compiled over an alive set; a node that has died since has an empty
battery, which drives its residual under the program to zero or below, so
the step runs hop by hop and the next one recompiles. A compiled round is
the packets each relay pays for, counted in one pass over the tree children
first; the drains a relay takes, and the ledger's in hop order, are built
from those counts only when a step reads them.

run() does not step through quiet stretches one at a time: steps on which
no node dies and the trigger stays off (or, once a static rotation set is
spent, fires only to re-stamp). There each battery and the ledger take the
same drains every step, and _fast_forward moves them over the whole stretch
at once with the same bits. Inside a binade of doubles every result of a
subtraction or addition is rounded to one grid, so the same drains move a
value by the same number of grid steps every time, unless a drain lies
exactly halfway between two grid steps. A run of such moves is one exact
multiply-add, and every other step is computed as it stands. Every
eventful step goes through step(). A stretch runs through sample points:
no alive set, role or position changes inside it, so one sample taken at
its end stands for every stride point it crosses.

A stretch, and the compiled round of a step, is one _jump. The grid steps
of a round are counted from each relay's packets instead of found by a
reduce over its drains: numpy finds at once every relay that stays inside
its binade and above its floor, moves those by one exact multiply-add
each, and leaves only the rest to _advance; the ledger's move is the sum
of theirs, taken in its own grid. So a round builds the drains of the
relays it walks, and the hop order only at the ledger's binade edges and
ties.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, sub

import numpy as np

from .construction import A3Params, TCProtocol, construct
from .deployment import DeploymentConfig, deploy
from .errors import ConfigError
from .maintenance import (
    MaintenanceStrategy,
    StrategyKind,
    TMProtocol,
    TriggerKind,
    TriggerPolicy,
    activate_topology,
    energy_floor,
    maintain,
    precompute_rotation_set,
    retain,
    retains_every_step,
    should_trigger,
    steps_to_time_trigger,
)
from .metrics import (
    MAX_GRID_POINTS,
    CoverageGrid,
    MetricsSample,
    alive_count,
    comm_coverage,
    grid_shape,
    sensing_coverage,
    sink_reachable,
)
from .model import EnergyParams, NetworkState, Node, RadioParams, Role, SensingParams
from .radio import rx_energy, tx_coefficients


@dataclass(frozen=True)
class SimConfig:
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    radio: RadioParams = field(default_factory=RadioParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    sensing: SensingParams = field(default_factory=SensingParams)
    a3: A3Params = field(default_factory=A3Params)
    tc: TCProtocol = TCProtocol.A3
    tm: TMProtocol | None = TMProtocol.DGETREC
    trigger: TriggerPolicy = field(
        default_factory=lambda: TriggerPolicy(TriggerKind.ENERGY)
    )
    rotation_k: int = 3
    grid_cell: float = 4.0
    max_steps: int = 5000
    metrics_stride: int = 50


@dataclass
class RunResult:
    series: list[MetricsSample]
    death_times: dict[int, int]
    maintenance_events: list[tuple[int, str]]
    final_summary: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "series": [
                [s.time, s.alive, s.sink_reachable, s.comm_coverage, s.sensing_coverage]
                for s in self.series
            ],
            "death_times": {str(k): v for k, v in sorted(self.death_times.items())},
            "maintenance_events": list(self.maintenance_events),
            "final_summary": dict(self.final_summary),
        }


def validate_config(config: SimConfig) -> None:
    """The pre-run error check on top-level and cross-field values; each
    sub-config checks its own fields on construction."""
    for name in ("rotation_k", "max_steps", "metrics_stride"):
        if getattr(config, name) < 1:
            raise ConfigError(name, "must be at least 1")
    if not 0 < config.grid_cell < math.inf:
        raise ConfigError("grid_cell", "must be positive and finite")
    try:
        nx, ny = grid_shape(config.deployment.area, config.grid_cell)
    except OverflowError:  # the cell count is not even finite
        nx = ny = MAX_GRID_POINTS
    if nx * ny > MAX_GRID_POINTS:
        raise ConfigError(
            "grid_cell", f"gives {nx * ny} coverage points, over {MAX_GRID_POINTS}"
        )
    if config.sensing.uncertainty_radius >= config.radio.sensing_radius:
        raise ConfigError(
            "sensing.uncertainty_radius",
            "must be smaller than the sensing radius",
        )
    if config.tm is not None and config.trigger.kind is not config.tm.trigger_kind:
        raise ConfigError(
            "trigger.kind",
            f"{config.tm.value} requires a {config.tm.trigger_kind.value}-triggered policy",
        )


def initialize(config: SimConfig) -> tuple[NetworkState, MaintenanceStrategy | None]:
    """Deploy, build the first reduced topology (plus the rotation set for
    static and hybrid strategies), and activate it at time zero."""
    validate_config(config)
    state = deploy(config.deployment, config.radio, config.energy)
    strategy: MaintenanceStrategy | None = None
    if config.tm is None:
        topology, _ = construct(state, config.tc, config.a3, config.sensing)
    else:
        kind = config.tm.strategy_kind
        if kind is StrategyKind.DYNAMIC_RECREATION:
            topology, _ = construct(state, config.tc, config.a3, config.sensing)
            strategy = MaintenanceStrategy(kind)
        else:
            rotation = precompute_rotation_set(
                state, config.tc, config.rotation_k, config.a3, config.sensing
            )
            topology = rotation[0]
            strategy = MaintenanceStrategy(kind, rotation_set=rotation)
    activate_topology(state, topology)
    return state, strategy


@dataclass(eq=False)
class RoundProgram:
    """A tree's data round compiled over one alive set, as packet counts,
    valid while every node it charges is alive. nodes holds the charged
    relays in ascending id; in their order, carried the packets each pays
    for (its own and those it relays) and tx its transmit cost; rx is the
    receive cost, so a relay's drains are carried - 1 receive costs and
    carried transmit costs. delivered and dropped are the packets the round
    delivers and drops. counts maps each relay's id to its carried count,
    so its keys are the alive set. per_round is each relay's drain over one
    round, (carried - 1) * rx + carried * tx, the denominator of _jump's
    estimates.

    The drains themselves are built only when read, and kept: each relay's
    in order (relay_drains) and every drain in hop order, the ledger's
    additions (drains)."""

    nodes: list[Node]
    carried: np.ndarray
    tx: np.ndarray
    rx: float
    delivered: int
    dropped: int
    tree: Tree
    counts: dict[int, int]
    per_round: np.ndarray = field(init=False, repr=False)
    relay_costs: list[list[float] | None] = field(init=False, repr=False)
    hop_order: list[float] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.per_round = (self.carried - 1.0) * self.rx + self.carried * self.tx
        self.relay_costs = [None] * len(self.nodes)

    def relay_drains(self, j: int) -> list[float]:
        """The drains of relay j (in the order of nodes), in hop order."""
        costs = self.relay_costs[j]
        if costs is None:
            costs = self.relay_costs[j] = _relay_drains(self, j)
        return costs

    def drains(self) -> list[float]:
        """Every drain of the round in hop order."""
        if self.hop_order is None:
            self.hop_order = _hop_order_drains(self)
        return self.hop_order


@dataclass(eq=False)
class Tree:
    """An installed tree's shape: for each traffic origin, in ascending id,
    its parent hop with the precomputed transmit cost; the origins children
    first, each after its subtree; and each node's children in ascending
    id."""

    edges: dict[int, tuple[int, float]]
    upward: list[int]
    children: dict[int, list[int]]


@dataclass
class Routes:
    """Per-topology routing cache: the tree, and its round compiled over
    the latest alive set (one at a time)."""

    tree: Tree
    program: RoundProgram | None = None


def _routes(state: NetworkState) -> Routes:
    """The installed tree's routing cache, built on its first step. Each
    edge's transmit cost is tx_energy's, from its hoisted terms."""
    topology = state.topology
    if topology.route_cache is not None:
        return topology.route_cache
    nodes = state.nodes
    elec, amp = tx_coefficients(state.energy, state.energy.data_packet_bits)
    origins = sorted(topology.active_set - {topology.root})
    edges: dict[int, tuple[int, float]] = {}
    children: dict[int, list[int]] = {}
    for nid in origins:
        parent = topology.parent[nid]
        here, there = nodes[nid].position, nodes[parent].position
        dx = here.x - there.x
        dy = here.y - there.y
        # Must not become distance(): hypot differs on 23,418 of 141,742 pairs.
        hop = (dx * dx + dy * dy) ** 0.5
        edges[nid] = (parent, elec + amp * hop**2)
        children.setdefault(parent, []).append(nid)
    downward = []  # depth first, each node before its subtree
    stack = list(children.get(topology.root, ()))
    while stack:
        nid = stack.pop()
        downward.append(nid)
        stack += children.get(nid, ())
    topology.route_cache = Routes(Tree(edges, downward[::-1], children))
    return topology.route_cache


def _compile_round(state: NetworkState, routes: Routes) -> RoundProgram:
    """The round of _per_hop_round over the current alive set, as counts.

    A node's packet costs its own transmit drain, then, while the next hop
    is an alive relay, that relay's receive and transmit drains; it is
    delivered when it reaches the sink and dropped at a dead hop. So an
    alive node pays for its own packet and for every packet of its alive
    subtree, which one pass children first counts: each alive node adds
    its count to its parent's, or to the delivered packets at the sink."""
    nodes = state.nodes
    tree = routes.tree
    edges = tree.edges
    sink = state.sink.id
    counts: dict[int, int] = {}
    delivered = 0
    for nid in tree.upward:
        if nodes[nid].energy > 0.0:
            count = counts[nid] = counts.get(nid, 0) + 1
            parent = edges[nid][0]
            if parent == sink:
                delivered += count
            elif nodes[parent].energy > 0.0:
                counts[parent] = counts.get(parent, 0) + count
    ids = sorted(counts)
    return RoundProgram(
        [nodes[nid] for nid in ids],
        np.array([counts[nid] for nid in ids], dtype=np.float64),
        np.array([edges[nid][1] for nid in ids]),
        rx_energy(state.energy, state.energy.data_packet_bits),
        delivered,
        len(ids) - delivered,
        tree,
        counts,
    )


def _relay_drains(program: RoundProgram, j: int) -> list[float]:
    """Relay j's drains in hop order. The round drains the paths of the
    alive origins in ascending id, so the relay spends [tx] on its own
    packet and [rx, tx] on each packet it carries, in the order of their
    senders: `below` packets from the lower ids of its alive subtree before
    its own and the rest after it. Its alive subtree is walked down the
    children lists through the ids in counts, the alive set: a dead child
    stops the packets of its whole subtree, so the walk skips it."""
    nid = program.nodes[j].id
    counts, children = program.counts, program.tree.children
    below = 0
    stack = [nid]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child in counts:
                below += child < nid
                stack.append(child)
    tx_cost = program.tree.edges[nid][1]
    carry = [program.rx, tx_cost]
    return carry * below + [tx_cost] + carry * (counts[nid] - 1 - below)


def _hop_order_drains(program: RoundProgram) -> list[float]:
    """Every drain of the round in hop order: the path of each alive origin
    in ascending id, where a node's path is [tx], then [rx] and its
    parent's path while the parent is an alive relay. Built parents first,
    so each path is built once, from its parent's."""
    counts, edges, rx_cost = program.counts, program.tree.edges, program.rx
    paths: dict[int, list[float]] = {}
    for nid in reversed(program.tree.upward):
        if nid in counts:
            parent, tx_cost = edges[nid]
            paths[nid] = [tx_cost, rx_cost] + paths[parent] if parent in paths else [tx_cost]
    drains: list[float] = []
    for node in program.nodes:
        drains += paths[node.id]
    return drains


def _program(state: NetworkState, routes: Routes) -> RoundProgram:
    """The installed tree's round, compiled over the current alive set if
    the last one was dropped."""
    if routes.program is None:
        routes.program = _compile_round(state, routes)
    return routes.program


def _traffic(state: NetworkState) -> None:
    """Every alive active node sends one data packet up the tree.

    On a step where no node dies the round is the same sequence of exact
    subtractions every time, so it runs as the compiled program, one round
    of _jump. A drain's result never exceeds the energy it was taken from,
    so a final energy above zero means every drain on the way was taken in
    full: the clamp never bit, nobody died, and each node's subtractions
    and the ledger's additions are the per-hop round's own, in its order. A
    node killed since the program was compiled has energy 0.0, so it fails
    the same test. Otherwise the per-hop round runs on the untouched state,
    and the next step compiles over the alive set it leaves."""
    routes = _routes(state)
    program = _program(state, routes)
    floors = [_DEATH_FLOOR] * len(program.nodes)
    rounds, energies, ledger = _jump(program, floors, 1, state.energy_ledger)
    if rounds == 0:
        _per_hop_round(state, routes)
        routes.program = None
        return
    _apply_rounds(state, program, rounds, energies, ledger)


def _apply_rounds(
    state: NetworkState,
    program: RoundProgram,
    rounds: int,
    energies: list[float],
    ledger: float,
) -> None:
    """Record `rounds` rounds of program that _jump computed."""
    for node, energy in zip(program.nodes, energies):
        node.energy = energy
    state.energy_ledger = ledger
    state.packets_delivered += rounds * program.delivered
    state.packets_dropped += rounds * program.dropped


def _per_hop_round(state: NetworkState, routes: Routes) -> None:
    """The data round hop by hop. Senders pay the transmit cost, receivers
    the receive cost; a node that dies mid-step drops the packet at the
    point of death and handles nothing further.

    Each drain follows the battery rule: it is clamped to the residual,
    debited and added to the ledger, and a battery drained to zero is a
    death, recorded by NetworkState.kill. A dead node is never drained, and
    the sink's battery is never drawn."""
    edges = routes.tree.edges
    rx_cost = rx_energy(state.energy, state.energy.data_packet_bits)
    sink = state.sink.id
    nodes = state.nodes
    ledger = state.energy_ledger
    delivered = dropped = 0
    for origin in edges:  # ascending id
        sender = nodes[origin]
        battery = sender.energy
        if battery <= 0.0:
            continue  # dead nodes generate nothing
        current = origin
        while True:
            parent, tx_cost = edges[current]
            drained = tx_cost if tx_cost < battery else battery
            battery -= drained
            sender.energy = battery
            ledger += drained
            if battery <= 0.0:
                state.kill(current)
                dropped += 1  # died mid-transmission
                break
            if parent == sink:
                # The sink is mains powered; its receive cost is not metered.
                delivered += 1
                break
            receiver = nodes[parent]
            battery = receiver.energy
            if battery <= 0.0:
                dropped += 1  # transmitted into a dead hop
                break
            drained = rx_cost if rx_cost < battery else battery
            battery -= drained
            # left unstored: the receiver's transmit next stores it, or kill zeroes it
            ledger += drained
            if battery <= 0.0:
                state.kill(parent)
                dropped += 1  # died receiving
                break
            current, sender = parent, receiver
    state.energy_ledger = ledger
    state.packets_delivered += delivered
    state.packets_dropped += dropped


# A residual below the least positive double is at most zero: a death.
_DEATH_FLOOR = math.ulp(0.0)
# The grid steps from the bottom of a binade of doubles to its top.
_BINADE_STEPS = 1 << 52
# The bottom of the lowest binade whose grid step g has a finite 1/g.
_CLOSED_FORM_MIN = math.ldexp(0.5, -970)


def _advance(
    x: float, costs: list[float], steps: int, floor: float = -math.inf
) -> tuple[int, float]:
    """Replace a battery x by reduce(sub, costs, x) up to `steps` times,
    stopping before the first result below floor; return how many were
    applied and the value. The costs are positive.

    In the binade [lo, 2lo) every double is a multiple of g = ulp(lo). So a
    correctly rounded x - c or x + c whose exact value lies in it is
    x -/+ g*round(c/g), unless c/g is a half-integer: a tie, which rounds to
    the even neighbour and so depends on x. While no cost is a tie and every
    result stays in the binade with a grid step to spare, each application
    therefore moves x by the same multiple of g, and k of them are one exact
    multiply-add. Any other application (across a binade edge, on a tie, in
    a binade so low that 1/g overflows, or the last one) is computed as it
    stands. _safe_rounds and _ledger_after count the same moves from
    packets.
    """
    done = 0
    distinct = None
    while done < steps:
        y = reduce(sub, costs, x)
        if y < floor:
            break
        done += 1
        if steps - done > 1 and x >= _CLOSED_FORM_MIN:
            if distinct is None:
                distinct = set(costs)
            exponent = math.frexp(x)[1]
            lo = math.ldexp(0.5, exponent)
            per_g = math.ldexp(1.0, 53 - exponent)  # 1 / g, a power of two
            place = (y - lo) * per_g  # y's grid steps above lo
            if 1.0 <= place < _BINADE_STEPS and not any(
                (c * per_g) % 1.0 == 0.5 for c in distinct
            ):
                place = int(place)
                drop = int((x - y) * per_g)  # exact: both on the grid
                k = steps - done
                if drop > 0:
                    bottom = 1
                    if floor > lo:  # on the grid too, as floor <= y
                        bottom = max(bottom, int((floor - lo) * per_g))
                    k = (place - bottom) // drop
                k = min(k, steps - done)
                y += k * (y - x)
                done += k
        x = y
    return done, x


def _grid_units(cost, lo, per_g):
    """Each cost in grid steps of the binade at lo, rounded to the nearest
    step, and whether it is a tie. A cost of a binade's width 2^52 steps or
    more counts as 2^52 steps, so every count is an exact double; costs and
    binades broadcast as numpy arrays or scalars."""
    units = np.minimum(cost, lo) * per_g
    return np.rint(units), units % 1.0 == 0.5


def _safe_rounds(
    program: RoundProgram, x: np.ndarray, floors: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """For each relay, at energy x, how many rounds of program surely move
    it by the same grid steps each time, leaving it inside its binade with a
    grid step to spare and at or above its floor; and the drop of one such
    round. A round moves it by (carried - 1) * round(rx/g) +
    carried * round(tx/g) steps when neither cost is a tie and the move is
    under the binade's width. Elsewhere (and below _CLOSED_FORM_MIN) the
    relay has no safe round and must be walked."""
    exponent = np.frexp(np.maximum(x, _CLOSED_FORM_MIN))[1]
    lo = np.ldexp(0.5, exponent)
    per_g = np.ldexp(1.0, 53 - exponent)  # 1 / g, a power of two
    carried = program.carried
    rx_units, rx_tie = _grid_units(program.rx, lo, per_g)
    tx_units, tx_tie = _grid_units(program.tx, lo, per_g)
    move = (carried - 1.0) * rx_units + carried * tx_units
    exact = (x >= _CLOSED_FORM_MIN) & ~(rx_tie | tx_tie) & (move < _BINADE_STEPS)
    # Grid steps above lo: the battery's, and its floor's rounded up. A floor
    # above x allows no round; one below lo leaves the spare step the bound.
    place = (x - lo) * per_g
    bottom = np.maximum(1.0, np.ceil((np.minimum(floors, x) - lo) * per_g))
    spare = np.where(exact, place - bottom, -1.0)
    safe = np.where(move > 0.0, spare // np.maximum(move, 1.0), np.inf)
    return np.where(spare >= 0.0, safe, 0.0), move / per_g


def _ledger_after(program: RoundProgram, ledger: float, rounds: int) -> float:
    """The ledger after `rounds` rounds of program's drains in hop order,
    one reduce(add) per round, bit for bit. Inside a binade the additions
    move it by whole grid steps, as _advance's subtractions move a battery,
    so each binade's move per round is counted from the relays' packets:
    reduce runs only on the rounds that cross a binade edge, meet a tie or
    start below _CLOSED_FORM_MIN."""
    carried, tx = program.carried, program.tx
    receives = float(carried.sum()) - len(program.nodes)
    done = 0
    while done < rounds:
        k = 0
        if ledger >= _CLOSED_FORM_MIN:
            exponent = math.frexp(ledger)[1]
            lo = math.ldexp(0.5, exponent)
            per_g = math.ldexp(1.0, 53 - exponent)
            rx_units, rx_tie = _grid_units(program.rx, lo, per_g)
            tx_units, tx_tie = _grid_units(tx, lo, per_g)
            move = float(receives * rx_units + carried @ tx_units)
            if not (rx_tie or tx_tie.any()) and move < _BINADE_STEPS:
                k = rounds - done
                if move > 0.0:
                    place = (ledger - lo) * per_g
                    k = min(k, int((_BINADE_STEPS - 1 - place) // move))
        if k > 0:
            ledger += k * move / per_g
            done += k
        else:
            ledger = reduce(add, program.drains(), ledger)
            done += 1
    return ledger


def _jump(
    program: RoundProgram, floors: list[float], rounds: int, ledger: float
) -> tuple[int, list[float], float]:
    """Up to `rounds` rounds of program, stopping before the first round
    that would leave a relay under its floor: the rounds taken, each relay's
    energy after them (in the order of program.nodes) and the ledger's.
    The values are those of reduce applied round by round, bit for bit. The
    state is not changed; no round is taken when the first one fails.

    Relays are independent of each other, so each is walked by _advance, as
    far as the first round that would leave it under its floor. The relay
    with the least estimated limit, energy above the floor over the round's
    drains, is walked first. Once it has taken a round, a numpy pre-pass
    (_safe_rounds) finds the relays that surely last the rounds in grid
    steps, and applies them as one exact x - n*M*g; only the others are
    walked, in ascending order of their estimates, so the first walks bound
    the later ones and a relay is rarely walked twice. The limit is the
    least one whatever the order. The first walk goes before the pre-pass
    because a round on which some relay dies usually fails it. The ledger
    moves by _ledger_after."""
    nodes, costs = program.nodes, program.relay_drains
    if not nodes:
        return rounds, [], ledger  # nothing drains
    energies = [node.energy for node in nodes]
    x = np.array(energies)
    estimates = (x - floors) / program.per_round
    n = rounds
    walked = []
    limits = None  # each relay's safe rounds, once the first walk took one
    for j in estimates.argsort(kind="stable").tolist():
        if limits is not None and limits[j] >= n:
            continue
        done, energy = _advance(energies[j], costs(j), n, floors[j])
        if done == 0:
            return 0, energies, ledger
        n = done
        walked.append((j, done, energy))
        if limits is None:
            safe, drop = _safe_rounds(program, x, floors)
            limits = safe.tolist()
    after = (x - n * np.where(safe >= n, drop, 0.0)).tolist()
    for j, done, energy in walked:
        if done == n:
            after[j] = energy
        elif limits[j] < n:
            after[j] = _advance(energies[j], costs(j), n)[1]
    return n, after, _ledger_after(program, ledger, n)


def _fast_forward(
    state: NetworkState, strategy: MaintenanceStrategy | None, config: SimConfig
) -> int:
    """Run the quiet stretch that starts at state.time in one move and
    return how many steps it jumped: the steps on which no node dies and
    the trigger stays off, or, once a static set is spent, fires only to
    re-stamp. The stretch ends at max_steps, not at the sampling stride.
    The end state is the one step() would leave, bit for bit.

    On such steps each relay's battery and the ledger take the compiled
    round's drains, and nothing else, so the stretch is one _jump as far as
    the first step that would leave a relay at or below zero or under its
    energy-trigger floor. Most relays move by counts of grid steps taken
    from their packets, all at once; the others are walked one by one."""
    room = config.max_steps - state.time
    policy = config.trigger
    retaining = energy_triggered = False
    if config.tm is not None:
        if retains_every_step(policy, strategy):
            retaining = True
        elif policy.kind is TriggerKind.TIME:
            room = min(room, steps_to_time_trigger(policy, state))
        else:
            energy_triggered = True
    if room < 2:
        return 0
    routes = _routes(state)
    program = _program(state, routes)
    if energy_triggered and len(program.nodes) < len(routes.tree.edges):
        return 0  # a dead member trips the energy trigger on every step
    floors = [_DEATH_FLOOR] * len(program.nodes)
    if energy_triggered:
        topology = state.topology
        floors = [
            max(_DEATH_FLOOR, energy_floor(policy, topology, node.id))
            for node in program.nodes
        ]
    n, energies, ledger = _jump(program, floors, room, state.energy_ledger)
    if n == 0:
        return 0
    _apply_rounds(state, program, n, energies, ledger)
    if retaining:
        state.time += n - 1  # maintain runs before the clock advances
        retain(strategy, state, n)
        state.time += 1
    else:
        state.time += n
    return n


def _network_finished(state: NetworkState) -> bool:
    """True once a network that ever had sensors has lost them all; a
    sink-only deployment simply runs out its clock."""
    if len(state.nodes) <= 1:
        return False
    sink = state.sink.id
    return all(n.energy <= 0.0 for n in state.nodes if n.id != sink)


def sample_metrics(state: NetworkState, config: SimConfig, grid: CoverageGrid) -> MetricsSample:
    """Sample the metrics. One pass over the nodes counts the alive ones and
    collects the ids of the alive active ones, from which sink_reachable
    starts; both coverages are taken over the nodes it reaches."""
    alive = 0
    active = []
    for node in state.nodes:
        if node.energy > 0.0:
            alive += 1
            if node.role is Role.ACTIVE:
                active.append(node.id)
    reach = sink_reachable(state, active)
    return MetricsSample(
        time=state.time,
        alive=alive,
        sink_reachable=len(reach),
        comm_coverage=comm_coverage(state, grid, reach),
        sensing_coverage=sensing_coverage(state, config.sensing, grid, reach),
    )


def step(
    state: NetworkState,
    strategy: MaintenanceStrategy | None,
    config: SimConfig,
    grid: CoverageGrid,
) -> MetricsSample | None:
    """Advance the simulation by one step; returns the metrics sample, taken
    on grid, when the step lands on the sampling stride, else None."""
    state.in_step = True
    _traffic(state)
    if config.tm is not None and should_trigger(config.trigger, state):
        _, action = maintain(strategy, state, config.tc, config.a3, config.sensing)
        strategy.events.append((state.time + 1, action))
    state.in_step = False
    state.time += 1
    if state.time % config.metrics_stride == 0:
        return sample_metrics(state, config, grid)
    return None


def run(config: SimConfig, grid: CoverageGrid | None = None) -> RunResult:
    """Initialize and step to max_steps, or stop early once every sensor
    node is dead and maintenance has nothing to activate. Each quiet stretch
    is jumped in one move, through any sample points it crosses: nothing a
    sample reads but the clock changes inside it, so one sample at its end,
    re-timed, stands for each of them. The last step is always sampled, on
    the stride or not.

    grid, when given, is a coverage grid on the config's area and cell size,
    shared with other runs so that each footprint is computed once for all
    of them; a grid on another area or cell size raises ValueError. The
    values are the same bits as on a fresh grid."""
    state, strategy = initialize(config)
    if grid is None:
        grid = CoverageGrid(state.area, config.grid_cell)
    elif (grid.area, grid.cell_size) != (state.area, config.grid_cell):
        raise ValueError(
            f"coverage grid on {grid.area} with {grid.cell_size} m cells, but the"
            f" config has {state.area} with {config.grid_cell} m cells"
        )
    stride = config.metrics_stride
    series = [sample_metrics(state, config, grid)]
    while state.time < config.max_steps:
        sample = step(state, strategy, config, grid)
        if sample is not None:
            series.append(sample)
        if _network_finished(state):
            break
        start = state.time
        if _fast_forward(state, strategy, config):
            due = range(start // stride * stride + stride, state.time + 1, stride)
            if due:
                s = sample_metrics(state, config, grid)
                values = s.alive, s.sink_reachable, s.comm_coverage, s.sensing_coverage
                series.extend(MetricsSample(t, *values) for t in due)
    if series[-1].time != state.time:  # the horizon or the early end
        series.append(sample_metrics(state, config, grid))
    final = {
        "steps": state.time,
        "alive": alive_count(state),
        "energy_spent": state.energy_ledger,
        "packets_delivered": state.packets_delivered,
        "packets_dropped": state.packets_dropped,
    }
    events = list(strategy.events) if strategy is not None else []
    return RunResult(
        series=series,
        death_times=dict(sorted(state.death_step.items())),
        maintenance_events=events,
        final_summary=final,
    )
