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
the step runs hop by hop and the next one recompiles.

run() does not step through quiet stretches one at a time: steps on which
no node dies and the trigger stays off (or, once a static rotation set is
spent, fires only to re-stamp). There each battery and the ledger take the
same drains every step, and _fast_forward moves them over the whole stretch
at once with the same bits. Inside a binade of doubles every result of a
subtraction or addition is rounded to one grid, so the same drains move a
value by the same number of grid steps every time, unless a drain lies
exactly halfway between two grid steps; _advance takes such a run in one
exact multiply-add and computes every other step as it stands. Every
eventful step goes through step(). A stretch runs through sample points:
no alive set, role or position changes inside it, so one sample taken at
its end stands for every stride point it crosses.

A stretch, and the compiled round of a step, is one _jump. On a tree of at
least _VECTOR_MIN_RELAYS relays the grid steps of a round are counted from
each relay's packets instead of found by a reduce over its drains: numpy
finds at once every relay that stays inside its binade and above its floor,
moves those by one exact multiply-add each, and leaves only the rest to
_advance; the ledger's move is the sum of theirs, taken in its own grid.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add, lt, sub

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
from .radio import rx_energy, tx_energy


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
    if not config.grid_cell > 0:
        raise ConfigError("grid_cell", "must be positive")
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


@dataclass
class RoundProgram:
    """A tree's data round compiled over one alive set, valid while every
    node it charges is alive: drains, every drain in hop order (the
    ledger's additions); relays, each charged node with its own drains in
    order; totals, the sum of each relay's drains, for estimating how many
    rounds it lasts; carried and tx, in the order of relays, the packets
    each relay pays for (its own and those it relays) and its transmit
    cost, and rx the receive cost, so that a relay's drains are
    carried - 1 receive costs and carried transmit costs; and the packets
    the round delivers and drops."""

    drains: list[float]
    relays: list[tuple[Node, list[float]]]
    totals: list[float]
    carried: np.ndarray
    tx: np.ndarray
    rx: float
    delivered: int
    dropped: int


@dataclass
class Routes:
    """Per-topology routing cache: traffic origins in ascending id, for each
    relay its parent hop with the precomputed transmit cost, and the round
    compiled over the latest alive set (one at a time)."""

    origins: list[int]
    edges: dict[int, tuple[int, float]]
    program: RoundProgram | None = None


def _routes(state: NetworkState) -> Routes:
    """The installed tree's routing cache, built on its first step."""
    topology = state.topology
    if topology.route_cache is not None:
        return topology.route_cache
    energy, nodes = state.energy, state.nodes
    origins = sorted(topology.active_set - {topology.root})
    edges: dict[int, tuple[int, float]] = {}
    for nid in origins:
        parent = topology.parent[nid]
        dx = nodes[nid].position.x - nodes[parent].position.x
        dy = nodes[nid].position.y - nodes[parent].position.y
        # Must not become distance(): hypot differs on 23,418 of 141,742 pairs.
        hop = (dx * dx + dy * dy) ** 0.5
        edges[nid] = (parent, tx_energy(energy, energy.data_packet_bits, hop))
    topology.route_cache = Routes(origins, edges)
    return topology.route_cache


def _compile_round(state: NetworkState, routes: Routes) -> RoundProgram:
    """The round of _per_hop_round over the current alive set, recorded
    instead of applied, with each alive node's path built once.

    A node's packet costs its own transmit drain, then, while the next hop
    is an alive relay, that relay's receive drain and the rest of the
    relay's own path: [tx, rx] + path[parent], or [tx] when the packet
    reaches the sink or a dead hop. The round drains the paths of the alive
    origins in ascending order. So a relay spends [tx] on its own packet and
    [rx, tx] on each packet it carries, in the order of their senders: it
    carries `below` packets from lower ids before its own and `above` from
    higher ids after it."""
    rx_cost = rx_energy(state.energy, state.energy.data_packet_bits)
    sink = state.sink.id
    nodes = state.nodes
    edges = routes.edges
    paths: dict[int, list[float]] = {}  # each alive node's drains, in hop order
    carriers: dict[int, list[int]] = {}  # the nodes that pay them, itself first
    for origin in routes.origins:
        if origin in paths or nodes[origin].energy <= 0.0:
            continue
        chain = [origin]  # up to the first hop whose path is known or ends it
        parent = edges[origin][0]
        while parent != sink and parent not in paths and nodes[parent].energy > 0.0:
            chain.append(parent)
            parent = edges[parent][0]
        for nid in reversed(chain):
            parent, tx_cost = edges[nid]
            if parent in paths:
                paths[nid] = [tx_cost, rx_cost] + paths[parent]
                carriers[nid] = [nid] + carriers[parent]
            else:
                paths[nid] = [tx_cost]
                carriers[nid] = [nid]
    drains: list[float] = []
    below: dict[int, int] = {}  # each relay's count of lower-id packets
    carried: Counter[int] = Counter()  # packets each node pays for so far
    delivered = 0
    for origin in routes.origins:
        if origin in paths:
            drains += paths[origin]
            below[origin] = carried[origin]
            carried.update(carriers[origin])
            if edges[carriers[origin][-1]][0] == sink:
                delivered += 1
    counts = [carried[nid] for nid in below]
    txs = [edges[nid][1] for nid in below]
    relays = []
    for nid, count, tx_cost in zip(below, counts, txs):
        carry = [rx_cost, tx_cost]
        above = count - below[nid] - 1
        relays.append((nodes[nid], carry * below[nid] + [tx_cost] + carry * above))
    totals = [sum(costs) for _, costs in relays]
    return RoundProgram(
        drains,
        relays,
        totals,
        np.array(counts, dtype=np.float64),
        np.array(txs),
        rx_cost,
        delivered,
        len(below) - delivered,
    )


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
    floors = [_DEATH_FLOOR] * len(program.relays)
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
    for (node, _), energy in zip(program.relays, energies):
        node.energy = energy
    state.energy_ledger = ledger
    state.sink_bits_last_step = program.delivered * state.energy.data_packet_bits
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
    origins, edges = routes.origins, routes.edges
    energy = state.energy
    bits = energy.data_packet_bits
    rx_cost = rx_energy(energy, bits)
    sink = state.sink.id
    nodes = state.nodes
    ledger = state.energy_ledger
    delivered = dropped = 0
    for origin in origins:
        sender = nodes[origin]
        if not sender.alive:
            continue  # dead nodes generate nothing
        current = origin
        while True:
            parent, tx_cost = edges[current]
            drained = min(tx_cost, sender.energy)
            sender.energy -= drained
            ledger += drained
            if sender.energy <= 0.0:
                state.kill(current)
                dropped += 1  # died mid-transmission
                break
            if parent == sink:
                # The sink is mains powered; its receive cost is not metered.
                delivered += 1
                break
            receiver = nodes[parent]
            if not receiver.alive:
                dropped += 1  # transmitted into a dead hop
                break
            drained = min(rx_cost, receiver.energy)
            receiver.energy -= drained
            ledger += drained
            if receiver.energy <= 0.0:
                state.kill(parent)
                dropped += 1  # died receiving
                break
            current, sender = parent, receiver
    state.energy_ledger = ledger
    state.sink_bits_last_step = delivered * bits
    state.packets_delivered += delivered
    state.packets_dropped += dropped


# A residual below the least positive double is at most zero: a death.
_DEATH_FLOOR = math.ulp(0.0)
# The grid steps from the bottom of a binade of doubles to its top.
_BINADE_STEPS = 1 << 52
# The bottom of the lowest binade whose grid step g has a finite 1/g.
_CLOSED_FORM_MIN = math.ldexp(0.5, -970)
# The fewest relays for which _jump's numpy pre-pass pays. Timed on every
# round of 600- and 1000-node runs (Intel Xeon, CPython 3.11, numpy 2.4),
# it took 0.3 to 0.5 of the walks' time on trees of 64 relays and up at
# the default density and energy; on the desk scenario scaled up (0.02 J,
# 60 m radius), where most relays must be walked anyway, 1.12 of it at
# 64-95 relays and 0.86-1.07 from 96 to 224.
_VECTOR_MIN_RELAYS = 128


def _advance(
    x: float, op, costs: list[float], steps: int, floor: float = -math.inf
) -> tuple[int, float]:
    """Replace x by reduce(op, costs, x) up to `steps` times, stopping before
    the first result below floor; return how many were applied and the value.
    The costs are positive; op is sub (a relay's battery) or add (the ledger).

    In the binade [lo, 2lo) every double is a multiple of g = ulp(lo). So a
    correctly rounded x - c or x + c whose exact value lies in it is
    x -/+ g*round(c/g), unless c/g is a half-integer: a tie, which rounds to
    the even neighbour and so depends on x. While no cost is a tie and every
    result stays in the binade with a grid step to spare, each application
    therefore moves x by the same multiple of g, and k of them are one exact
    multiply-add. Any other application (across a binade edge, on a tie, in
    a binade so low that 1/g overflows, or the last one) is computed as it
    stands.
    """
    done = 0
    distinct = None
    while done < steps:
        y = reduce(op, costs, x)
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
                move = int((y - x) * per_g)  # exact: both on the grid
                if move < 0:
                    bottom = 1
                    if floor > lo:  # on the grid too, as floor <= y
                        bottom = max(bottom, int((floor - lo) * per_g))
                    k = (place - bottom) // -move
                elif move > 0:
                    k = (_BINADE_STEPS - 1 - place) // move
                else:
                    k = steps - done
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
    as _advance computes it, but with each binade's move per round counted
    from the relays' packets instead of taken from one ordered reduce:
    reduce runs only on the rounds that cross a binade edge, meet a tie or
    start below _CLOSED_FORM_MIN."""
    carried, tx = program.carried, program.tx
    receives = float(carried.sum()) - len(program.relays)
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
            ledger = reduce(add, program.drains, ledger)
            done += 1
    return ledger


def _jump(
    program: RoundProgram, floors: list[float], rounds: int, ledger: float
) -> tuple[int, list[float], float]:
    """Up to `rounds` rounds of program, stopping before the first round
    that would leave a relay under its floor: the rounds taken, each relay's
    energy after them (in the order of program.relays) and the ledger's.
    The values are those of reduce applied round by round, bit for bit. The
    state is not changed; no round is taken when the first one fails.

    Relays are independent of each other, so each is walked by _advance, as
    far as the first round that would leave it under its floor. They are
    walked in ascending order of their estimated limit, energy above the
    floor over the round's drains, so the first walks bound the later ones
    and a relay is rarely walked twice; the limit is the least one whatever
    the order. On a program of at least _VECTOR_MIN_RELAYS relays, once the
    first walk has taken a round, a numpy pre-pass (_safe_rounds) finds the
    relays that surely last the rounds in grid steps, and applies them as
    one exact x - n*M*g; only the others are walked, and the ledger moves by
    _ledger_after. The first walk goes before the pre-pass because a round
    on which some relay dies usually fails it."""
    relays = program.relays
    large = len(relays) >= _VECTOR_MIN_RELAYS
    if rounds == 1 and not large:
        # each walk is one reduce, and none can bound another
        after = [reduce(sub, costs, node.energy) for node, costs in relays]
        if any(map(lt, after, floors)):
            return 0, [node.energy for node, _ in relays], ledger
        return 1, after, reduce(add, program.drains, ledger)
    energies = [node.energy for node, _ in relays]
    if large:
        x = np.array(energies)
        estimates = (x - floors) / np.array(program.totals)
        order = np.argsort(estimates, kind="stable").tolist()
    else:
        estimates = [(e - f) / t for e, f, t in zip(energies, floors, program.totals)]
        order = sorted(range(len(relays)), key=estimates.__getitem__)
    n = rounds
    walked = []
    limits = None  # each relay's safe rounds, once the pre-pass has run
    for j in order:
        if limits is not None and limits[j] >= n:
            continue
        done, energy = _advance(energies[j], sub, relays[j][1], n, floors[j])
        if done == 0:
            return 0, energies, ledger
        n = done
        walked.append((j, done, energy))
        if large and limits is None:
            safe, drop = _safe_rounds(program, x, floors)
            limits = safe.tolist()
    if limits is None:
        after = list(energies)
        ledger = _advance(ledger, add, program.drains, n)[1]
    else:
        after = (x - n * np.where(safe >= n, drop, 0.0)).tolist()
        ledger = _ledger_after(program, ledger, n)
    for j, done, energy in walked:
        if done == n:
            after[j] = energy
        elif limits is None or limits[j] < n:
            after[j] = _advance(energies[j], sub, relays[j][1], n)[1]
    return n, after, ledger


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
    energy-trigger floor. On a large tree most relays move by counts of
    grid steps taken from their packets, all at once; the others, and every
    relay of a small tree, are walked one by one."""
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
    if energy_triggered and len(program.relays) < len(routes.origins):
        return 0  # a dead member trips the energy trigger on every step
    floors = [_DEATH_FLOOR] * len(program.relays)
    if energy_triggered:
        topology = state.topology
        floors = [
            max(_DEATH_FLOOR, energy_floor(policy, topology, node.id))
            for node, _ in program.relays
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
    return not any(n.alive for n in state.nodes if n.id != state.sink.id)


@dataclass(frozen=True)
class SampleMemo:
    """The last metric sample's structural results, each keyed on all of its
    inputs (positions never move): reach, the sink-reachable set, on active,
    the ascending ids of the alive active nodes; coverage, the (comm,
    sensing) pair, on coverage_key, (grid, sensing parameters, reach). The
    keys hold content, not a version number, so a write to a battery or to
    Node.role that bypasses NetworkState cannot leave them stale."""

    active: tuple[int, ...]
    reach: frozenset[int]
    coverage_key: tuple[CoverageGrid, SensingParams, frozenset[int]]
    coverage: tuple[float, float]


def sample_metrics(state: NetworkState, config: SimConfig, grid: CoverageGrid) -> MetricsSample:
    """Sample the metrics, reusing the previous sample's reachability and
    coverage where their inputs are unchanged; a miss computes them as
    before, so every value is the same either way."""
    alive = 0
    active = []
    for node in state.nodes:
        if node.energy > 0.0:
            alive += 1
            if node.role is Role.ACTIVE:
                active.append(node.id)
    active = tuple(active)
    memo = state.sample_memo
    if memo is not None and memo.active == active:
        reach = memo.reach
    else:
        reach = frozenset(sink_reachable(state, active))
    key = (grid, config.sensing, reach)  # grid compares by identity
    if memo is not None and memo.coverage_key == key:
        coverage = memo.coverage
    else:
        coverage = (
            comm_coverage(state, grid, reach),
            sensing_coverage(state, config.sensing, grid, reach),
        )
    state.sample_memo = SampleMemo(active, reach, key, coverage)
    return MetricsSample(
        time=state.time,
        alive=alive,
        sink_reachable=len(reach),
        comm_coverage=coverage[0],
        sensing_coverage=coverage[1],
    )


def step(
    state: NetworkState,
    strategy: MaintenanceStrategy | None,
    config: SimConfig,
    grid: CoverageGrid | None = None,
) -> MetricsSample | None:
    """Advance the simulation by one step; returns the metrics sample when
    the step lands on the sampling stride, else None."""
    if grid is None:
        grid = CoverageGrid(state.area, config.grid_cell)
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
                sample = sample_metrics(state, config, grid)
                series.extend(replace(sample, time=t) for t in due)
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
