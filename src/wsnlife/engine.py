"""Time-stepped lifetime loop.

Each step runs, in order: data traffic over the active tree, the
maintenance trigger check (and maintenance itself when it fires), and the
clock advance. A node dies the moment its battery is drained. One data
round per step; the link layer is lossless, so node death is the only loss
mechanism, and idle listening costs nothing.

A node is alive exactly while its battery holds energy, so every liveness
test reads the battery, and a drain that empties one calls
NetworkState.kill to record the death step. Each tree caches its data round
compiled over an alive set, as each relay's drain over one round, counted
in one pass over the tree children first. _take_rounds, the one mover of
compiled rounds, takes none when the first would empty a relay, or meets a
node dead since the compile; the step then runs hop by hop, dropping the
stale program, and the next one recompiles.

Every energy is a whole number of quanta (radio.QUANTUM), and the budget
keeps every battery, drain and ledger value below 2^53 quanta, so every
subtraction from a battery and every addition to the ledger is exact, in
any order. So n rounds of a compiled round take n times its drain from each
relay and add n times their sum to the ledger, bit for bit what n rounds
drain by drain leave, and _jump computes them in one numpy pass.

run() does not step through quiet stretches one at a time: steps on which
no node dies and the trigger stays off, as it does for good once a spent
static rotation set has logged its one "Exhausted". There each battery and
the ledger take the same drains every step, and _fast_forward moves them
over the whole stretch in one _take_rounds, down to the trip levels of
maintenance.energy_floor. Every eventful step goes through
step(), which only advances the network. run() is the one sampler: it
samples once after each step and the stretch that follows it, for every
stride point they cross. No alive set, topology or position changes inside
a stretch, so that sample, re-timed, stands for each of them. Both
coverages are functions of the site and the sink-reachable set alone,
comm_coverage(site, reach) and sensing_coverage(site, reach), so the site
keeps them for each set a sample reached, and a sample that reaches one
again, in any run on the site, takes them as they are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construction import A3Params, TCProtocol, construct
from .deployment import DeploymentConfig, InitialState, Site, deploy
from .errors import ConfigError
from .maintenance import (
    MaintenanceStrategy,
    StrategyKind,
    TMProtocol,
    TriggerKind,
    TriggerPolicy,
    activate_topology,
    armed,
    energy_floor,
    maintain,
    precompute_rotation_set,
    should_trigger,
    steps_to_time_trigger,
)
from .metrics import (
    MAX_GRID_POINTS,
    MetricsSample,
    alive_count,
    comm_coverage,
    grid_shape,
    sensing_coverage,
    sink_reachable,
)
from .model import SINK_ID, EnergyParams, NetworkState, Node, RadioParams, SensingParams
from .radio import QUANTIZER, QUANTUM, rx_energy, tx_coefficients

# Every battery, drain and ledger value stays below 2^53 quanta, so that
# each sum and difference of them is exact.
_BUDGET_LIMIT = 2**53 * QUANTUM  # 8192 J
# A residual of whole quanta above zero is at least one quantum.
_DEATH_FLOOR = QUANTUM


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

    def __post_init__(self):
        """Check the top-level and cross-field values; each sub-config checks
        its own fields on construction, so a SimConfig that exists is valid."""
        for name in ("rotation_k", "max_steps", "metrics_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be at least 1")
        if not 0 < self.grid_cell < math.inf:
            raise ConfigError("grid_cell", "must be positive and finite")
        try:
            nx, ny = grid_shape(self.deployment.area, self.grid_cell)
        except OverflowError:  # the cell count is not even finite
            nx = ny = MAX_GRID_POINTS
        if nx * ny > MAX_GRID_POINTS:
            raise ConfigError(
                "grid_cell", f"gives {nx * ny} coverage points, over {MAX_GRID_POINTS}"
            )
        if self.sensing.uncertainty_radius >= self.radio.sensing_radius:
            raise ConfigError(
                "sensing.uncertainty_radius",
                "must be smaller than the sensing radius",
            )
        energy = self.energy
        # the batteries as deploy rounds them to whole quanta
        budget = self.deployment.node_count * ((energy.initial_energy + QUANTIZER) - QUANTIZER)
        if not 0.0 < budget < _BUDGET_LIMIT:
            raise ConfigError(
                "energy.initial_energy",
                f"gives a budget of {budget} J in whole quanta (2^-40 J) over"
                f" {self.deployment.node_count} nodes, not above 0 and under {_BUDGET_LIMIT:g} J",
            )
        for name in ("control_packet_bits", "data_packet_bits"):
            if not 0.0 < rx_energy(energy, getattr(energy, name)) < math.inf:
                raise ConfigError(
                    "energy.elec_energy_per_bit",
                    f"gives a receive cost of {name} that rounds to zero quanta (2^-40 J)"
                    " or is not finite",
                )
        tm = self.tm
        if tm is not None and self.trigger.kind is not tm.trigger_kind:
            family = "an energy" if tm.trigger_kind is TriggerKind.ENERGY else "a time"
            raise ConfigError("trigger.kind", f"{tm.value} requires {family}-triggered policy")


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


def initialize(
    config: SimConfig, site: Site | None = None
) -> tuple[NetworkState, MaintenanceStrategy | None]:
    """Deploy, build the first reduced topology (plus the rotation set for
    static and hybrid strategies), and activate it at time zero. The config
    was checked when it was built, so nothing here checks it again.

    site, when given, is the site of the config's deployment, radio and
    sensing models and grid cell size, shared with other runs so that its
    positions, links, promotion inputs and grid are built once for all of
    them, here or in the run that first needs them; a site of another
    config raises ValueError before anything runs. Without one, a fresh
    site is built.

    What is built before the activation depends on the site, tc, a3,
    energy and the family alone: the one construction of dynamic
    recreation and of no maintenance, or the rotation set of rotation_k
    entries of static and hybrid strategies. A given site keeps it under
    that key (Site.initial): the first run with the key pays for the
    constructions, and every later one starts from fresh copies of its
    batteries, ledger, death steps and topologies, the same bits, and
    constructs nothing. A fresh site keeps nothing, so a lone run holds no
    copy."""
    shared = site is not None
    if site is None:
        site = Site(config.deployment, config.radio, config.sensing, config.grid_cell)
    elif (site.deployment, site.radio, site.sensing, site.grid_cell) != (
        config.deployment, config.radio, config.sensing, config.grid_cell
    ):
        raise ValueError(
            f"{site} does not fit the config's deployment, radio, sensing or grid_cell"
        )
    state = deploy(site, config.energy)
    kind = None if config.tm is None else config.tm.strategy_kind
    k = None if kind in (None, StrategyKind.DYNAMIC_RECREATION) else config.rotation_k
    key = (config.tc, config.a3, config.energy, k)
    built = site.initial.get(key)
    if built is not None:
        topologies = built.restore(state)
    else:
        if k is None:
            topologies = [construct(state, config.tc, config.a3)[0]]
        else:
            topologies = precompute_rotation_set(state, config.tc, k, config.a3)
        if shared:
            site.initial[key] = InitialState.of(state, topologies)
    activate_topology(state, topologies[0])
    if kind is None:
        return state, None
    return state, MaintenanceStrategy(kind, rotation_set=[] if k is None else topologies)


@dataclass(eq=False)
class RoundProgram:
    """A tree's data round compiled over one alive set, valid while every
    node it charges is alive. nodes holds the charged relays in ascending
    id and per_round each one's drain over one round: a relay that pays for
    k packets, its own and those it relays, takes k transmit drains and
    k - 1 receive drains. spent is their sum, the ledger's addition, and
    delivered and dropped are the packets the round delivers and drops."""

    nodes: list[Node]
    per_round: np.ndarray
    spent: float
    delivered: int
    dropped: int


@dataclass(eq=False)
class Tree:
    """An installed tree's routing cache, built on its first step: for each
    traffic origin, in ascending id, its parent hop with the precomputed
    transmit cost; the origins children first, each after its subtree; and
    the round compiled over the latest alive set, None once a round that
    killed or met a dead node dropped it."""

    edges: dict[int, tuple[int, float]]
    upward: list[int]
    program: RoundProgram | None = None


def _routes(state: NetworkState) -> Tree:
    """The installed tree, built on its first step, with its round compiled
    over the current alive set whenever the last one was dropped. Each
    edge's transmit cost is tx_energy's, from its hoisted terms."""
    topology = state.topology
    tree = topology.route_cache
    if tree is None:
        nodes = state.nodes
        elec, amp = tx_coefficients(state.energy, state.energy.data_packet_bits)
        quantizer = QUANTIZER
        origins = sorted(topology.active_set - {SINK_ID})
        edges: dict[int, tuple[int, float]] = {}
        children: dict[int, list[int]] = {}
        for nid in origins:
            parent = topology.parent[nid]
            here, there = nodes[nid].position, nodes[parent].position
            dx = here.x - there.x
            dy = here.y - there.y
            # Must not become distance(): hypot differs on 23,418 of 141,742 pairs.
            hop = (dx * dx + dy * dy) ** 0.5
            edges[nid] = (parent, (elec + amp * hop**2 + quantizer) - quantizer)
            children.setdefault(parent, []).append(nid)
        downward = []  # depth first, each node before its subtree
        stack = list(children.get(SINK_ID, ()))
        while stack:
            nid = stack.pop()
            downward.append(nid)
            stack += children.get(nid, ())
        tree = topology.route_cache = Tree(edges, downward[::-1])
    if tree.program is None:
        tree.program = _compile_round(state, tree)
    return tree


def _compile_round(state: NetworkState, tree: Tree) -> RoundProgram:
    """The round of _per_hop_round over the current alive set, as drains
    per relay.

    A node's packet costs its own transmit drain, then, while the next hop
    is an alive relay, that relay's receive and transmit drains; it is
    delivered when it reaches the sink and dropped at a dead hop. So an
    alive node pays for its own packet and for every packet of its alive
    subtree, which one pass children first counts: each alive node adds
    its count to its parent's, or to the delivered packets at the sink."""
    nodes = state.nodes
    edges = tree.edges
    counts: dict[int, int] = {}
    delivered = 0
    for nid in tree.upward:
        if nodes[nid].energy > 0.0:
            count = counts[nid] = counts.get(nid, 0) + 1
            parent = edges[nid][0]
            if parent == SINK_ID:
                delivered += count
            elif nodes[parent].energy > 0.0:
                counts[parent] = counts.get(parent, 0) + count
    ids = sorted(counts)
    carried = np.array([counts[nid] for nid in ids], dtype=np.float64)
    tx = np.array([edges[nid][1] for nid in ids])
    rx = rx_energy(state.energy, state.energy.data_packet_bits)
    per_round = (carried - 1.0) * rx + carried * tx
    return RoundProgram(
        [nodes[nid] for nid in ids],
        per_round,
        float(per_round.sum()),
        delivered,
        len(ids) - delivered,
    )


def _take_rounds(state: NetworkState, lowest: float | list[float], rounds: int) -> int:
    """Take as many of `rounds` compiled rounds as _jump allows with
    `lowest` and return how many: 0 leaves the state as it was."""
    program = _routes(state).program
    n, energies, ledger = _jump(program, lowest, rounds, state.energy_ledger)
    if n:
        for node, energy in zip(program.nodes, energies):
            node.energy = energy
        state.energy_ledger = ledger
        state.packets_delivered += n * program.delivered
        state.packets_dropped += n * program.dropped
    return n


def _per_hop_round(state: NetworkState) -> None:
    """The data round hop by hop, where the compiled round fails. Senders
    pay the transmit cost, receivers the receive cost; a node that dies
    mid-step drops the packet at the point of death and handles nothing
    further.

    Each drain follows the battery rule: it is clamped to the residual,
    debited and added to the ledger, and a battery drained to zero is a
    death, recorded by NetworkState.kill. A dead node is never drained, and
    the sink's battery is never drawn. The compiled round, now stale, goes,
    and the next step compiles over the alive set this one leaves."""
    tree = _routes(state)
    edges = tree.edges
    rx_cost = rx_energy(state.energy, state.energy.data_packet_bits)
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
            if parent == SINK_ID:
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
    tree.program = None


def _jump(
    program: RoundProgram, lowest: float | list[float], rounds: int, ledger: float
) -> tuple[int, list[float], float]:
    """Up to `rounds` rounds of program, stopping before the first round
    that would leave a relay under `lowest`, its least allowed energy in
    whole quanta (one for all, or one per relay in the order of
    program.nodes): the rounds taken, each relay's energy after them and
    the ledger's. The state is not changed; no round is taken when the
    first one fails, and then no energies are returned.

    Drains only lower a battery, so a relay that ends the rounds at or
    above lowest stayed there throughout. Every value is whole quanta, so
    a relay lasts (x - lowest) // per_round rounds, a floor division of
    integers times one quantum, which is exact; and n rounds are the exact
    x - n * per_round and ledger + n * spent, the bits that n rounds drain
    by drain leave."""
    x = np.array([node.energy for node in program.nodes])
    per_round = program.per_round
    n = int(((x - lowest) // per_round).min(initial=rounds))
    if n < 1:
        return 0, [], ledger
    return n, (x - n * per_round).tolist(), ledger + n * program.spent


def _fast_forward(
    state: NetworkState, strategy: MaintenanceStrategy | None, config: SimConfig
) -> int:
    """Run the quiet stretch that starts at state.time in one move and
    return how many steps it jumped: the steps on which no node dies and
    the trigger stays off, which it does to the end once a spent static set
    has logged "Exhausted". The stretch ends at max_steps, not at the
    sampling stride, and may be a single step. The end state is the one
    step() would leave, bit for bit.

    On such steps each relay's battery and the ledger take the compiled
    round's drains, and nothing else, so the stretch is one _take_rounds as
    far as the first step that would leave a relay empty or under its
    energy_floor. The time trigger caps the stretch instead."""
    policy = config.trigger
    trigger = policy.kind if armed(strategy) else None
    room = config.max_steps - state.time
    if trigger is TriggerKind.TIME:
        room = min(room, steps_to_time_trigger(policy, state))
    if room < 1:
        return 0
    lowest = _DEATH_FLOOR
    if trigger is TriggerKind.ENERGY:
        tree = _routes(state)
        nodes = tree.program.nodes
        if len(nodes) < len(tree.edges):
            return 0  # a dead member trips the energy trigger on every step
        lowest = [energy_floor(policy, state.topology, node.id) for node in nodes]
    n = _take_rounds(state, lowest, room)
    state.time += n
    return n


def _network_finished(state: NetworkState) -> bool:
    """True once a network that ever had sensors has lost them all; a
    sink-only deployment simply runs out its clock."""
    if len(state.nodes) <= 1:
        return False
    return all(n.energy <= 0.0 for n in state.nodes if n.id != SINK_ID)


def _members(reach: set[int], node_count: int) -> bytes:
    """reach as a bitmap of node_count bits packed into bytes: its key in
    Site.coverages, equal for equal sets and an eighth of a byte a node."""
    bits = np.zeros(node_count, dtype=np.uint8)
    bits[np.fromiter(reach, np.intp, len(reach))] = 1
    return np.packbits(bits).tobytes()


def sample_metrics(state: NetworkState) -> MetricsSample:
    """Sample the metrics. Both coverages are functions of the site and the
    set sink_reachable reaches, taken on the site's grid, built by the
    site's first sample. So the site keeps them (Site.coverages) keyed on
    the set, and a sample that reaches a set some sample on the site
    reached before, in this run or another, takes the same bits and
    computes neither."""
    reach = sink_reachable(state)
    site = state.site
    key = _members(reach, len(state.nodes))
    found = site.coverages.get(key)
    if found is None:
        found = site.coverages[key] = (
            comm_coverage(site, reach),
            sensing_coverage(site, reach),
        )
    comm, sensing = found
    return MetricsSample(state.time, alive_count(state), len(reach), comm, sensing)


def step(
    state: NetworkState, strategy: MaintenanceStrategy | None, config: SimConfig
) -> None:
    """Advance the simulation by one step: the data round, the trigger
    check and maintenance when it fires, and the clock. The data round is
    the compiled round when every relay ends it with a quantum or more (no
    drain was clamped, nobody died), bit for bit the hop-by-hop round."""
    state.in_step = True
    if not _take_rounds(state, _DEATH_FLOOR, 1):
        _per_hop_round(state)
    if armed(strategy) and should_trigger(config.trigger, state):
        _, action = maintain(strategy, state, config.tc, config.a3)
        strategy.events.append((state.time + 1, action))
    state.in_step = False
    state.time += 1


def run(config: SimConfig, site: Site | None = None) -> RunResult:
    """Initialize and step to max_steps, or stop early once every sensor
    node is dead and maintenance has nothing to activate. After each step
    the quiet stretch that follows it, if any, is jumped in one move, and
    one sample, re-timed to each stride point the two crossed, stands for
    all of them: nothing a sample reads but the clock changes inside a
    stretch. Time 0 and the last step are always sampled, on the stride or
    not. A sample takes its coverages from the site when some sample on it
    reached the same set (see sample_metrics).

    site, when given, is the config's site, shared with other runs so that
    its grid computes each footprint once for all of them and its initial
    topologies are built once too (see initialize). The values are the same
    bits as on a fresh site."""
    state, strategy = initialize(config, site)
    stride = config.metrics_stride
    series = [sample_metrics(state)]
    while state.time < config.max_steps:
        start = state.time
        step(state, strategy, config)
        finished = _network_finished(state)
        if not finished:
            _fast_forward(state, strategy, config)
        due = range(start // stride * stride + stride, state.time + 1, stride)
        if due:
            sample = sample_metrics(state)
            series += (
                MetricsSample(
                    t,
                    sample.alive,
                    sample.sink_reachable,
                    sample.comm_coverage,
                    sample.sensing_coverage,
                )
                for t in due
            )
        if finished:
            break
    if series[-1].time != state.time:  # the horizon or the early end
        series.append(sample_metrics(state))
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
