"""An executable spec of one wsnlife run: a plain hop-by-hop simulator,
written apart from the engine as a second witness of its outputs.

It shares only these with the package: initialize (the deployment, the
first topology and the rotation set), should_trigger and maintain (the
maintenance protocols), tx_energy and rx_energy (the radio costs),
sense_probabilities (the sensing formula), NetworkState.kill (the death
record), RunResult, MetricsSample and emit_series. Everything the engine
does for speed is left out:

- batteries and the ledger are Python ints of quanta (2^-40 J), so every
  drain is exact; the state shared with should_trigger and maintain holds
  them in joules, which is exact below 2^53 quanta;
- every step is one data round, hop by hop, in ascending origin id;
- reachability is a breadth-first scan over the pairwise math.hypot links;
- both coverages are computed over the full grid, node by node, in
  ascending id;
- a static rotation set with no usable entry logs one "Exhausted", and the
  trigger is never checked again.

    PYTHONPATH=src python tests/spec.py

compares the spec with every golden digest, the default-scale cell too.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np

from wsnlife import (
    MetricsSample,
    RunResult,
    initialize,
    maintain,
    rx_energy,
    sense_probabilities,
    should_trigger,
    tx_energy,
)

QUANTUM = 2.0**-40
SINK = 0


def quanta(joules: float) -> int:
    q = int(joules / QUANTUM)
    assert q * QUANTUM == joules, f"{joules!r} J is not a whole number of quanta"
    return q


@cache
def _grid(width, height, cell):
    """The x and y of the coverage grid's points, the centres of the cells
    tiling the area, as a row and a column."""
    xs = np.array([(i + 0.5) * cell for i in range(math.ceil(width / cell))])
    ys = np.array([(j + 0.5) * cell for j in range(math.ceil(height / cell))])
    return xs[None, :], ys[:, None]


@cache
def _disc(grid, x, y, radius):
    """The grid points within radius of (x, y)."""
    xs, ys = _grid(*grid)
    dx, dy = xs - x, ys - y
    return dx * dx + dy * dy <= radius * radius


@cache
def _miss(grid, x, y, r, sensing):
    """1 - p at every grid point for a sensor of radius r at (x, y)."""
    xs, ys = _grid(*grid)
    dx, dy = xs - x, ys - y
    d = np.sqrt(dx * dx + dy * dy)
    p = sense_probabilities(sensing, r, d.ravel().tolist())
    return (1.0 - np.array(p)).reshape(d.shape)


class Spec:
    """One run of a config, step by step."""

    def __init__(self, config):
        self.config = config
        self.state, self.strategy = initialize(config)
        self.battery = [quanta(node.energy) for node in self.state.nodes]
        self.ledger = quanta(self.state.energy_ledger)
        self.delivered = self.dropped = 0
        self.events = []
        self.tx = {}  # (node, parent): a data packet's transmit cost over the hop
        area = config.deployment.area
        self.grid = (area.width, area.height, config.grid_cell)
        positions = [(n.position.x, n.position.y) for n in self.state.nodes]
        radius = config.radio.communication_radius
        self.links = [
            [
                j
                for j, (xj, yj) in enumerate(positions)
                if j != i and math.hypot(xi - xj, yi - yj) <= radius
            ]
            for i, (xi, yi) in enumerate(positions)
        ]

    def run(self) -> RunResult:
        config, state = self.config, self.state
        armed = self.strategy is not None
        series = [self.sample()]
        while state.time < config.max_steps:
            state.in_step = True
            self.data_round()
            if armed and should_trigger(config.trigger, state):
                _, action = maintain(self.strategy, state, config.tc, config.a3)
                self.events.append((state.time + 1, action))
                armed = action != "Exhausted"
                self.battery = [quanta(node.energy) for node in state.nodes]
                self.ledger = quanta(state.energy_ledger)
            state.in_step = False
            state.time += 1
            finished = len(self.battery) > 1 and not any(self.battery[1:])
            if state.time % config.metrics_stride == 0:
                series.append(self.sample())
            if finished:
                break
        if series[-1].time != state.time:
            series.append(self.sample())
        final = {
            "steps": state.time,
            "alive": self.alive(),
            "energy_spent": self.ledger * QUANTUM,
            "packets_delivered": self.delivered,
            "packets_dropped": self.dropped,
        }
        return RunResult(series, dict(sorted(state.death_step.items())), self.events, final)

    def data_round(self):
        """Each alive active node, in ascending id, sends one packet up the
        tree. A sender pays the transmit cost and a receiver the receive
        cost, each drain clamped to the battery; a node drained empty dies,
        and the packet it holds is dropped, as is one sent to a dead hop.
        The sink is mains powered: nothing it receives is charged."""
        state, battery = self.state, self.battery
        energy = self.config.energy
        bits = energy.data_packet_bits
        rx = quanta(rx_energy(energy, bits))
        topology = state.topology
        nodes = state.nodes
        for origin in sorted(topology.active_set - {SINK}):
            if battery[origin] == 0:
                continue
            hop = origin
            while True:
                parent = topology.parent[hop]
                if (hop, parent) not in self.tx:
                    here, there = nodes[hop].position, nodes[parent].position
                    dx, dy = here.x - there.x, here.y - there.y
                    length = (dx * dx + dy * dy) ** 0.5
                    self.tx[hop, parent] = quanta(tx_energy(energy, bits, length))
                drained = min(self.tx[hop, parent], battery[hop])
                battery[hop] -= drained
                self.ledger += drained
                if battery[hop] == 0:
                    state.kill(hop)
                    self.dropped += 1
                    break
                if parent == SINK:
                    self.delivered += 1
                    break
                if battery[parent] == 0:
                    self.dropped += 1
                    break
                drained = min(rx, battery[parent])
                battery[parent] -= drained
                self.ledger += drained
                if battery[parent] == 0:
                    state.kill(parent)
                    self.dropped += 1
                    break
                hop = parent
        for nid in topology.active_set:  # the only batteries drained
            nodes[nid].energy = battery[nid] * QUANTUM
        state.energy_ledger = self.ledger * QUANTUM

    def alive(self) -> int:
        return sum(1 for q in self.battery if q > 0)

    def reachable(self) -> set[int]:
        """The sink and the alive active nodes joined to it by a chain of
        alive active nodes, each hop a radio link."""
        members = {
            nid for nid in self.state.topology.active_set if self.battery[nid] > 0
        }
        reached, frontier = {SINK}, [SINK]
        while frontier:
            for nid in self.links[frontier.pop()]:
                if nid in members and nid not in reached:
                    reached.add(nid)
                    frontier.append(nid)
        return reached

    def sample(self) -> MetricsSample:
        """The metrics now. Comm coverage is the share of grid points within
        the radio range of a reachable node, the sink included; sensing
        coverage the share whose miss product over the reachable sensors,
        folded from 1.0, leaves a detection probability at the threshold."""
        config = self.config
        xs, ys = _grid(*self.grid)
        covered = np.zeros((ys.size, xs.size), dtype=bool)
        miss = np.ones(covered.shape)
        reach = self.reachable()
        for nid in sorted(reach):
            p = self.state.nodes[nid].position
            covered |= _disc(self.grid, p.x, p.y, config.radio.communication_radius)
            if nid != SINK:
                miss *= _miss(self.grid, p.x, p.y, config.radio.sensing_radius, config.sensing)
        detected = np.count_nonzero(1.0 - miss >= config.sensing.detection_threshold)
        return MetricsSample(
            self.state.time,
            self.alive(),
            len(reach),
            np.count_nonzero(covered) / covered.size,
            detected / covered.size,
        )


def run_spec(config) -> RunResult:
    """The spec's RunResult for config, to compare with engine.run's."""
    return Spec(config).run()


if __name__ == "__main__":
    import json
    import sys
    import tempfile
    from pathlib import Path

    from test_golden import CELLS, DIGESTS, digests_of

    recorded = json.loads(DIGESTS.read_text())["cells"]
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for key, config in CELLS.items():
            same = digests_of(run_spec(config), Path(scratch)) == recorded[key]
            failed += not same
            print(f"{'same' if same else 'DIFF'} {key}")
    print(f"{failed} of {len(CELLS)} cells differ")
    sys.exit(1 if failed else 0)
