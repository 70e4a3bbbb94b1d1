"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import itertools
import math
import random
from contextlib import contextmanager
from decimal import Decimal, getcontext

import pytest

from wsnlife import (
    A3Params,
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    RadioParams,
    SINK_ID,
    SensingParams,
    SimConfig,
    Site,
    TCProtocol,
    TMProtocol,
    TriggerKind,
    TriggerPolicy,
    activate_topology,
    alive_count,
    comm_coverage,
    construct,
    critical_transmission_range,
    deploy,
    distance,
    initialize,
    received_power,
    run,
    rx_energy,
    sense_probability,
    sensing_coverage,
    sink_reachable,
    step,
    tx_energy,
)
from wsnlife.experiment import ExperimentSpec, run_experiment

from helpers import GRID_CELL, make_state

getcontext().prec = 50
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937511")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def desk_config(tm, seed, tc=TCProtocol.A3):
    """Desk-scale scenario: 100 nodes on 300 x 200 m, R = 60 m, r = 15 m,
    budgets small enough that relays burn out well inside the horizon."""
    kind = tm.trigger_kind if tm is not None else TriggerKind.ENERGY
    return SimConfig(
        deployment=DeploymentConfig(
            node_count=100, area=DeploymentArea(300.0, 200.0), seed=seed
        ),
        radio=RadioParams(communication_radius=60.0, sensing_radius=15.0),
        energy=EnergyParams(initial_energy=0.02),
        tc=tc,
        tm=tm,
        trigger=TriggerPolicy(kind, period=25, energy_threshold=0.6),
        max_steps=1500,
        metrics_stride=10,
    )


def reach_crossing(result, node_count):
    threshold = 0.10 * node_count
    for sample in result.series:
        if sample.sink_reachable < threshold:
            return sample.time
    return result.series[-1].time


def test_criterion_1_formula_fidelity():
    with criterion(1, "formula fidelity"):
        energy = EnergyParams()
        assert tx_energy(energy, 1000, 100.0) == pytest.approx(1.5e-4, rel=1e-15)
        assert rx_energy(energy, 1000) == pytest.approx(5.0e-5, rel=1e-15)

        # received power against plain Decimal evaluation of the model form
        for p_t, d in ((1.0, 1.0), (1.0, 10.0), (2.0, 7.0), (0.25, 3.0)):
            radio = RadioParams(tx_power=p_t)
            expected = float(Decimal(p_t) / Decimal(d) ** 4)
            assert received_power(radio, d) == pytest.approx(expected, rel=1e-12)
        assert received_power(RadioParams(), 10.0) == pytest.approx(1e-4, rel=1e-12)

        for n in (2, 10, 300, 10**6):
            for f in ("zero", "loglog"):
                ln_n = Decimal(n).ln()
                extra = ln_n.ln() if (f == "loglog" and n >= 3) else Decimal(0)
                expected = float(((ln_n + extra) / (Decimal(n) * PI_50)).sqrt())
                got = critical_transmission_range(n, f)
                assert got == pytest.approx(expected, rel=1e-12)
        assert critical_transmission_range(300, "loglog") == pytest.approx(
            0.0889, abs=5e-5
        )


def test_criterion_2_sensing_model():
    with criterion(2, "sensing model piecewise boundaries"):
        sp = SensingParams()  # r_u = 2, lambda = 0.5, beta = 1, p_min = 0.5
        r = 20.0
        for x in (0.0, 5.0, 17.999, 18.0):
            assert sense_probability(sp, r, x) == 1.0
        for x in (22.0000001, 30.0, 1e6):
            assert sense_probability(sp, r, x) == 0.0
        # continuity at the inner edge
        assert sense_probability(sp, r, 18.0 + 1e-12) == pytest.approx(1.0, abs=1e-10)
        # alpha = 1 midpoint
        assert sense_probability(sp, r, 19.0) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
        # outer edge value, then the drop to zero
        assert sense_probability(sp, r, 22.0) == pytest.approx(
            math.exp(-0.5 * 4.0), rel=1e-12
        )


def test_criterion_3_cds_properties():
    with criterion(3, "CDS construction properties"):
        params = A3Params()
        sp = SensingParams()
        area = DeploymentArea(250.0, 250.0)
        radio = RadioParams()
        energy = EnergyParams()
        rng = random.Random(20240808)
        for _ in range(1000):
            n = rng.randint(5, 50)
            config = DeploymentConfig(node_count=n, area=area, seed=rng.getrandbits(64))
            state = deploy(Site(config, radio, sp, GRID_CELL), energy)
            twin = deploy(Site(config, radio, sp, GRID_CELL), energy)
            cov_state = deploy(Site(config, radio, sp, GRID_CELL), energy)

            topology, _ = construct(state, TCProtocol.A3, params)
            again, _ = construct(twin, TCProtocol.A3, params)
            assert again.parent == topology.parent, "construction not deterministic"
            assert again.active_set == topology.active_set

            # tree-connectivity: acyclic parent chains ending at the sink
            assert SINK_ID not in topology.parent
            for child in topology.parent:
                seen = {child}
                node = child
                while node != SINK_ID:
                    node = topology.parent[node]
                    assert node not in seen, "cycle in parent links"
                    seen.add(node)
            for nid in topology.active_set - {SINK_ID}:
                assert nid in topology.parent

            # domination over the sink's disk-graph component
            radius = radio.communication_radius
            alive = [m.id for m in state.nodes if m.alive]
            component = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for a in frontier:
                    for b in alive:
                        if b not in component and distance(
                            state.nodes[a].position, state.nodes[b].position
                        ) <= radius:
                            component.add(b)
                            nxt.append(b)
                frontier = nxt
            for nid in component - topology.active_set - {0}:
                assert any(
                    distance(state.nodes[nid].position, state.nodes[a].position)
                    <= radius
                    for a in topology.active_set
                ), "reachable node left undominated"

            cov_topology, _ = construct(cov_state, TCProtocol.A3COV, params)
            assert topology.active_set <= cov_topology.active_set
            activate_topology(state, topology)
            activate_topology(cov_state, cov_topology)
            assert sensing_coverage(
                cov_state.site, sink_reachable(cov_state)
            ) >= sensing_coverage(state.site, sink_reachable(state))


def test_criterion_4_reachability_oracle():
    with criterion(4, "sink reachability matches brute-force closure"):
        rng = random.Random(77)
        for _ in range(500):
            n = rng.randint(1, 20)
            positions = [
                (rng.uniform(0, 200.0), rng.uniform(0, 200.0)) for _ in range(n)
            ]
            radius = rng.choice([60.0, 90.0, 120.0])
            active = [i for i in range(1, n) if rng.random() < 0.6]
            dead = [i for i in range(1, n) if rng.random() < 0.2]
            state = make_state(
                positions,
                radio=RadioParams(communication_radius=radius),
                active=active,
                dead=dead,
            )
            got = sink_reachable(state)

            members = [0] + [m for m in active if state.nodes[m].alive]
            closure = {0}
            changed = True
            while changed:
                changed = False
                for a in sorted(closure):
                    for b in members:
                        if b not in closure and distance(
                            state.nodes[a].position, state.nodes[b].position
                        ) <= radius:
                            closure.add(b)
                            changed = True
            assert got == closure


def test_criterion_5_energy_conservation_full_run():
    with criterion(5, "energy conservation on the full default run"):
        config = SimConfig()  # 300 nodes, 1074 x 660, 5000 steps
        state, strategy = initialize(config)
        initial = config.energy.initial_energy * (len(state.nodes) - 1)
        alive_series = [alive_count(state)]

        def ledger_holds():
            current = sum(n.energy for n in state.nodes if n.id != 0)
            assert math.isclose(
                initial - current, state.energy_ledger, rel_tol=1e-9, abs_tol=1e-15
            )

        ledger_holds()
        while state.time < config.max_steps:
            step(state, strategy, config)
            if state.time % config.metrics_stride == 0:
                ledger_holds()
                alive_series.append(alive_count(state))
        assert state.time == config.max_steps
        assert all(a >= b for a, b in zip(alive_series, alive_series[1:]))


def test_criterion_6_coverage_estimator_stability():
    with criterion(6, "coverage estimator stability"):
        # geometric oracle: lone sink centered in 200 x 200 with R = 100
        lone = make_state([(100.0, 100.0)], area=DeploymentArea(200.0, 200.0))
        assert comm_coverage(lone.site, sink_reachable(lone)) == pytest.approx(
            math.pi / 4, abs=0.01
        )

        # grid refinement on a seeded 300-node scenario: two sites of one
        # deployment, of 4 m and 2 m cells
        config = SimConfig()
        assert config.grid_cell == 4.0
        state, _ = initialize(config)
        reach = sink_reachable(state)
        coarse = state.site
        fine = Site(config.deployment, config.radio, config.sensing, 2.0)
        assert fine.positions == coarse.positions
        assert (
            abs(comm_coverage(coarse, reach) - comm_coverage(fine, reach))
            < 0.01
        )
        assert (
            abs(sensing_coverage(coarse, reach) - sensing_coverage(fine, reach))
            < 0.01
        )


def test_criterion_7_maintenance_benefit():
    with criterion(7, "maintenance extends useful lifetime"):
        seeds = list(range(1, 11))
        n = 100
        baseline = [
            reach_crossing(run(desk_config(None, seed)), n) for seed in seeds
        ]
        baseline_mean = sum(baseline) / len(baseline)
        for tm in TMProtocol:
            values = [reach_crossing(run(desk_config(tm, seed)), n) for seed in seeds]
            mean = sum(values) / len(values)
            print(
                f"  time-to-10%-reachability mean: {tm.value} {mean:.0f} "
                f"vs baseline {baseline_mean:.0f}"
            )
            assert mean >= baseline_mean, tm.value


def test_criterion_8_qualitative_sweep(tmp_path):
    with criterion(8, "full protocol sweep completes with ranking"):
        base = desk_config(TMProtocol.DGETREC, 1)
        spec = ExperimentSpec(
            base=base,
            tc_list=["A3", "A3Cov"],
            tm_list=[p.value for p in TMProtocol],
            seeds=list(range(1, 11)),
            output_dir=tmp_path / "sweep",
        )
        written = run_experiment(spec)
        series = [p for p in written if p.name.startswith("series_")]
        assert len(series) == 120
        summary = tmp_path / "sweep" / "summary.csv"
        ranking = tmp_path / "sweep" / "ranking.txt"
        assert summary.exists() and ranking.exists()
        text = ranking.read_text()
        assert "A3+DGETRec rank:" in text
        rank_line = [l for l in text.splitlines() if l.startswith("A3+DGETRec rank")][0]
        print(f"  {rank_line} (reported, not gated)")


def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "sweep outputs byte-identical across executions"):
        base = desk_config(TMProtocol.DGETREC, 1)
        trees = []
        for label in ("first", "second"):
            spec = ExperimentSpec(
                base=base,
                tc_list=["A3", "A3Cov"],
                tm_list=["DGETRec", "SGTTRot"],
                seeds=[1, 2],
                output_dir=tmp_path / label,
            )
            files = run_experiment(spec)
            trees.append({p.name: p.read_bytes() for p in files})
        assert trees[0].keys() == trees[1].keys()
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], name


def test_criterion_10_protocol_distinctness():
    with criterion(10, "six maintenance protocols behave distinctly"):
        series = {}
        for tm in TMProtocol:
            result = run(desk_config(tm, 1))
            series[tm.value] = [
                (
                    s.time,
                    s.alive,
                    s.sink_reachable,
                    s.comm_coverage,
                    s.sensing_coverage,
                )
                for s in result.series
            ]
        for a, b in itertools.combinations(sorted(series), 2):
            assert series[a] != series[b], f"{a} and {b} produced identical series"
