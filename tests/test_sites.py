"""Shared sites against fresh ones: each cell run on a site that earlier
cells filled (initial states, promotion inputs, the grid's footprints and
coverages) gives the bits a run on a fresh site gives, and a site is freed
without the cycle collector once its last run is done."""
import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from wsnlife import (
    A3Params,
    DeploymentArea,
    DeploymentConfig,
    EnergyParams,
    RadioParams,
    SimConfig,
    Site,
    StrategyKind,
    TCProtocol,
    TMProtocol,
    TriggerPolicy,
    run,
)

# The maintenance protocols that rebuild the tree when they fire: their
# later constructions test sleepers whose neighbours died in the run.
RECREATING = [tm for tm in TMProtocol if tm.strategy_kind is not StrategyKind.STATIC_ROTATION]


# Batteries that a construction's handshakes drain dry in the nodes far
# enough from their parents, and batteries that last some hundred steps.
HANDSHAKE_ENERGY = st.floats(1.3e-5, 3e-5)
RUN_ENERGY = st.floats(0.002, 0.01)


@st.composite
def cells(draw, base, tms, energies):
    """A config on base's site that differs from base in everything a site
    is not keyed on: tc, tm, trigger, energy, a3 and rotation_k. Most are
    A3Cov."""
    tm = draw(tms)
    weight = draw(st.sampled_from([0.5, 0.0, 0.25, 1.0]))
    return SimConfig(
        deployment=base.deployment,
        radio=base.radio,
        sensing=base.sensing,
        grid_cell=base.grid_cell,
        max_steps=base.max_steps,
        metrics_stride=base.metrics_stride,
        tc=draw(st.sampled_from([TCProtocol.A3COV, TCProtocol.A3COV, TCProtocol.A3])),
        tm=tm,
        trigger=TriggerPolicy(
            base.trigger.kind if tm is None else tm.trigger_kind,
            period=draw(st.integers(3, 30)),
            energy_threshold=draw(st.sampled_from([0.6, 0.01, 0.9])),
        ),
        energy=EnergyParams(initial_energy=draw(energies)),
        a3=A3Params(energy_weight=weight, distance_weight=1.0 - weight),
        rotation_k=draw(st.integers(1, 4)),
    )


@st.composite
def cells_of_one_site(draw):
    """The cells run in turn on one small site: first recreating cells
    whose handshakes kill, which leave the site's kept state built while
    some nodes are dead, then any cells whose batteries last."""
    side = st.floats(50.0, 250.0)
    base = SimConfig(
        deployment=DeploymentConfig(
            node_count=draw(st.integers(10, 60)),
            area=DeploymentArea(draw(side), draw(side)),
            seed=draw(st.integers(0, 2**64 - 1)),
        ),
        radio=RadioParams(
            communication_radius=draw(st.floats(20.0, 90.0)),
            sensing_radius=draw(st.floats(5.0, 30.0)),
        ),
        grid_cell=draw(st.sampled_from([4.0, 7.0])),
        max_steps=300,
        metrics_stride=draw(st.integers(5, 50)),
    )
    recreating = cells(base, st.sampled_from(RECREATING), HANDSHAKE_ENERGY)
    # a few batteries, so that later cells often restore a kept initial state
    energies = st.sampled_from(draw(st.lists(RUN_ENERGY, min_size=1, max_size=2)))
    any_cell = cells(base, st.sampled_from([*TMProtocol, None]), energies)
    first = draw(st.lists(recreating, min_size=1, max_size=2))
    return first + draw(st.lists(any_cell, min_size=2, max_size=6))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(cells_of_one_site())
def test_cells_on_a_shared_site_match_fresh_sites(configs):
    first = configs[0]
    site = Site(first.deployment, first.radio, first.sensing, first.grid_cell)
    for config in configs:
        assert run(config, site).to_dict() == run(config).to_dict()


def test_a_site_is_freed_without_the_cycle_collector():
    # a reference cycle through the site (say, a grid that held its site)
    # would keep every lone run's site, and all it built, until the cycle
    # collector ran
    config = SimConfig(
        deployment=DeploymentConfig(node_count=30, area=DeploymentArea(150.0, 100.0)),
        tc=TCProtocol.A3COV,
        tm=TMProtocol.DGETREC,
        energy=EnergyParams(initial_energy=0.01),
        max_steps=60,
        metrics_stride=10,
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        site = Site(config.deployment, config.radio, config.sensing, config.grid_cell)
        run(config, site)
        assert "grid" in vars(site) and site.sensors
        ref = weakref.ref(site)
        del site
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
