"""Deterministic lifetime simulator for wireless sensor networks under
topology construction (A3, A3Cov) and maintenance (rotation, recreation,
hybrid; time- or energy-triggered)."""

from .construction import A3Params, ConstructionCharge, TCProtocol, construct
from .deployment import DeploymentConfig, Site, deploy
from .engine import RunResult, SimConfig, initialize, run, step, validate_config
from .errors import ConfigError
from .maintenance import (
    MaintenanceStrategy,
    StrategyKind,
    TMProtocol,
    TriggerKind,
    TriggerPolicy,
    activate_topology,
    maintain,
    precompute_rotation_set,
    should_trigger,
)
from .metrics import (
    CoverageGrid,
    MetricsSample,
    alive_count,
    comm_coverage,
    sense_probabilities,
    sense_probability,
    sensing_coverage,
    sink_reachable,
)
from .model import (
    SINK_ID,
    DeploymentArea,
    EnergyParams,
    NetworkState,
    Node,
    Point,
    RadioParams,
    SensingParams,
    Topology,
    distance,
)
from .radio import (
    comm_range,
    critical_transmission_range,
    critical_transmission_range_meters,
    received_power,
    rx_energy,
    tx_energy,
)

__version__ = "0.1.0"

__all__ = [
    "A3Params",
    "ConfigError",
    "ConstructionCharge",
    "CoverageGrid",
    "DeploymentArea",
    "DeploymentConfig",
    "EnergyParams",
    "MaintenanceStrategy",
    "MetricsSample",
    "NetworkState",
    "Node",
    "Point",
    "RadioParams",
    "RunResult",
    "SINK_ID",
    "SensingParams",
    "SimConfig",
    "Site",
    "StrategyKind",
    "TCProtocol",
    "TMProtocol",
    "Topology",
    "TriggerKind",
    "TriggerPolicy",
    "activate_topology",
    "alive_count",
    "comm_coverage",
    "comm_range",
    "construct",
    "critical_transmission_range",
    "critical_transmission_range_meters",
    "deploy",
    "distance",
    "initialize",
    "maintain",
    "precompute_rotation_set",
    "received_power",
    "run",
    "rx_energy",
    "sense_probabilities",
    "sense_probability",
    "sensing_coverage",
    "should_trigger",
    "sink_reachable",
    "step",
    "tx_energy",
    "validate_config",
]
