"""Workload generators, measurement, and paper-experiment drivers."""

from .experiments import (
    ClosedLoopDriver,
    OpenLoopDriver,
    build_cluster,
    measure_burst_latency,
    measure_failover,
    measure_goodput,
    measure_latency_at_load,
)
from .fleet import (
    ClientFleet,
    FleetConfig,
    ServingDriver,
    run_serving_cell,
)
from .generators import (
    SplitMix64,
    UniformGenerator,
    YcsbWorkload,
    ZipfianGenerator,
    zipf_share,
)
from .metrics import LatencyRecorder, ThroughputWindow, percentile

__all__ = [
    "ClientFleet",
    "ClosedLoopDriver",
    "FleetConfig",
    "LatencyRecorder",
    "OpenLoopDriver",
    "ServingDriver",
    "SplitMix64",
    "ThroughputWindow",
    "UniformGenerator",
    "YcsbWorkload",
    "ZipfianGenerator",
    "build_cluster",
    "measure_burst_latency",
    "measure_failover",
    "measure_goodput",
    "measure_latency_at_load",
    "percentile",
    "run_serving_cell",
    "zipf_share",
]
