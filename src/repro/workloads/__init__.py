"""Workload traces: generators and the paper's web-log stand-in."""

from repro.workloads.generators import (
    mmpp_trace,
    nonhomogeneous_poisson,
    poisson_trace,
    worldcup_like_trace,
)
from repro.workloads.perturb import inject_burst, inject_stall
from repro.workloads.selfsimilar import estimate_hurst, pareto_onoff_trace
from repro.workloads.trace import Trace, merge_traces

__all__ = [
    "Trace",
    "estimate_hurst",
    "inject_burst",
    "inject_stall",
    "pareto_onoff_trace",
    "merge_traces",
    "mmpp_trace",
    "nonhomogeneous_poisson",
    "poisson_trace",
    "worldcup_like_trace",
]
