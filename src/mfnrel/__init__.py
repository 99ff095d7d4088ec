"""Exact reliability evaluation for multistate flow networks under joint
time and budget limits, plus the benchmarking lab around it."""

__version__ = "0.1.0"

from .errors import ParseError, ResourceLimitError
from .model import (
    Arc,
    MinimalPath,
    Network,
    Query,
    StateVector,
    path_stats,
)
from .paths import MpCatalog, enumerate_mps
from .solver import SolutionSet, min_feasible_capacity, solve_a1, solve_a2
from .reliability import (
    TailTable,
    brute_force_reliability,
    reliability,
    union_prob_ie,
)
from .bench import (
    BenchRecord,
    GenConfig,
    GeneratedInstance,
    ProfileData,
    capacity_distribution,
    demand_grid,
    derive_query,
    fig3_fixture,
    generate_instance,
    pan_european_fixture,
    performance_profile,
    run_benchmark,
)
from .instance_io import ParsedInstance, parse, parse_file, write, write_file

__all__ = [
    "__version__",
    "Arc",
    "BenchRecord",
    "GenConfig",
    "GeneratedInstance",
    "MinimalPath",
    "MpCatalog",
    "Network",
    "ParseError",
    "ParsedInstance",
    "ProfileData",
    "Query",
    "ResourceLimitError",
    "SolutionSet",
    "StateVector",
    "TailTable",
    "brute_force_reliability",
    "capacity_distribution",
    "demand_grid",
    "derive_query",
    "enumerate_mps",
    "fig3_fixture",
    "generate_instance",
    "min_feasible_capacity",
    "pan_european_fixture",
    "parse",
    "parse_file",
    "path_stats",
    "performance_profile",
    "reliability",
    "run_benchmark",
    "solve_a1",
    "solve_a2",
    "union_prob_ie",
    "write",
    "write_file",
]
