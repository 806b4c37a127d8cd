"""skyhaul: aerial backhaul hub placement and cell association.

Seedable simulation of small cells served by hovering backhaul hubs: a
hard-core ground layout, an elevation-dependent air-to-ground channel, fleet
sizing from average demand, and a cell-to-hub association solved both by a
three-step greedy and by an exact branch-and-bound benchmark.
"""

from .association import (AssociationMatrix, FeasibilityReport,
                          ProblemInstance, check_feasible, empty_association,
                          objective, solve_greedy)
from .channel import (ChannelParams, CoverageError, LinkTable,
                      build_link_table, coverage_radius, p_los, path_loss_db)
from .config import ConfigError, ScenarioConfig, load_config, table1_urban
from .deployment import (DeploymentError, FleetPlan, Layout, PlacementError,
                         cells_per_hub, fleet_size, place_fleet)
from .exact import NodeBudgetExceeded, SizeGuardError, solve_exact
from .geometry import HardCoreSpec, hardcore_thin, matern_type1, poisson_points
from .harness import (PreparedScenario, RunResult, SeedSearchError,
                      complexity_sweep, prepare_scenario, run_scenario,
                      seed_search, sweep_constraints)
from .instances import random_instance
from .report import SolveReport
from .units import RNG_ALGORITHM, make_rng, sub_seed

__version__ = "0.1.0"

__all__ = [
    "AssociationMatrix", "FeasibilityReport", "ProblemInstance",
    "check_feasible", "empty_association", "objective", "solve_greedy",
    "ChannelParams", "CoverageError", "LinkTable",
    "build_link_table", "coverage_radius", "p_los", "path_loss_db",
    "ConfigError", "ScenarioConfig", "load_config", "table1_urban",
    "DeploymentError", "FleetPlan", "Layout", "PlacementError",
    "cells_per_hub", "fleet_size", "place_fleet",
    "NodeBudgetExceeded", "SizeGuardError", "solve_exact",
    "HardCoreSpec", "hardcore_thin", "matern_type1", "poisson_points",
    "PreparedScenario", "RunResult", "SeedSearchError", "complexity_sweep",
    "prepare_scenario", "run_scenario", "seed_search", "sweep_constraints",
    "random_instance", "SolveReport", "RNG_ALGORITHM", "make_rng", "sub_seed",
]
