"""Solver run reports."""

from dataclasses import dataclass

from .units import RNG_ALGORITHM, Seed


@dataclass
class SolveReport:
    method: str
    sum_rate_bps: float
    n_associated: int
    per_hub_links: tuple[int, ...]
    hubs_in_use: int
    wall_time_s: float
    op_count: int
    node_count: int | None = None  # exact solver only
    feasible: bool | None = None  # check_feasible's verdict, filled in by the harness
    rng_algorithm: str = RNG_ALGORITHM
    seed: Seed | None = None  # scenario seed, filled in by the harness
