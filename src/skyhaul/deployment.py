"""Fleet sizing and hub placement.

The hub count is derived from demand before any hub exists: an estimated
average spectral efficiency converts the mean demanded rate into a mean
bandwidth need, which caps how many cells one hub can carry; ceiling division
then sizes the fleet. Hubs are placed by the same hard-core process as cells,
at a fixed altitude.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import HardCoreSpec, matern_type1
from .units import Seed, sub_seed

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig

PLACEMENT_RETRIES = 8


class DeploymentError(RuntimeError):
    pass


class PlacementError(DeploymentError):
    """Hard-core draws kept coming up short of the requested hub count."""


class FleetInfeasibleError(DeploymentError):
    """Per-hub capacity is zero; no fleet size can cover the cells."""


class DegenerateDemandError(ValueError):
    """All demanded rates are zero, so average bandwidth need is undefined."""


@dataclass(frozen=True)
class Layout:
    """Ground cells, their demands and the hovering hubs, as arrays.

    Per-hub caps are not stored: every hub carries the scenario's
    hub_bandwidth_hz and hub_link_cap.
    """

    cells: np.ndarray  # (n, 2) ground positions x, y in meters
    rates: np.ndarray  # (n,) demanded rate per cell, bps
    hubs: np.ndarray  # (m, 3) positions x, y and altitude h in meters


@dataclass(frozen=True)
class FleetPlan:
    """Record of the sizing arithmetic that produced a hub fleet."""

    per_hub_cell_cap: int
    avg_bandwidth_hz: float
    hub_min_sep_m: float


def mean_bandwidth_hz(rates: list[float], avg_spec_eff: float) -> float:
    """The average cell's bandwidth need, b_avg = mean(rates) / avg_spec_eff."""
    if not rates:
        raise ValueError("rates must be nonempty")
    if not (avg_spec_eff > 0):
        raise ValueError("avg_spec_eff must be positive")
    mean_rate = math.fsum(rates) / len(rates)
    if mean_rate == 0:
        raise DegenerateDemandError("all demanded rates are zero")
    return mean_rate / avg_spec_eff


def cells_per_hub(bandwidth_cap_hz: float, rates: list[float], avg_spec_eff: float) -> int:
    """How many cells one hub's bandwidth can carry on average.

    floor(B / b_avg) with b_avg from mean_bandwidth_hz. Returns 0 when even
    one average cell does not fit; callers must treat that as infeasible.
    Raises OverflowError when B / b_avg overflows to inf.
    """
    return math.floor(bandwidth_cap_hz / mean_bandwidth_hz(rates, avg_spec_eff))


def fleet_size(n_cells: int, link_cap: int, cells_per_hub: int) -> int:
    """Hubs needed to cover n_cells: ceil(n_cells / min(link_cap, cells_per_hub))."""
    per_hub = min(link_cap, cells_per_hub)
    if per_hub < 1:
        raise FleetInfeasibleError("per-hub cell capacity is zero")
    return -(-n_cells // per_hub)


def place_fleet(cfg: "ScenarioConfig", n_hubs: int, min_sep: float, seed: Seed) -> np.ndarray:
    """Place `n_hubs` hubs at the ceiling altitude with hard-core separation,
    as an (n_hubs, 3) array of x, y, h rows.

    Draws a hard-core layout at the scenario's parent intensity and takes the
    first n_hubs points in generation order. A short draw is retried with a
    derived sub-seed, up to PLACEMENT_RETRIES times; running out of retries
    means the region cannot reliably fit the fleet at this separation. A
    separation outside (0, area side) raises PlacementError at once: the
    hard-core process is undefined there.
    """
    if n_hubs < 1:
        raise ValueError("n_hubs must be >= 1")
    if min_sep >= cfg.area_side_m:
        raise PlacementError(
            f"hub min separation {min_sep:.0f} m is not below the area side "
            f"{cfg.area_side_m:.0f} m")
    if not min_sep > 0:
        # coverage_radius is 0 where the ceiling equals the loss at s = 0
        raise PlacementError(
            f"hub min separation {min_sep!r} m is not positive, as the coverage "
            f"radius is when pl_max_db = {cfg.pl_max_db!r} dB is the path loss "
            f"straight below a hub")
    spec = HardCoreSpec(cfg.area_side_m, cfg.cell_intensity_per_m2, min_sep)
    for attempt in range(PLACEMENT_RETRIES + 1):
        attempt_seed = seed if attempt == 0 else sub_seed(seed, attempt)
        points = matern_type1(spec, attempt_seed)
        if len(points) >= n_hubs:
            return np.column_stack((points[:n_hubs],
                                    np.full(n_hubs, cfg.hub_altitude_m)))
    raise PlacementError(
        f"could not draw {n_hubs} hubs at min separation {min_sep:.0f} m "
        f"after {PLACEMENT_RETRIES + 1} attempts"
    )
