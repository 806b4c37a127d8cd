"""Synthetic association instances for tests and benchmarks.

These bypass the geometry and channel layers entirely: SINR values are drawn
directly, so instances are tiny to build and easy to shape (tight or loose
caps, many or few admissible links) while still exercising every constraint
the solvers care about.
"""

import math

import numpy as np

from .association import ProblemInstance
from .channel import LinkTable
from .config import ScenarioConfig
from .units import Seed, make_rng

RATE_MENU_BPS = ScenarioConfig.rate_menu_bps


def random_instance(seed: Seed, n_cells: int, n_hubs: int, *,
                    rate_menu_bps: tuple[float, ...] = RATE_MENU_BPS,
                    sinr_min_db: float = -5.0,
                    tight: bool = False,
                    link_cap: int | None = None) -> ProblemInstance:
    """Build a random instance with menu-valued demands.

    SINR draws are uniform on [-15, 30) dB so a healthy mix of links clears
    the -5 dB default admission bar. With tight=True the backhaul and
    bandwidth caps are scaled so the solvers are forced to leave demand on
    the table; otherwise caps are roomy and mostly the link caps bind.
    link_cap overrides the per-hub link limit either way, which keeps the
    limit fixed across a size sweep.
    """
    if n_cells < 1 or n_hubs < 1:
        raise ValueError("need at least one cell and one hub")
    rng = make_rng(seed)
    rates = rng.choice(np.asarray(rate_menu_bps), size=n_cells)
    sinr_db = rng.uniform(-15.0, 30.0, size=(n_cells, n_hubs))
    sinr_lin = 10.0 ** (sinr_db / 10.0)
    spec_eff = np.log2(1.0 + sinr_lin)
    bandwidth_hz = rates[:, None] / spec_eff
    pl_db = rng.uniform(60.0, 110.0, size=(n_cells, n_hubs))
    table = LinkTable(pl_db=pl_db, sinr_db=sinr_db, spec_eff=spec_eff,
                      bandwidth_hz=bandwidth_hz)

    total = math.fsum(float(r) for r in rates)
    if tight:
        backhaul = 0.6 * total
        per_hub_bw = float(np.median(bandwidth_hz)) * max(n_cells // n_hubs, 1)
        cap = max(n_cells // (n_hubs + 1), 1)
    else:
        backhaul = 2.0 * total
        per_hub_bw = float(bandwidth_hz.sum())
        cap = n_cells
    if link_cap is not None:
        cap = link_cap
    return ProblemInstance(
        link_table=table,
        rates=rates.astype(float),
        backhaul_cap_bps=backhaul,
        hub_bandwidth_caps=np.full(n_hubs, per_hub_bw),
        hub_link_caps=np.full(n_hubs, cap, dtype=int),
        sinr_min_db=sinr_min_db,
    )
