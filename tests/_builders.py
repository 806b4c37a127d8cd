"""Hand-built layouts for channel tests and problem instances for solver
tests.

LinkTable fields are set directly so SINR and bandwidth values can be chosen
exactly; the channel tests cover the definitional links between the fields.
"""

import numpy as np

from skyhaul.association import ProblemInstance
from skyhaul.channel import LinkTable
from skyhaul.deployment import Layout


def make_layout(cells, hubs, rate_bps=60e6) -> Layout:
    """Layout from (x, y) cell rows and (x, y, h) hub rows, every cell
    demanding `rate_bps`."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 2)
    return Layout(cells=cells, rates=np.full(len(cells), rate_bps),
                  hubs=np.asarray(hubs, dtype=float).reshape(-1, 3))


def make_instance(sinr_db, bandwidth_hz, rates, *, backhaul_cap_bps=1e18,
                  hub_bandwidth_cap_hz=1e18, hub_link_cap=None,
                  sinr_min_db=-5.0) -> ProblemInstance:
    sinr_db = np.asarray(sinr_db, dtype=float)
    bandwidth_hz = np.asarray(bandwidth_hz, dtype=float)
    rates = np.asarray(rates, dtype=float)
    n, m = sinr_db.shape
    lin = 10.0 ** (sinr_db / 10.0)
    table = LinkTable(pl_db=np.zeros((n, m)), sinr_db=sinr_db,
                      spec_eff=np.log2(1.0 + lin), bandwidth_hz=bandwidth_hz)
    if hub_link_cap is None:
        hub_link_cap = n
    return ProblemInstance(
        link_table=table,
        rates=rates,
        backhaul_cap_bps=backhaul_cap_bps,
        hub_bandwidth_caps=np.full(m, hub_bandwidth_cap_hz, dtype=float),
        hub_link_caps=np.full(m, hub_link_cap, dtype=int),
        sinr_min_db=sinr_min_db,
    )
