"""Air-to-ground channel model.

Line-of-sight probability follows the standard logistic model in the
elevation angle; mean path loss adds angle-weighted LoS/NLoS excess losses on
top of free-space loss. SINR treats every hub as a co-channel interferer
transmitting continuously at full power. Every function here works
elementwise on numpy arrays; a whole cell x hub table is one evaluation.

ChannelParams holds the environment constants that the propagation
functions take on their own. build_link_table reads the link budget
(tx_power_w, noise_w) straight from the ScenarioConfig, which validates it.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig
    from .deployment import Layout

LIGHT_SPEED = 2.998e8  # m/s
# coverage_radius doubles its bracket from max(h, 1) at most this many times
BRACKET_DOUBLINGS = 60
# and judges the midpoints of the next 6 bisection levels in one call
_SUBTREE_SIZE = 2 ** 6 - 1


class CoverageError(RuntimeError):
    """Coverage-radius inversion has no solution in the bracket."""


@dataclass(frozen=True)
class ChannelParams:
    """Environment constants of the air-to-ground propagation model."""

    alpha: float  # logistic LoS-probability constant, environment dependent
    beta: float  # logistic LoS-probability slope, environment dependent
    eta_los_db: float  # excess loss on LoS links, dB
    eta_nlos_db: float  # excess loss on NLoS links, dB
    carrier_hz: float
    pl_exponent: float = 2.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if not (0 <= self.eta_los_db <= self.eta_nlos_db):
            raise ValueError("need 0 <= eta_los_db <= eta_nlos_db")
        if not (self.carrier_hz > 0):
            raise ValueError("carrier_hz must be positive")
        if not (self.pl_exponent >= 2):
            raise ValueError("pl_exponent must be >= 2")


@dataclass(frozen=True)
class LinkTable:
    """Per (cell, hub) link metrics, all matrices shaped n_cells x n_hubs."""

    pl_db: np.ndarray
    sinr_db: np.ndarray
    spec_eff: np.ndarray  # bits/s/Hz
    bandwidth_hz: np.ndarray  # bandwidth needed to carry the demanded rate

    @property
    def n_cells(self) -> int:
        return self.pl_db.shape[0]

    @property
    def n_hubs(self) -> int:
        return self.pl_db.shape[1]


def p_los(params: ChannelParams, theta):
    """Line-of-sight probability at elevation angle `theta` (radians),
    elementwise.

    1 / (1 + alpha * exp(-beta * (theta_deg - alpha))), strictly increasing
    in theta and confined to (0, 1). Valid for 0 < theta <= pi/2.
    """
    if not np.all((0.0 < theta) & (theta <= math.pi / 2)):
        raise ValueError(f"elevation angle outside (0, pi/2]: {theta}")
    theta_deg = np.degrees(theta)
    return 1.0 / (1.0 + params.alpha * np.exp(-params.beta * (theta_deg - params.alpha)))


def path_loss_db(params: ChannelParams, s, h):
    """Mean air-to-ground path loss in dB at ground distance `s` from a hub
    at altitude `h`, elementwise (s and h broadcast against each other).

    Free-space loss over the slant distance d = sqrt(h^2 + s^2), plus the
    LoS/NLoS excess losses weighted by P(LoS) and 1 - P(LoS) at the elevation
    angle atan(h / s).

    Strictly increasing in s at fixed h: free-space loss grows with d, and
    the excess loss eta_nlos - P(LoS) * (eta_nlos - eta_los) cannot fall
    because P(LoS) falls with the angle and ChannelParams enforces
    eta_los_db <= eta_nlos_db. coverage_radius relies on this.
    """
    d = np.hypot(h, s)
    if np.any(d == 0.0):
        raise ValueError("cell and hub are co-located")
    # np.power, not **: numpy's scalar ** goes through the C library's pow,
    # which can differ in the last ulp from the array loop, and a point must
    # get the same loss alone as inside an array
    fspl = 10.0 * np.log10(np.power(4.0 * math.pi * params.carrier_hz * d / LIGHT_SPEED,
                                    params.pl_exponent))
    p = p_los(params, np.arctan2(h, s))
    return fspl + p * params.eta_los_db + (1.0 - p) * params.eta_nlos_db


def build_link_table(cfg: "ScenarioConfig", layout: "Layout") -> LinkTable:
    """Evaluate path loss, SINR, spectral efficiency and bandwidth demand for
    every (cell, hub) pair of a layout.

    Each cell demands the same rate from every hub, so the bandwidth demand
    of pair (i, j) is rate_i / spec_eff_ij. Where the SINR is so small that
    log2(1 + sinr) rounds to 0, that demand is inf: the link carries
    nothing, and `admit` refuses it under any finite bandwidth cap.
    """
    cells, hubs = layout.cells, layout.hubs
    if len(cells) == 0 or len(hubs) == 0:
        raise ValueError("layout must contain at least one cell and one hub")
    s = np.hypot(cells[:, None, 0] - hubs[None, :, 0],
                 cells[:, None, 1] - hubs[None, :, 1])
    pl = path_loss_db(cfg.channel, s, hubs[None, :, 2])
    rx = cfg.tx_power_w * 10.0 ** (-pl / 10.0)

    # The interference at cell i from every hub but j is the fsum of row i
    # minus rx_ij: one exact row sum, so no result depends on hub order.
    total = np.array([math.fsum(row) for row in rx.tolist()])
    sinr = rx / (total[:, None] - rx + cfg.noise_w)

    sinr_db = 10.0 * np.log10(sinr)
    spec_eff = np.log2(1.0 + sinr)
    with np.errstate(divide="ignore"):
        bandwidth = layout.rates[:, None] / spec_eff
    return LinkTable(pl_db=pl, sinr_db=sinr_db, spec_eff=spec_eff, bandwidth_hz=bandwidth)


def coverage_radius(params: ChannelParams, h: float, pl_max_db: float) -> float:
    """Horizontal distance at which the path loss reaches `pl_max_db`.

    Solved by bisection on s at fixed altitude h. The root is unique since
    path_loss_db is strictly increasing in s. The bisection's midpoints are
    judged a subtree at a time: the next six levels of midpoints below the
    current bracket go through one path_loss_db call, and the walk
    then takes the same steps, on the same doubles, as a one-point-at-a-time
    bisection. A loss that overflows to inf is past any ceiling, and at
    s = 0 one that underflows to -inf is below it.
    """
    with np.errstate(divide="ignore"):
        pl0 = path_loss_db(params, 0.0, h)
    if pl0 > pl_max_db:
        raise CoverageError(
            f"path loss at zero ground offset ({pl0:.2f} dB) already exceeds {pl_max_db:.2f} dB"
        )
    if pl0 == pl_max_db:
        return 0.0

    with np.errstate(over="ignore"):
        ladder = max(h, 1.0) * 2.0 ** np.arange(BRACKET_DOUBLINGS)
        reached = np.flatnonzero(path_loss_db(params, ladder, h) >= pl_max_db)
        if len(reached) == 0:
            raise CoverageError(f"path loss never reaches {pl_max_db:.2f} dB (unbounded bracket)")
        hi = float(ladder[reached[0]])

        # Bisect the bracket down to micrometers: stopping once the loss is
        # within a tolerance of the ceiling can leave the answer a meter or
        # so off the root. The loss is continuous and monotone, so at the
        # midpoint it is within a micrometer's worth of slope of the ceiling.
        # Past about 8.6e9 m one ulp exceeds a micrometer; once lo and hi are
        # adjacent doubles the midpoint is one of them, and further steps
        # would leave both unchanged.
        lo, steps, i = 0.0, 0, _SUBTREE_SIZE
        while steps < 200 and hi - lo > 1e-6 and lo < 0.5 * (lo + hi) < hi:
            if i >= _SUBTREE_SIZE:
                # the next subtree below [lo, hi], in heap order: the
                # children of node i are 2i + 1 (below its midpoint) and
                # 2i + 2 (above it)
                bounds, mids = [(lo, hi)], []
                for a, b in bounds:
                    mid = 0.5 * (a + b)
                    mids.append(mid)
                    if len(bounds) < _SUBTREE_SIZE:
                        bounds += [(a, mid), (mid, b)]
                below = (path_loss_db(params, np.array(mids), h) < pl_max_db).tolist()
                i = 0
            if below[i]:
                lo, i = mids[i], 2 * i + 2
            else:
                hi, i = mids[i], 2 * i + 1
            steps += 1
    return 0.5 * (lo + hi)
