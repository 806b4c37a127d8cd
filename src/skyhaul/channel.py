"""Air-to-ground channel model.

Line-of-sight probability follows the standard logistic model in the
elevation angle; mean path loss adds angle-weighted LoS/NLoS excess losses on
top of free-space loss. SINR treats every hub as a co-channel interferer
transmitting continuously at full power. The propagation functions work
elementwise on numpy arrays; a whole cell x hub table is one evaluation.

coverage_radius finds the ground distance at which the loss reaches a
ceiling by one walk, a bracket ladder and then a bisection. The walk is
steered by a scalar math-module estimate of the loss, and one path_loss_db
call then checks every point it visited. Only if a guess was wrong does the
walk run again, judging each point by its own path_loss_db call; either
way the result is that plain walk's double.

ChannelParams holds the environment constants that the propagation
functions take on their own. build_link_table reads the link budget
(tx_power_w, noise_w) straight from the ScenarioConfig, which validates it.

The interference total of a cell is math.fsum's correctly rounded sum of its
row of received powers, so no SINR depends on hub order. row_fsum takes all
rows at once: it sums each row in np.longdouble, keeps the rounded total
where a rounding-error bound (Higham 2002, 4.2) certifies it equals fsum's,
and runs math.fsum only on the other rows (ties, overflow, non-finite sums).
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig
    from .deployment import Layout

LIGHT_SPEED = 2.998e8  # m/s

# Building a link table and solving it holds about 100 bytes per (cell, hub)
# pair (measured: 121 MB to prepare the 3,892 x 556 table of an 8 km dense
# field), so runs refuse a table of more pairs, about 1 GB, before building it
MAX_LINK_PAIRS = 10**7

# coverage_radius doubles its bracket from max(h, 1) at most this many times
BRACKET_DOUBLINGS = 60
# unit roundoff of np.longdouble and of float64
_U_LONG = float(np.finfo(np.longdouble).eps) / 2
_U_DOUBLE = 2.0 ** -53


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


def row_fsum(x: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a 2-D float64 array, as a float64 array.

    Each row of m terms is summed in np.longdouble to S and rounded to the
    double r. The argument that r is fsum's result, the exactly rounded sum
    s, wherever the row is certified:

    - A sum of m terms in any order is within gamma_(m-1) = (m-1)u /
      (1 - (m-1)u) times the sum of the terms' magnitudes of s, u being the
      unit roundoff: each term passes through at most m - 1 roundings
      (Higham 2002, Accuracy and Stability of Numerical Algorithms, 4.2).
      Additions are exact in the subnormal range, so underflow keeps that.
    - The magnitudes are summed as doubles to A, which is at least
      1 - gamma_(m-1) (of doubles) times their exact sum. So |S - s| is at
      most B = c * A, with c = gamma_(m-1) (of np.longdouble) over
      1 - gamma_(m-1) (of doubles), raised by 2**-20 to cover the rounding
      of c and of the product. c is an np.longdouble, so B cannot
      underflow.
    - d = S - r is exact by Sterbenz's lemma, since r is S rounded.
    - A row is certified when 2(|d| + B) < g, with g the gap from r to its
      neighbouring double toward zero, the smaller of its two gaps. Then s
      lies strictly inside r's rounding interval. Rounding is monotone and
      the doubling is exact, so the computed comparison implies the exact
      one.
    - A certified row also needs A < 2**1023, which keeps every partial sum
      fsum forms inside the double range, so fsum would raise nothing.

    The other rows get math.fsum, with its results and errors: ties, an r
    of 0 (g is 0), non-finite terms or sums, sums near or past overflow,
    and, where np.longdouble is no wider than a double, nearly every row.
    The argument needs IEEE arithmetic in np.longdouble, as binary64, x87
    extended and binary128 have.
    """
    k = x.shape[1] - 1
    c = k * _U_LONG / (1 - k * _U_LONG) / (1 - k * _U_DOUBLE / (1 - k * _U_DOUBLE))
    c = np.longdouble(c * (1 + 2.0 ** -20))
    with np.errstate(over="ignore", invalid="ignore"):
        long_sum = np.einsum("ij->i", x, dtype=np.longdouble)
        r = long_sum.astype(np.float64)
        d = long_sum - r
        a = np.einsum("ij->i", np.abs(x))
        gap = np.abs(r - np.nextafter(r, 0.0))
        certified = (2 * (np.abs(d) + c * a) < gap) & (a < 2.0 ** 1023)
    for i in np.flatnonzero(~certified).tolist():
        r[i] = math.fsum(x[i].tolist())
    return r


def build_link_table(cfg: "ScenarioConfig", layout: "Layout") -> LinkTable:
    """Evaluate path loss, SINR, spectral efficiency and bandwidth demand for
    every (cell, hub) pair of a layout.

    Each cell demands the same rate from every hub, so the bandwidth demand
    of pair (i, j) is rate_i / spec_eff_ij. Where the SINR is so small that
    log2(1 + sinr) rounds to 0, that demand is inf: the link carries
    nothing, and no finite bandwidth cap admits it (`bandwidth_probes`).

    The interference at cell i on hub j is row i's total received power
    minus rx_ij, the total being math.fsum's exactly rounded row sum, so no
    result depends on hub order. row_fsum finds every row's total at once:
    a long-double sum, kept where its rounding-error bound certifies it
    rounds to fsum's double, with math.fsum on the other rows. Every value,
    and every OverflowError, is fsum's.
    """
    cells, hubs = layout.cells, layout.hubs
    if len(cells) == 0 or len(hubs) == 0:
        raise ValueError("layout must contain at least one cell and one hub")
    s = np.hypot(cells[:, None, 0] - hubs[None, :, 0],
                 cells[:, None, 1] - hubs[None, :, 1])
    pl = path_loss_db(cfg.channel, s, hubs[None, :, 2])
    rx = cfg.tx_power_w * 10.0 ** (-pl / 10.0)

    total = row_fsum(rx)
    sinr = rx / (total[:, None] - rx + cfg.noise_w)

    sinr_db = 10.0 * np.log10(sinr)
    spec_eff = np.log2(1.0 + sinr)
    with np.errstate(divide="ignore"):
        bandwidth = layout.rates[:, None] / spec_eff
    return LinkTable(pl_db=pl, sinr_db=sinr_db, spec_eff=spec_eff, bandwidth_hz=bandwidth)


def _guide_loss(params: ChannelParams, s: float, h: float) -> float | None:
    """path_loss_db at one point in math-module floats, or None where a
    math function overflows or leaves its domain.

    The same formula in the same order, so it mostly agrees with numpy to
    the last bit; coverage_radius steers by it and checks every verdict it
    took against path_loss_db.
    """
    try:
        d = math.hypot(h, s)
        fspl = 10.0 * math.log10(math.pow(4.0 * math.pi * params.carrier_hz * d / LIGHT_SPEED,
                                          params.pl_exponent))
        theta_deg = math.degrees(math.atan2(h, s))
        p = 1.0 / (1.0 + params.alpha * math.exp(-params.beta * (theta_deg - params.alpha)))
    except (OverflowError, ValueError):
        return None
    return fspl + p * params.eta_los_db + (1.0 - p) * params.eta_nlos_db


def _bisect(below, h: float) -> float | None:
    """The coverage-radius walk, judging each point by `below(s)`, "the loss
    at s is below the ceiling": the final midpoint, or None when the bracket
    ladder never passes the ceiling."""
    hi = max(h, 1.0)
    for _ in range(BRACKET_DOUBLINGS):
        if not below(hi):
            break
        hi *= 2.0
    else:
        return None
    # Bisect the bracket down to micrometers: stopping once the loss is
    # within a tolerance of the ceiling can leave the answer a meter or so
    # off the root. The loss is continuous and monotone, so at the midpoint
    # it is within a micrometer's worth of slope of the ceiling. Past about
    # 8.6e9 m one ulp exceeds a micrometer; once lo and hi are adjacent
    # doubles the midpoint is one of them, and further steps would leave
    # both unchanged.
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (hi - lo > 1e-6 and lo < mid < hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def coverage_radius(params: ChannelParams, h: float, pl_max_db: float) -> float:
    """Horizontal distance at which the path loss reaches `pl_max_db`.

    Solved by bisection on s at fixed altitude h, after doubling a bracket
    from max(h, 1) (`_bisect`). The root is unique since path_loss_db is
    strictly increasing in s. A loss that overflows to inf is past any
    ceiling, and at s = 0 one that underflows to -inf is below it.

    The result is the double of the plain walk, which judges each point by
    its own path_loss_db call. The walk is a function of its verdicts
    alone, so it first runs on the scalar `_guide_loss`'s verdicts, and one
    path_loss_db call then judges every point that walk visited. If every
    guess was right, the guided walk was the plain walk: two path_loss_db
    calls in all. If any was wrong, the plain walk runs.
    """
    with np.errstate(divide="ignore"):
        pl0 = path_loss_db(params, 0.0, h)
    if pl0 > pl_max_db:
        raise CoverageError(
            f"path loss at zero ground offset ({pl0:.2f} dB) already exceeds {pl_max_db:.2f} dB"
        )
    if pl0 == pl_max_db:
        return 0.0

    guessed: dict[float, bool] = {}

    def guess(s: float) -> bool:
        loss = _guide_loss(params, s, h)
        guessed[s] = loss is not None and loss < pl_max_db
        return guessed[s]

    radius = _bisect(guess, h)
    with np.errstate(over="ignore"):
        truth = path_loss_db(params, np.array(list(guessed)), h) < pl_max_db
        if truth.tolist() != list(guessed.values()):
            radius = _bisect(lambda s: path_loss_db(params, s, h) < pl_max_db, h)
    if radius is None:
        raise CoverageError(f"path loss never reaches {pl_max_db:.2f} dB (unbounded bracket)")
    return radius
