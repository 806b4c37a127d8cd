"""Planar point processes.

Cells live in the ground plane of a square region [0, L] x [0, L]; hubs share
the same plane but hover at a fixed altitude. Random layouts come from a
homogeneous Poisson parent process thinned by a type-I hard-core rule
(mutual deletion of any pair closer than the hard-core radius). The
thinning visits only pairs that an x-sorted sweep puts within the radius
along x, so it never holds an n x n array. Point sets are (n, 2) float
arrays of (x, y) rows.

A draw holds about 100 bytes per parent point and 50 per candidate pair, so
both counts are capped: a draw past MAX_POINTS or MAX_CANDIDATE_PAIRS raises
DrawSizeError before it allocates them, at most about 100 MB and 500 MB.
"""

from dataclasses import dataclass

import numpy as np

from .units import Seed, make_rng

MAX_POINTS = 10**6
MAX_CANDIDATE_PAIRS = 10**7


class DrawSizeError(ValueError):
    """A hard-core draw would hold more points or candidate pairs than its cap."""


@dataclass(frozen=True)
class HardCoreSpec:
    """Parameters of a hard-core point process on a square region.

    `intensity` is the density of the Poisson parent process (points per m^2,
    before thinning), not the density of the retained points.
    """

    area_side: float  # side L of the square region, meters
    intensity: float  # parent points per m^2; zero yields an empty process
    min_separation: float  # hard-core radius, meters

    def __post_init__(self):
        if not (self.area_side > 0):
            raise ValueError("area_side must be positive")
        if not (self.intensity >= 0):
            raise ValueError("intensity must be nonnegative")
        if not (0 < self.min_separation < self.area_side):
            raise ValueError("min_separation must be in (0, area_side)")


def poisson_points(spec: HardCoreSpec, seed: Seed) -> np.ndarray:
    """Homogeneous Poisson process on the square region, as an (n, 2) array.

    The point count is Poisson with mean intensity * area_side^2 and the
    points are i.i.d. uniform. Same (spec, seed) always gives the same array.
    A count above MAX_POINTS raises DrawSizeError before any point is drawn.
    """
    rng = make_rng(seed)
    n = int(rng.poisson(spec.intensity * spec.area_side**2))
    if n > MAX_POINTS:
        raise DrawSizeError(f"{n} parent points, above the cap of {MAX_POINTS}")
    xs = rng.uniform(0.0, spec.area_side, n)
    ys = rng.uniform(0.0, spec.area_side, n)
    return np.column_stack((xs, ys))


def hardcore_thin(points: np.ndarray, min_separation: float) -> np.ndarray:
    """Type-I hard-core thinning: drop every point that has any neighbor
    strictly closer than `min_separation` (both members of a close pair go).
    The kept points are returned in their input order.

    The close pairs are found by a sweep over the points sorted by x: each
    point is paired only with the later points whose x lies within the
    separation s, a window whose end one `searchsorted` finds for all points
    at once. Under round-to-nearest a pair whose d2 comes out below s*s has
    a rounded x difference below s, so its later point already lies within
    the rounded x + s; the bound x + s * (1 + 1e-9) adds a relative margin
    on top, since a spare candidate costs only its distance test while a
    missed one would change the layout. That test is the same
    d2 = dx*dx + dy*dy < s*s on the same doubles as an all-pairs
    comparison, so the kept set is identical to it. Time and memory are
    O(n log n + candidate pairs), which nears the all-pairs n^2 / 2 only
    when s nears the spread of x; more than MAX_CANDIDATE_PAIRS candidate
    pairs raise DrawSizeError before the pairs are built.
    """
    n = len(points)
    if n < 2:
        return points
    order = np.argsort(points[:, 0], kind="stable")
    sorted_pts = points[order]
    xs = sorted_pts[:, 0]
    ends = np.searchsorted(xs, xs + min_separation * (1 + 1e-9), side="right")
    counts = ends - np.arange(1, n + 1)  # later points in each window
    pairs = int(counts.sum())
    if pairs > MAX_CANDIDATE_PAIRS:
        raise DrawSizeError(f"{pairs} candidate pairs within {min_separation!r} m, "
                            f"above the cap of {MAX_CANDIDATE_PAIRS}")
    # candidate pairs (i, j > i) in sorted positions, window by window
    i = np.repeat(np.arange(n), counts)
    j = np.arange(len(i)) + np.repeat(ends - np.cumsum(counts), counts)
    diff = sorted_pts.take(i, axis=0) - sorted_pts.take(j, axis=0)
    close = np.einsum("ij,ij->i", diff, diff) < min_separation**2
    keep = np.ones(n, dtype=bool)
    keep[order[i[close]]] = False
    keep[order[j[close]]] = False
    return points[keep]


def matern_type1(spec: HardCoreSpec, seed: Seed) -> np.ndarray:
    """Hard-core layout: Poisson parent draw followed by mutual thinning.

    All pairwise distances in the result are >= spec.min_separation. No edge
    correction is applied; points are thinned against in-window neighbors
    only.
    """
    return hardcore_thin(poisson_points(spec, seed), spec.min_separation)
