"""Planar point processes.

Cells live in the ground plane of a square region [0, L] x [0, L]; hubs share
the same plane but hover at a fixed altitude. Random layouts come from a
homogeneous Poisson parent process thinned by a type-I hard-core rule
(mutual deletion of any pair closer than the hard-core radius). Point sets
are (n, 2) float arrays of (x, y) rows.
"""

from dataclasses import dataclass

import numpy as np

from .units import Seed, make_rng


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
    """
    rng = make_rng(seed)
    n = int(rng.poisson(spec.intensity * spec.area_side**2))
    xs = rng.uniform(0.0, spec.area_side, n)
    ys = rng.uniform(0.0, spec.area_side, n)
    return np.column_stack((xs, ys))


def hardcore_thin(points: np.ndarray, min_separation: float) -> np.ndarray:
    """Type-I hard-core thinning: drop every point that has any neighbor
    strictly closer than `min_separation` (both members of a close pair go).
    """
    if len(points) < 2:
        return points
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return points[d2.min(axis=1) >= min_separation**2]


def matern_type1(spec: HardCoreSpec, seed: Seed) -> np.ndarray:
    """Hard-core layout: Poisson parent draw followed by mutual thinning.

    All pairwise distances in the result are >= spec.min_separation. No edge
    correction is applied; points are thinned against in-window neighbors
    only.
    """
    return hardcore_thin(poisson_points(spec, seed), spec.min_separation)
