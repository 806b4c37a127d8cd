import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import make_layout
from skyhaul.channel import (LIGHT_SPEED, build_link_table, coverage_radius,
                             p_los, path_loss_db)
from skyhaul.config import table1_urban
from skyhaul import geometry
from skyhaul.geometry import (DrawSizeError, HardCoreSpec, hardcore_thin,
                              matern_type1, poisson_points)
from skyhaul.units import sub_seed

URBAN_SPEC = HardCoreSpec(area_side=4000.0, intensity=2e-6, min_separation=300.0)
CASE_STUDY = table1_urban()
DENSE_FIELD = dataclasses.replace(
    CASE_STUDY, cell_intensity_per_m2=1e-4, cell_min_sep_m=40.0,
    hub_altitude_m=100.0, pl_max_db=80.0, solver="greedy", area_side_m=2000.0)


def cube_thin(points, min_separation):
    """All-pairs thinning through an n x n x 2 difference cube: the oracle
    the sweep in hardcore_thin must match bit for bit."""
    if len(points) < 2:
        return points
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    return points[d2.min(axis=1) >= min_separation**2]


def assert_matches_cube(points, min_separation):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    assert np.array_equal(hardcore_thin(points, min_separation),
                          cube_thin(points, min_separation))


def parent_draws(cfg, seeds):
    """(points, separation) of the cell and hub parent draws of each master
    seed, as prepare_scenario and place_fleet's first attempt make them."""
    hub_sep = coverage_radius(cfg.channel, cfg.hub_altitude_m, cfg.pl_max_db)
    for sep, stream in ((cfg.cell_min_sep_m, 0), (hub_sep, 2)):
        spec = HardCoreSpec(cfg.area_side_m, cfg.cell_intensity_per_m2, sep)
        for seed in seeds:
            yield poisson_points(spec, sub_seed(seed, stream)), sep


@st.composite
def thinning_inputs(draw):
    """A point set and a separation from 1 m to just under the 4 km side.

    Coordinates mix free floats with a few snap values, so that points
    share x values and coincide; pairs are added exactly the separation
    apart, or one ulp inside or outside it, along x or along y, with an
    optional small offset across, then the rows are shuffled.
    """
    side = 4000.0
    sep = draw(st.one_of(
        st.floats(1.0, side, exclude_max=True),
        st.sampled_from([1.0, 40.0, 300.0, 1000.0 / 3.0, math.nextafter(side, 0.0)])))
    coord = st.one_of(st.floats(0.0, side),
                      st.sampled_from([0.0, 0.1, sep, 2.0 * sep, side / 3.0, side]))
    rows = draw(st.lists(st.tuples(coord, coord), max_size=30))
    offset = st.sampled_from([sep, math.nextafter(sep, 0.0), math.nextafter(sep, math.inf)])
    for x, y in draw(st.lists(st.tuples(coord, coord), max_size=8)):
        d, across = draw(offset), draw(st.sampled_from([0.0, 1e-9, 1e-3]))
        rows += [(x, y), (x + d, y + across) if draw(st.booleans()) else (x + across, y + d)]
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # duplicates
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[k] for k in order], dtype=float).reshape(-1, 2), sep


def pairwise_min_distance(points):
    best = math.inf
    for i, (ax, ay) in enumerate(points.tolist()):
        for bx, by in points[i + 1:].tolist():
            best = min(best, math.hypot(ax - bx, ay - by))
    return best


def single_pair_loss(cell, hub):
    """Path loss of the one link in a one-cell, one-hub link table."""
    return build_link_table(CASE_STUDY, make_layout([cell], [hub])).pl_db[0, 0]


def blended_loss(h, s, theta):
    """FSPL over the slant distance plus the excess losses blended at
    elevation angle `theta`."""
    params = CASE_STUDY.channel
    d = math.hypot(h, s)
    fspl = 20.0 * math.log10(4.0 * math.pi * params.carrier_hz * d / LIGHT_SPEED)
    p = p_los(params, theta)
    return fspl + p * params.eta_los_db + (1.0 - p) * params.eta_nlos_db


class TestHardCoreSpec:
    def test_rejects_nonpositive_side(self):
        with pytest.raises(ValueError):
            HardCoreSpec(area_side=0.0, intensity=1e-6, min_separation=10.0)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            HardCoreSpec(area_side=100.0, intensity=-1.0, min_separation=10.0)

    def test_rejects_separation_not_below_side(self):
        with pytest.raises(ValueError):
            HardCoreSpec(area_side=100.0, intensity=1e-6, min_separation=100.0)


class TestPoissonPoints:
    def test_zero_intensity_is_empty(self):
        spec = HardCoreSpec(area_side=4000.0, intensity=0.0, min_separation=300.0)
        assert poisson_points(spec, seed=7).shape == (0, 2)

    def test_deterministic_for_fixed_seed(self):
        assert np.array_equal(poisson_points(URBAN_SPEC, seed=42),
                              poisson_points(URBAN_SPEC, seed=42))

    def test_mean_count_matches_intensity_times_area(self):
        # mean lambda * L^2 = 2e-6 * 16e6 = 32, checked within +-1%
        counts = [len(poisson_points(URBAN_SPEC, seed=s)) for s in range(10_000)]
        assert np.mean(counts) == pytest.approx(32.0, rel=0.01)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_points_inside_square(self, seed):
        pts = poisson_points(URBAN_SPEC, seed)
        assert ((0.0 <= pts) & (pts <= URBAN_SPEC.area_side)).all()


class TestHardcoreThin:
    def test_close_pair_mutually_deleted(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert hardcore_thin(pts, 300.0).shape == (0, 2)

    def test_far_pair_retained(self):
        pts = np.array([[0.0, 0.0], [500.0, 0.0]])
        assert np.array_equal(hardcore_thin(pts, 300.0), pts)

    def test_chain_of_three_all_deleted(self):
        # middle point conflicts with both ends, ends conflict with middle
        pts = np.array([[0.0, 0.0], [250.0, 0.0], [500.0, 0.0]])
        assert hardcore_thin(pts, 300.0).shape == (0, 2)

    def test_boundary_distance_is_kept(self):
        # deletion requires strictly closer than the hard-core radius
        pts = np.array([[0.0, 0.0], [300.0, 0.0]])
        assert np.array_equal(hardcore_thin(pts, 300.0), pts)


class TestHardcoreThinSweep:
    """The x-sorted sweep keeps exactly the points the all-pairs cube keeps."""

    @given(thinning_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_cube(self, case):
        assert_matches_cube(*case)

    @pytest.mark.parametrize("sep", [1.0, 0.1, 40.0, 300.0, 1000.0 / 3.0, 3999.9])
    @pytest.mark.parametrize("anchor", [0.0, 0.1, 123.456, 2000.3])
    def test_one_ulp_inside_and_outside(self, sep, anchor):
        rows = []
        for d in (math.nextafter(sep, 0.0), sep, math.nextafter(sep, math.inf)):
            for base in (anchor, anchor + 5 * sep):
                y0 = 10.0 * sep * len(rows)  # each group far from the others
                rows += [(base, y0), (base + d, y0),  # a pair along x
                         (base, y0 + 1.5 * sep), (base, y0 + 1.5 * sep + d)]  # along y
        assert_matches_cube(rows, sep)

    @pytest.mark.parametrize("sep", [1.0, 10.0, 100.0, 1000.0, 3000.0,
                                     math.nextafter(4000.0, 0.0)])
    def test_separations_up_to_the_side(self, sep):
        rng = np.random.default_rng(int(sep))
        assert_matches_cube(rng.uniform(0.0, 4000.0, (300, 2)), sep)

    @pytest.mark.parametrize("cfg", [DENSE_FIELD, CASE_STUDY],
                             ids=["dense-field", "table1_urban"])
    def test_parent_draws_of_seeds_0_to_99(self, cfg):
        for points, sep in parent_draws(cfg, range(100)):
            assert_matches_cube(points, sep)

    @given(thinning_inputs())
    @settings(max_examples=150, deadline=None)
    def test_kept_pairs_apart_and_dropped_points_have_a_close_neighbour(self, case):
        points, sep = case
        kept = hardcore_thin(points, sep).tolist()
        limit = sep**2

        def d2(a, b):
            return (a[0] - b[0]) * (a[0] - b[0]) + (a[1] - b[1]) * (a[1] - b[1])

        rows = points.tolist()
        for k, a in enumerate(rows):
            has_close = any(d2(a, b) < limit for b in rows[:k] + rows[k + 1:])
            assert (a in kept) != has_close
        for k, a in enumerate(kept):
            assert all(d2(a, b) >= limit for b in kept[k + 1:])

    def test_allocates_far_less_than_n_squared(self):
        # 3,000 points at 4 m on a 4 km side: about 9k candidate pairs,
        # where one n x n bool table alone would take 9 MB
        points = np.random.default_rng(3).uniform(0.0, 4000.0, (3000, 2))
        tracemalloc.start()
        try:
            hardcore_thin(points, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(points) ** 2 // 4


class TestDrawCaps:
    def test_point_cap_is_inclusive(self, monkeypatch):
        n = len(poisson_points(URBAN_SPEC, 5))
        monkeypatch.setattr(geometry, "MAX_POINTS", n)
        assert len(poisson_points(URBAN_SPEC, 5)) == n
        monkeypatch.setattr(geometry, "MAX_POINTS", n - 1)
        with pytest.raises(DrawSizeError, match=f"{n} parent points"):
            poisson_points(URBAN_SPEC, 5)

    def test_candidate_pair_cap_is_inclusive(self, monkeypatch):
        # all three x gaps are within the separation: three candidate pairs
        pts = np.array([[0.0, 0.0], [1.0, 5.0], [2.0, 10.0]])
        monkeypatch.setattr(geometry, "MAX_CANDIDATE_PAIRS", 3)
        assert np.array_equal(hardcore_thin(pts, 3.0), pts)
        monkeypatch.setattr(geometry, "MAX_CANDIDATE_PAIRS", 2)
        with pytest.raises(DrawSizeError, match="3 candidate pairs"):
            hardcore_thin(pts, 3.0)


class TestMaternType1:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, deadline=None)
    def test_min_separation_holds(self, seed):
        pts = matern_type1(URBAN_SPEC, seed)
        if len(pts) >= 2:
            assert pairwise_min_distance(pts) >= URBAN_SPEC.min_separation

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_subset_of_parent(self, seed):
        parent = set(map(tuple, poisson_points(URBAN_SPEC, seed).tolist()))
        assert set(map(tuple, matern_type1(URBAN_SPEC, seed).tolist())) <= parent

    def test_thinned_mean_below_parent_mean(self):
        seeds = range(2_000)
        parent = np.mean([len(poisson_points(URBAN_SPEC, s)) for s in seeds])
        thinned = np.mean([len(matern_type1(URBAN_SPEC, s)) for s in seeds])
        assert thinned <= parent

    def test_deterministic(self):
        assert np.array_equal(matern_type1(URBAN_SPEC, 3), matern_type1(URBAN_SPEC, 3))


class TestDistances:
    """The link table measures the ground-plane distance and ignores the
    hub altitude when doing so."""

    def test_three_four_five(self):
        expected = path_loss_db(CASE_STUDY.channel, 5.0, 50.0)
        assert single_pair_loss([0, 0], [3, 4, 50]) == pytest.approx(expected, rel=1e-15)

    def test_coincident_ground(self):
        # a cell directly under a hub is at zero ground distance
        expected = path_loss_db(CASE_STUDY.channel, 0.0, 300.0)
        assert single_pair_loss([1, 2], [1, 2, 300]) == pytest.approx(expected, rel=1e-15)

    def test_altitude_ignored(self):
        expected = path_loss_db(CASE_STUDY.channel, 500.0, 300.0)
        assert single_pair_loss([0, 0], [300, 400, 300]) == pytest.approx(expected, rel=1e-15)


class TestElevationAngle:
    """The excess losses are blended at the elevation angle atan(h / s)."""

    def test_overhead_is_right_angle(self):
        assert single_pair_loss([5, 5], [5, 5, 300]) == pytest.approx(
            blended_loss(300.0, 0.0, math.pi / 2), rel=1e-14)

    def test_forty_five_degrees(self):
        assert single_pair_loss([0, 0], [300, 0, 300]) == pytest.approx(
            blended_loss(300.0, 300.0, math.pi / 4), rel=1e-14)

    def test_thirty_degrees(self):
        # tan(30 deg) = 300 / 519.615 to within 1e-6 rad, which moves the
        # blended loss by under 5e-5 dB (about 35 dB/rad at this angle)
        assert single_pair_loss([0, 0], [519.615, 0, 300]) == pytest.approx(
            blended_loss(300.0, 519.615, math.pi / 6), abs=5e-5)
