import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import make_layout
from skyhaul.channel import build_link_table, p_los, path_loss_db
from skyhaul.config import table1_urban
from skyhaul.geometry import (HardCoreSpec, hardcore_thin, matern_type1,
                              poisson_points)

URBAN_SPEC = HardCoreSpec(area_side=4000.0, intensity=2e-6, min_separation=300.0)
CASE_STUDY = table1_urban()


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
    fspl = 20.0 * math.log10(4.0 * math.pi * params.carrier_hz * d / params.light_speed)
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
