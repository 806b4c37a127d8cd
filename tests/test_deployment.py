import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyhaul.config import table1_urban
from skyhaul.deployment import (DegenerateDemandError, FleetInfeasibleError,
                                PlacementError, cells_per_hub, fleet_size,
                                place_fleet)


class TestCellsPerHub:
    def test_case_study_arithmetic(self):
        # mean of the five-step menu is 90 Mbps; at 5 b/s/Hz the average
        # bandwidth need is 18 MHz, and 250 MHz carries 13 of those
        rates = [30e6, 60e6, 90e6, 120e6, 150e6]
        assert cells_per_hub(250e6, rates, 5.0) == 13

    def test_exact_fit_is_one(self):
        assert cells_per_hub(18e6, [90e6], 5.0) == 1

    def test_cap_below_average_need_is_zero(self):
        assert cells_per_hub(17e6, [90e6], 5.0) == 0

    def test_monotone_in_bandwidth_and_efficiency(self):
        rates = [30e6, 90e6, 150e6]
        caps = [cells_per_hub(b, rates, 5.0) for b in (50e6, 150e6, 450e6)]
        assert caps == sorted(caps)
        effs = [cells_per_hub(250e6, rates, e) for e in (1.0, 3.0, 9.0)]
        assert effs == sorted(effs)

    def test_zero_rates_degenerate(self):
        with pytest.raises(DegenerateDemandError):
            cells_per_hub(250e6, [0.0, 0.0], 5.0)

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            cells_per_hub(250e6, [], 5.0)


class TestFleetSize:
    def test_case_study_value(self):
        assert fleet_size(28, 7, 13) == 4

    def test_exact_fit(self):
        assert fleet_size(7, 7, 13) == 1

    def test_ceiling_rounds_up(self):
        assert fleet_size(29, 7, 13) == 5

    def test_zero_capacity_infeasible(self):
        with pytest.raises(FleetInfeasibleError):
            fleet_size(10, 7, 0)

    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=20))
    def test_capacity_covers_all_cells(self, n_cells, link_cap, per_hub):
        n_hubs = fleet_size(n_cells, link_cap, per_hub)
        assert n_hubs * min(link_cap, per_hub) >= n_cells
        assert (n_hubs - 1) * min(link_cap, per_hub) < n_cells


class TestPlaceFleet:
    def test_single_hub(self):
        cfg = table1_urban()
        hubs = place_fleet(cfg, 1, 800.0, seed=(cfg.seed, 2))
        assert hubs.shape == (1, 3)
        x, y, h = hubs[0]
        assert h == cfg.hub_altitude_m
        assert 0.0 <= x <= cfg.area_side_m
        assert 0.0 <= y <= cfg.area_side_m

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30, deadline=None)
    def test_separation_and_altitude(self, seed):
        cfg = table1_urban()
        try:
            hubs = place_fleet(cfg, 2, 800.0, seed=(seed, 2))
        except PlacementError:
            return  # a short draw after all retries is a legal outcome
        assert (hubs[:, 2] == cfg.hub_altitude_m).all()
        d = math.hypot(*(hubs[0, :2] - hubs[1, :2]))
        assert d >= 800.0

    def test_impossible_packing_raises(self):
        cfg = table1_urban()
        with pytest.raises(PlacementError):
            place_fleet(cfg, 100, 3_900.0, seed=(0, 2))

    def test_separation_equal_to_side_raises(self):
        cfg = table1_urban()
        with pytest.raises(PlacementError, match="4000 m"):
            place_fleet(cfg, 1, cfg.area_side_m, seed=(0, 2))

    def test_deterministic(self):
        cfg = dataclasses.replace(table1_urban(), seed=11)
        a = place_fleet(cfg, 1, 500.0, seed=(11, 2))
        b = place_fleet(cfg, 1, 500.0, seed=(11, 2))
        assert np.array_equal(a, b)
