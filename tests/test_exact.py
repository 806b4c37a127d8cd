import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import make_instance
from _oracle import enumerate_all
from skyhaul import exact
from skyhaul.association import check_feasible, objective, solve_greedy
from skyhaul.config import ScenarioConfig
from skyhaul.exact import NodeBudgetExceeded, SizeGuardError, solve_exact
from skyhaul.harness import prepare_scenario, relax_to_qos_only
from skyhaul.instances import RATE_MENU_BPS, random_instance

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestSolveExactSmall:
    def test_single_link_cap_prefers_high_rate(self):
        inst = make_instance([[10.0], [10.0]], [[1e6], [1e6]],
                             [100e6, 50e6], hub_link_cap=1)
        a, report = solve_exact(inst)
        assert a[:, 0].tolist() == [1, 0]
        assert report.sum_rate_bps == 100e6

    def test_zero_backhaul_cap_keeps_empty(self):
        inst = make_instance([[10.0], [10.0]], [[1e6], [1e6]],
                             [100e6, 50e6], backhaul_cap_bps=0.0)
        a, report = solve_exact(inst)
        assert a.sum() == 0
        assert report.sum_rate_bps == 0.0
        assert check_feasible(inst, a).ok

    def test_inadmissible_everywhere_keeps_empty(self):
        inst = make_instance([[-30.0, -40.0]] * 3, [[1e6, 1e6]] * 3,
                             [30e6, 60e6, 90e6])
        a, report = solve_exact(inst)
        assert a.sum() == 0

    def test_report_counts_nodes(self):
        inst = random_instance(5, n_cells=6, n_hubs=2)
        _, report = solve_exact(inst)
        assert report.node_count is not None
        assert 0 < report.node_count <= 3 ** 6
        assert report.op_count == report.node_count

    def test_grids_only_the_admissible_links(self, monkeypatch):
        # a 20 dB bar admits few links, and a NaN SINR is never admissible
        inst = random_instance(3, n_cells=30, n_hubs=5, sinr_min_db=20.0)
        sinr = inst.link_table.sinr_db
        sinr.flat[sinr.argmax()] = math.nan  # the best link, admissible before
        ok = sinr >= inst.sinr_min_db
        rows, cols = ok.nonzero()
        flat, view_rows, view_cols = inst.admissible
        assert flat.tolist() == ok.ravel().nonzero()[0].tolist()
        assert view_rows.tolist() == rows.tolist() and view_cols.tolist() == cols.tolist()
        gridded = []
        probes = exact.bandwidth_probes
        monkeypatch.setattr(exact, "bandwidth_probes",
                            lambda bw, *caps: gridded.append(len(bw)) or probes(bw, *caps))
        solve_exact(inst)
        assert 0 < len(rows) < inst.n_cells * inst.n_hubs // 4
        assert gridded == [len(rows)]

    def test_budget_error_carries_incumbent(self):
        inst = random_instance(9, n_cells=12, n_hubs=3, tight=True)
        with pytest.raises(NodeBudgetExceeded) as exc_info:
            solve_exact(inst, node_budget=5)
        err = exc_info.value
        assert err.node_count >= 5
        assert err.incumbent.shape == (12, 3)
        assert check_feasible(inst, err.incumbent).ok


class TestEnumerateAll:
    def test_single_pair_associates_when_caps_allow(self):
        inst = make_instance([[10.0]], [[1e6]], [30e6],
                             backhaul_cap_bps=30e6, hub_bandwidth_cap_hz=1e6)
        a, val = enumerate_all(inst)
        assert val == 30e6 and a[0, 0] == 1

    def test_single_pair_stays_out_when_rate_exceeds_cap(self):
        inst = make_instance([[10.0]], [[1e6]], [30e6],
                             backhaul_cap_bps=29e6)
        a, val = enumerate_all(inst)
        assert val == 0.0 and a.sum() == 0

    def test_infeasible_sinr_everywhere(self):
        inst = make_instance([[-30.0, -30.0]] * 2, [[1e6, 1e6]] * 2,
                             [30e6, 60e6])
        a, val = enumerate_all(inst)
        assert val == 0.0 and a.sum() == 0

    def test_bandwidth_cap_boundary_judged_by_checker(self):
        # the vectorised sum 1.0 + 1e-16 + 1e-16 rounds to the 1.0 Hz cap,
        # but the exact (fsum) total is past it: only two of the three fit
        inst = make_instance([[10.0]] * 3, [[1.0], [1e-16], [1e-16]],
                             [90e6, 30e6, 30e6], hub_bandwidth_cap_hz=1.0,
                             hub_link_cap=3)
        a, val = enumerate_all(inst)
        assert val == 120e6 and check_feasible(inst, a).ok
        assert solve_exact(inst)[1].sum_rate_bps == 120e6

    def test_zero_cap_on_an_empty_hub_adds_no_checker_calls(self, monkeypatch):
        # a hub that a candidate leaves empty sums to exactly 0, so a 0 cap
        # on hub 0 must not put every such candidate in the near-cap band
        calls = []
        monkeypatch.setattr("_oracle.check_feasible",
                            lambda inst, a: calls.append(1) or check_feasible(inst, a))
        base = random_instance(1, n_cells=8, n_hubs=3, tight=True)
        enumerate_all(base)
        assert len(calls) == 162
        caps = base.hub_bandwidth_caps.copy()
        caps[0] = 0.0
        inst = dataclasses.replace(base, hub_bandwidth_caps=caps)
        calls.clear()
        _, val = enumerate_all(inst)
        assert len(calls) <= 162
        assert val == solve_exact(inst)[1].sum_rate_bps

    def test_guard_refuses_oversized_instances(self):
        inst = random_instance(1, n_cells=30, n_hubs=4)
        with pytest.raises(SizeGuardError):
            enumerate_all(inst)


class TestOracleEquivalence:
    # the coprime menu has gcd 1, so the headroom rounding in the search
    # bound works at single-bps resolution
    @given(st.integers(min_value=0, max_value=100_000),
           st.sampled_from([RATE_MENU_BPS, (30_000_001, 59_999_999, 90_000_007)]))
    @settings(max_examples=120, deadline=None)
    def test_exact_matches_enumeration(self, seed, menu):
        n_cells = 2 + seed % 7  # up to 8
        n_hubs = 1 + seed % 3
        inst = random_instance(seed, n_cells=n_cells, n_hubs=n_hubs,
                               tight=seed % 2 == 0, rate_menu_bps=menu)
        a_bb, report = solve_exact(inst)
        a_en, val_en = enumerate_all(inst)
        assert report.sum_rate_bps == val_en
        assert check_feasible(inst, a_bb).ok
        assert check_feasible(inst, a_en).ok

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=100, deadline=None)
    def test_greedy_never_beats_exact(self, seed):
        inst = random_instance(seed, n_cells=2 + seed % 8, n_hubs=1 + seed % 3,
                               tight=seed % 3 == 0)
        _, greedy_report = solve_greedy(inst)
        _, exact_report = solve_exact(inst)
        assert greedy_report.sum_rate_bps <= exact_report.sum_rate_bps

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_pruning_beats_candidate_count(self, seed):
        inst = random_instance(seed, n_cells=6, n_hubs=2, tight=True)
        _, report = solve_exact(inst)
        assert report.node_count <= (inst.n_hubs + 1) ** inst.n_cells


class TestDeterminism:
    def test_same_instance_same_matrix(self):
        inst = random_instance(123, n_cells=10, n_hubs=3, tight=True)
        a1, r1 = solve_exact(inst)
        a2, r2 = solve_exact(inst)
        assert (a1 == a2).all()
        assert r1.node_count == r2.node_count
        assert r1.sum_rate_bps == r2.sum_rate_bps


class TestHardSeedPanel:
    # the hardest default-preset seeds under all constraints; node counts are
    # the regression signal for the visit order, the bound and the counting
    @pytest.mark.parametrize("seed, nodes, sum_rate", [
        (3655, 26_824, 1470e6),
        (371, 25_663, 780e6),
        (45, 19_438, 1320e6),
        (7, 20_705, 1020e6),
        (138, 13_471, 1350e6),
        (396, 16_304, 810e6),
    ])
    def test_node_count_and_sum_rate(self, seed, nodes, sum_rate):
        inst = prepare_scenario(ScenarioConfig(seed=seed)).instance
        _, report = solve_exact(inst)
        assert report.node_count == nodes
        assert report.sum_rate_bps == sum_rate

    def test_budget_reached_as_search_finishes_raises(self):
        # the case study counts 26,824 nodes: a budget of exactly that many
        # raises even though the search is complete, one more returns
        inst = prepare_scenario(ScenarioConfig()).instance
        with pytest.raises(NodeBudgetExceeded) as exc_info:
            solve_exact(inst, node_budget=26_824)
        assert exc_info.value.incumbent_value == 1470e6
        _, report = solve_exact(inst, node_budget=26_825)
        assert report.node_count == 26_824


class TestAnyDepth:
    # 3000 cells over 40 hubs: one search path assigns more cells than
    # Python's recursion limit, which the search once nested per cell
    def test_deep_instance_solves_under_all_constraints(self):
        inst = random_instance(0, 3000, 40, tight=True)
        a, report = solve_exact(inst)
        assert a.sum() > sys.getrecursionlimit()
        assert report.node_count == 93_331
        assert check_feasible(inst, a).ok

    def test_deep_instance_reaches_budget_under_qos_only(self):
        inst = relax_to_qos_only(random_instance(0, 3000, 40, tight=True))
        with pytest.raises(NodeBudgetExceeded) as exc_info:
            solve_exact(inst, node_budget=200_000)
        err = exc_info.value
        assert err.node_count == 200_018
        assert err.incumbent.sum() > sys.getrecursionlimit()
        assert check_feasible(inst, err.incumbent).ok
