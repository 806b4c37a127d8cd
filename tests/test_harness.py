import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyhaul import harness
from skyhaul.association import check_feasible, solve_greedy
from skyhaul.cli import main
from skyhaul.config import table1_urban
from skyhaul.exact import solve_exact
from skyhaul.harness import (SeedSearchError, SolutionRejectedError,
                             complexity_sweep, draw_cells, draw_rates,
                             prepare_scenario, relax_to_qos_only, run_scenario,
                             seed_search, sweep_constraints)
from skyhaul.report import SolveReport

CASE_STUDY = table1_urban()
# the dense-field benchmark preset: ~240 cells x ~35 hubs on a 2 km side
DENSE = dataclasses.replace(CASE_STUDY, cell_intensity_per_m2=1e-4,
                            cell_min_sep_m=40.0, hub_altitude_m=100.0,
                            pl_max_db=80.0, area_side_m=2000.0, seed=1,
                            solver="greedy")
EMPTY = dataclasses.replace(CASE_STUDY, cell_intensity_per_m2=0.0)


class TestPrepare:
    def test_case_study_shape(self):
        prep = prepare_scenario(CASE_STUDY)
        assert len(prep.layout.cells) == 28
        assert prep.fleet.n_hubs == 4
        assert prep.instance.link_table.pl_db.shape == (28, 4)
        assert np.isfinite(prep.instance.link_table.sinr_db).all()

    def test_rates_come_from_menu(self):
        rates = draw_rates(CASE_STUDY, 500)
        assert set(float(r) for r in rates) <= set(CASE_STUDY.rate_menu_bps)

    def test_empty_intensity_short_circuits(self):
        cfg = dataclasses.replace(CASE_STUDY, cell_intensity_per_m2=0.0)
        prep = prepare_scenario(cfg)
        assert prep.layout.cells.shape == (0, 2)
        assert prep.layout.hubs.shape == (0, 3)
        assert prep.fleet is None
        assert prep.instance.n_cells == 0

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_draws(self, seed):
        cfg = dataclasses.replace(CASE_STUDY, seed=seed)
        assert np.array_equal(draw_cells(cfg), draw_cells(cfg))
        drawn = draw_rates(cfg, 10)
        assert (drawn == draw_rates(cfg, 10)).all()


class TestRunScenario:
    def test_emits_all_artifacts(self, tmp_path):
        run_scenario(CASE_STUDY, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"layout.npy", "links.npy", "assoc_greedy.csv",
                         "assoc_exact.csv", "report_greedy.csv",
                         "report_exact.csv", "summary.json", "timing.json"}

    @pytest.mark.parametrize("cfg", [CASE_STUDY, DENSE, EMPTY],
                             ids=["case-study", "dense-field", "zero-intensity"])
    def test_links_npy_holds_the_link_table_bit_for_bit(self, tmp_path, cfg):
        table = run_scenario(cfg, tmp_path).prepared.instance.link_table
        stacked = np.stack([table.pl_db, table.sinr_db, table.spec_eff,
                            table.bandwidth_hz])
        saved = np.load(tmp_path / "links.npy")
        assert saved.dtype == np.float64
        assert saved.shape == (4, table.n_cells, table.n_hubs)
        assert saved.tobytes() == stacked.tobytes()

    def test_links_npy_is_byte_stable_across_reruns(self, tmp_path):
        run_scenario(CASE_STUDY, tmp_path / "first")
        run_scenario(CASE_STUDY, tmp_path / "second")
        assert ((tmp_path / "first" / "links.npy").read_bytes()
                == (tmp_path / "second" / "links.npy").read_bytes())

    def test_reports_verified_independently(self):
        result = run_scenario(CASE_STUDY)
        for method, a in result.matrices.items():
            inst = result.prepared.instance
            assert check_feasible(inst, a).ok
            assert result.reports[method].feasible

    def test_matrix_the_checker_refuses_is_never_written(self, tmp_path, monkeypatch):
        # the report claims feasibility, but every cell takes every hub;
        # solve_verified must judge the matrix, not trust the report
        def every_link(inst):
            a = np.ones((inst.n_cells, inst.n_hubs), dtype=np.int8)
            return a, SolveReport(method="greedy", sum_rate_bps=0.0,
                                  n_associated=inst.n_cells,
                                  per_hub_links=(inst.n_cells,) * inst.n_hubs,
                                  hubs_in_use=inst.n_hubs, feasible=True,
                                  wall_time_s=0.0, op_count=0)
        monkeypatch.setattr(harness, "solve_greedy", every_link)
        with pytest.raises(SolutionRejectedError):
            run_scenario(CASE_STUDY, tmp_path / "r")
        assert not (tmp_path / "r").exists()

    def test_zero_intensity_run_succeeds_with_zero_rates(self, tmp_path):
        cfg = dataclasses.replace(CASE_STUDY, cell_intensity_per_m2=0.0)
        result = run_scenario(cfg, tmp_path)
        for report in result.reports.values():
            assert report.sum_rate_bps == 0.0
            assert report.n_associated == 0
            assert report.feasible
        assert np.load(tmp_path / "layout.npy").shape == (0, 4)

    def test_solver_selection_greedy_only(self, tmp_path):
        result = run_scenario(CASE_STUDY, tmp_path, solver="greedy")
        assert set(result.reports) == {"greedy"}
        assert (tmp_path / "assoc_greedy.csv").exists()
        assert not (tmp_path / "assoc_exact.csv").exists()

    @pytest.mark.parametrize("cfg", [CASE_STUDY, DENSE, EMPTY],
                             ids=["case-study", "dense-field", "zero-intensity"])
    def test_layout_npy_holds_the_layout_exactly(self, tmp_path, cfg):
        layout = run_scenario(cfg, tmp_path, solver="greedy").prepared.layout
        saved = np.load(tmp_path / "layout.npy")
        n, m = len(layout.cells), len(layout.hubs)
        assert saved.dtype == np.float64
        assert saved.shape == (n + m, 4)
        cells, hubs = saved[:n], saved[n:]
        assert np.array_equal(cells[:, :2], layout.cells)
        assert (cells[:, 2] == 0.0).all()
        assert np.array_equal(cells[:, 3], layout.rates)
        assert np.array_equal(hubs[:, :3], layout.hubs)
        assert (hubs[:, 3] == 0.0).all()

    @pytest.mark.parametrize("solver", ["greedy", "exact", "both"])
    def test_timing_json_has_one_wall_time_per_method(self, tmp_path, solver):
        result = run_scenario(CASE_STUDY, tmp_path, solver=solver)
        wall = json.loads((tmp_path / "timing.json").read_text())["wall_time_s"]
        assert set(wall) == set(result.reports)
        for method, seconds in wall.items():
            assert isinstance(seconds, float) and math.isfinite(seconds)
            assert seconds == result.reports[method].wall_time_s

    def test_summary_echoes_config_and_rng(self, tmp_path):
        run_scenario(CASE_STUDY, tmp_path, solver="greedy")
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["rng_algorithm"] == "numpy-pcg64"
        assert payload["config"]["seed"] == CASE_STUDY.seed
        assert payload["config"]["pl_max_db"] == 110.0
        assert payload["derived"]["n_cells"] == 28
        assert payload["derived"]["n_hubs"] == 4


class TestSweep:
    def test_rows_cover_both_subsets_and_methods(self, tmp_path):
        rows = sweep_constraints(CASE_STUDY, tmp_path)
        assert [(r["constraints"], r["method"]) for r in rows] == [
            ("qos-only", "greedy"), ("qos-only", "exact"),
            ("all", "greedy"), ("all", "exact")]
        assert (tmp_path / "sweep.csv").exists()

    def test_full_constraint_rows_respect_backhaul(self):
        rows = sweep_constraints(CASE_STUDY, solver="both")
        for r in rows:
            if r["constraints"] == "all":
                assert r["sum_rate_bps"] <= CASE_STUDY.backhaul_cap_bps
                assert r["violates_full"] == ""

    def test_relaxation_never_reduces_exact_sum(self):
        rows = {(r["constraints"], r["method"]): r
                for r in sweep_constraints(CASE_STUDY)}
        assert (rows[("qos-only", "exact")]["sum_rate_bps"]
                >= rows[("all", "exact")]["sum_rate_bps"])


class TestOneVerdict:
    @pytest.fixture
    def verdicts(self, monkeypatch):
        judged = []

        def spy(inst, a):
            judged.append(a)
            return check_feasible(inst, a)
        monkeypatch.setattr(harness, "check_feasible", spy)
        return judged

    def test_run_scenario_judges_each_solve_once(self, verdicts):
        result = run_scenario(CASE_STUDY, solver="both")
        assert len(verdicts) == 2
        assert [r.feasible for r in result.reports.values()] == [True, True]

    def test_sweep_judges_only_qos_only_rows_against_full(self, verdicts):
        # one verdict per solve, plus one per qos-only row against the full set
        sweep_constraints(CASE_STUDY, solver="both")
        assert len(verdicts) == 6

    def test_direct_solver_report_carries_no_verdict(self):
        inst = prepare_scenario(CASE_STUDY).instance
        assert solve_greedy(inst)[1].feasible is None
        assert solve_exact(inst)[1].feasible is None


class TestSeedSearch:
    def test_zero_target_with_zero_intensity_returns_first_seed(self):
        cfg = dataclasses.replace(CASE_STUDY, cell_intensity_per_m2=0.0)
        assert seed_search(cfg, 0, 10) == 0

    def test_impossible_target_raises(self):
        with pytest.raises(SeedSearchError):
            seed_search(CASE_STUDY, 10_000, 50)

    def test_found_seed_reproduces_count(self):
        seed = seed_search(CASE_STUDY, 28, 5_000)
        cfg = dataclasses.replace(CASE_STUDY, seed=seed)
        assert len(draw_cells(cfg)) == 28

    def test_start_offset_respected(self):
        seed = seed_search(CASE_STUDY, 28, 5_000, start=100)
        assert seed >= 100


class TestComplexitySweep:
    def test_rows_and_monotone_growth(self):
        rows = complexity_sweep(7, sizes=(10, 25, 50))
        assert [r["n_cells"] for r in rows] == [10, 25, 50]
        ops = [r["op_count"] for r in rows]
        assert ops == sorted(ops)
        assert all(r["op_count"] > 0 for r in rows)


class TestCli:
    def test_run_exit_zero(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "r")]) == 0

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nnope = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", [
        "area_side_m = nan", "cell_min_sep_m = 0", "cell_min_sep_m = 4000",
        "seed = -1", "rate_menu_bps = nan", "avg_spec_eff = inf",
        "backhaul_cap_bps = nan", "sinr_min_db = nan", "noise_w = inf",
        "rate_menu_bps = 1.5, 60e6",
        "rate_menu_bps = 1e15\nhub_bandwidth_hz = 1e16",  # 28 cells: 2.8e16 bps
        "hub_link_cap = 10000000000000000000000",  # past int64
        # the elevation angle underflows to 0 across the area diagonal, and
        # inside the coverage_radius bracket
        "hub_altitude_m = 1e-320", "hub_altitude_m = 5e-324",
        # the expected parent count overflows, or passes numpy's Poisson limit
        "area_side_m = 1e200\ncell_intensity_per_m2 = 0",
        "cell_intensity_per_m2 = 1e305",
    ])
    def test_out_of_domain_value_exit_two(self, tmp_path, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[scenario]\n{line}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("line", [
        "avg_spec_eff = 1.7976931348623157e308",
        "rate_menu_bps = 1\nhub_bandwidth_hz = 1.7e308"])
    def test_cells_per_hub_overflow_exit_two(self, tmp_path, capsys, line):
        # hub_bandwidth_hz / (mean rate / avg_spec_eff) overflows to inf,
        # which has no integer floor
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[scenario]\n{line}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert "avg_spec_eff" in capsys.readouterr().err

    def test_large_avg_spec_eff_still_runs(self, tmp_path):
        ini = tmp_path / "eff.ini"
        ini.write_text("[scenario]\navg_spec_eff = 1e300\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_hub_altitude_still_runs(self, tmp_path):
        ini = tmp_path / "low.ini"
        ini.write_text("[scenario]\nhub_altitude_m = 1e-200\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 0

    # log2(1 + sinr) rounds to 0 on some links: their bandwidth demand is
    # inf, a link that carries nothing
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("line", [
        "noise_w = 1e6", "tx_power_w = 1e-300", "eta_nlos_db = 1000"])
    def test_links_with_zero_spectral_efficiency_still_run(self, tmp_path, line):
        ini = tmp_path / "weak.ini"
        ini.write_text(f"[scenario]\n{line}\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 0
        bw = np.load(tmp_path / "r" / "links.npy")[3]
        assert np.isinf(bw).any()

    def test_more_cells_than_the_recursion_limit_run(self, tmp_path):
        # 1,140 cells and 163 hubs; the exact search once recursed per cell
        ini = tmp_path / "deep.ini"
        ini.write_text("[scenario]\ncell_intensity_per_m2 = 1.5e-4\n"
                       "cell_min_sep_m = 40\nhub_altitude_m = 100\n"
                       "pl_max_db = 80\narea_side_m = 4000\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 0

    def test_hub_separation_past_area_side_exit_three(self, tmp_path, capsys):
        # a 100 MHz carrier puts the coverage radius, the hub separation,
        # at about 8.06 km, past the 4 km side
        ini = tmp_path / "low_carrier.ini"
        ini.write_text("[scenario]\ncarrier_hz = 1e8\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 3
        assert not (tmp_path / "r").exists()
        assert "4000 m" in capsys.readouterr().err

    def test_seed_search_not_found_exit_three(self):
        assert main(["seed-search", "--target", "9999",
                     "--max-seeds", "20"]) == 3

    def test_node_budget_exit_four(self, tmp_path):
        assert main(["run", "--out", str(tmp_path), "--solver", "exact",
                     "--node-budget", "10"]) == 4

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_seed_override(self, tmp_path, capsys):
        assert main(["seed-search", "--target", "28", "--max-seeds", "1",
                     "--seed", "3655"]) == 0
        assert capsys.readouterr().out.strip() == "3655"
