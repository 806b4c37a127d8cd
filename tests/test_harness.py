import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import make_instance
from _oracle import enumerate_all
from skyhaul import harness
from skyhaul.association import ProblemInstance, check_feasible, solve_greedy
from skyhaul.channel import LinkTable, path_loss_db
from skyhaul.cli import main
from skyhaul.config import table1_urban
from skyhaul.exact import DEFAULT_NODE_BUDGET, solve_exact
from skyhaul.harness import (SeedSearchError, SolutionRejectedError,
                             complexity_sweep, draw_cells, draw_rates,
                             prepare_scenario, relax_to_qos_only, run_scenario,
                             seed_search, solve_verified, sweep_constraints)
from skyhaul.report import SolveReport
from test_greedy_oracle import assert_handoffs

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
        assert len(prep.layout.hubs) == 4
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
        assert np.array_equal(draw_cells(cfg, seed), draw_cells(cfg, seed))
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

    @pytest.mark.parametrize("kwargs", [
        {"solver": "bogus"}, {"constraints": "bogus"}])
    def test_unknown_choice_raises_before_any_stage(self, tmp_path, monkeypatch,
                                                    kwargs):
        # an unknown constraint set once ran qos-only and wrote it into
        # summary.json
        monkeypatch.setattr(harness, "prepare_scenario", None)
        with pytest.raises(ValueError, match="must be one of"):
            run_scenario(CASE_STUDY, tmp_path / "r", **kwargs)
        assert not (tmp_path / "r").exists()

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


def reference_bytes(result) -> dict[str, bytes]:
    """The deterministic artifacts of a run as np.save, the csv module and
    json.dumps of the dataclasses.asdict config write them."""
    def npy(array):
        buf = io.BytesIO()
        np.save(buf, array, allow_pickle=False)
        return buf.getvalue()

    def csv_text(header, rows):
        text = io.StringIO()
        w = csv.writer(text, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return text.getvalue().encode()

    prepared = result.prepared
    layout, table = prepared.layout, prepared.instance.link_table
    n, m = len(layout.cells), len(layout.hubs)
    rows = np.zeros((n + m, 4))
    rows[:n, :2], rows[:n, 3], rows[n:, :3] = layout.cells, layout.rates, layout.hubs
    out = {"layout.npy": npy(rows),
           "links.npy": npy(np.stack([table.pl_db, table.sinr_db,
                                      table.spec_eff, table.bandwidth_hz]))}
    for method, a in result.matrices.items():
        r = result.reports[method]
        out[f"assoc_{method}.csv"] = csv_text(["cell", "hub"], np.argwhere(a).tolist())
        out[f"report_{method}.csv"] = csv_text(harness.REPORT_FIELDS, [[
            r.method, r.sum_rate_bps, r.n_associated,
            ";".join(str(k) for k in r.per_hub_links), r.hubs_in_use,
            r.feasible, r.op_count, r.node_count, r.rng_algorithm, r.seed]])
    derived = {"n_cells": n, "n_hubs": m}
    if prepared.fleet is not None:
        derived.update(per_hub_cell_cap=prepared.fleet.per_hub_cell_cap,
                       avg_bandwidth_hz=prepared.fleet.avg_bandwidth_hz,
                       hub_min_sep_m=prepared.fleet.hub_min_sep_m,
                       hub_altitude_m=prepared.cfg.hub_altitude_m)
    derived["constraints"] = result.constraints
    out["summary.json"] = reference_summary(prepared.cfg, derived)
    return out


def reference_summary(cfg, derived) -> bytes:
    payload = {"config": dataclasses.asdict(cfg), "derived": derived,
               "rng_algorithm": "numpy-pcg64"}
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


class TestArtifactBytes:
    """Each file built in memory and written at once holds the bytes that
    np.save, the csv module and json.dumps of dataclasses.asdict write."""

    @pytest.mark.parametrize("cfg, constraints", [
        (CASE_STUDY, "all"), (EMPTY, "all"), (CASE_STUDY, "qos-only"),
        (DENSE, "all")], ids=["case-study", "empty-layout", "qos-only", "dense-field"])
    def test_run_artifacts_match_the_reference_writers(self, tmp_path, cfg, constraints):
        result = run_scenario(cfg, tmp_path, constraints=constraints)
        expected = reference_bytes(result)
        assert {p.name for p in tmp_path.iterdir()} == {*expected, "timing.json"}
        for name, data in expected.items():
            assert (tmp_path / name).read_bytes() == data, name
        wall = {m: r.wall_time_s for m, r in result.reports.items()}
        assert (tmp_path / "timing.json").read_bytes() == \
            (json.dumps({"wall_time_s": wall}) + "\n").encode()

    def test_sweep_summary_matches_the_reference_writer(self, tmp_path):
        rows = sweep_constraints(CASE_STUDY, tmp_path)
        prepared = prepare_scenario(CASE_STUDY)
        derived = {"n_cells": 28, "n_hubs": 4,
                   "per_hub_cell_cap": prepared.fleet.per_hub_cell_cap,
                   "avg_bandwidth_hz": prepared.fleet.avg_bandwidth_hz,
                   "hub_min_sep_m": prepared.fleet.hub_min_sep_m,
                   "hub_altitude_m": CASE_STUDY.hub_altitude_m}
        assert (tmp_path / "summary.json").read_bytes() == \
            reference_summary(CASE_STUDY, derived)
        fields = ["constraints", "method", "n_associated", "sum_rate_bps", "violates_full"]
        text = io.StringIO()
        w = csv.DictWriter(text, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        assert (tmp_path / "sweep.csv").read_bytes() == text.getvalue().encode()

    def test_rewrite_replaces_a_longer_file(self, tmp_path):
        run_scenario(CASE_STUDY, tmp_path, solver="greedy")
        (tmp_path / "summary.json").write_text("x" * 100_000)
        result = run_scenario(CASE_STUDY, tmp_path, solver="greedy")
        assert (tmp_path / "summary.json").read_bytes() == reference_bytes(result)["summary.json"]


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

    def test_unknown_solver_raises_before_any_stage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "prepare_scenario", None)
        with pytest.raises(ValueError, match="must be one of"):
            sweep_constraints(CASE_STUDY, tmp_path / "s", solver="bogus")
        assert not (tmp_path / "s").exists()

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

    def test_complexity_sweep_judges_each_solve_once(self, verdicts):
        complexity_sweep(7, sizes=(10, 25))
        assert len(verdicts) == 2

    def test_direct_solver_report_carries_no_verdict(self):
        inst = prepare_scenario(CASE_STUDY).instance
        assert solve_greedy(inst)[1].feasible is None
        assert solve_exact(inst)[1].feasible is None


def edge_instance(data) -> ProblemInstance:
    """Caps of 0, at an exact partial sum or half a unit either side of
    one, and inf; link caps 0..n; thresholds and SINRs of +-inf, NaN SINRs
    and bandwidths."""
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))

    def table(values):
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * m,
                                           max_size=n * m))).reshape(n, m)

    def edge_cap(values):
        finite = [v for v in values if math.isfinite(v)]
        tie = math.fsum(finite[:data.draw(st.integers(0, len(finite)))])
        return data.draw(st.sampled_from(
            [0.0, tie, tie + 0.5, max(tie - 0.5, 0.0), math.inf]))

    sinr = table([-math.inf, -10.0, -5.0, 0.0, 10.0, math.inf, math.nan])
    bw = table([0.0, 0.5, 1.0, 1.5, 2.0, math.inf, math.nan])
    rates = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]),
                                        min_size=n, max_size=n)))
    return ProblemInstance(
        link_table=LinkTable(pl_db=np.zeros((n, m)), sinr_db=sinr,
                             spec_eff=np.ones((n, m)), bandwidth_hz=bw),
        rates=rates,
        backhaul_cap_bps=edge_cap(rates.tolist()),
        hub_bandwidth_caps=np.array([edge_cap(bw[:, j].tolist()) for j in range(m)]),
        hub_link_caps=np.array(data.draw(st.lists(st.integers(0, n), min_size=m,
                                                  max_size=m)), dtype=int),
        sinr_min_db=data.draw(st.sampled_from([-math.inf, -5.0, 0.0, math.inf])),
    )


class TestInstanceDomainEdges:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_solve_verified_accepts_both_solvers(self, data):
        inst = edge_instance(data)
        solved = solve_verified(inst, "both", 0, DEFAULT_NODE_BUDGET)
        greedy, exact = solved["greedy"][1], solved["exact"][1]
        assert greedy.sum_rate_bps <= exact.sum_rate_bps == enumerate_all(inst)[1]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_greedy_handoffs(self, data):
        assert_handoffs(edge_instance(data))

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_hubs(self, n):
        # an n x 0 table: both solvers carry nothing, and the greedy's step
        # 1 compares no SINR
        inst = make_instance(np.zeros((n, 0)), np.zeros((n, 0)), [1.0] * n)
        solved = solve_verified(inst, "both", 0, DEFAULT_NODE_BUDGET)
        for a, report in solved.values():
            assert a.shape == (n, 0) and report.feasible
        assert solved["greedy"][1].op_count == 0


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
        assert len(draw_cells(cfg, cfg.seed)) == 28

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

    def test_run_prints_the_case_study_comparison(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "r")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("seed 3655: 28 cells, 4 hubs "
                            "(cap 13 cells/hub, min separation 800.8 m)")
        greedy, exact = lines[1:3]
        for line, method in ((greedy, "greedy"), (exact, "exact")):
            assert line.startswith(f"{method}: sum_rate=1.47e+09 bps associated=15 "
                                   f"per_hub_links=[4, 3, 5, 3] ")
            assert " wall=" in line
        assert "nodes=" not in greedy
        assert exact.endswith(" nodes=26824")
        assert lines[3].startswith("pipeline ")

    def test_run_prints_an_empty_layout(self, tmp_path, capsys):
        ini = tmp_path / "empty.ini"
        ini.write_text("[scenario]\ncell_intensity_per_m2 = 0\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().out.startswith("seed 3655: 0 cells, 0 hubs\n")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_naming_a_file_exit_two(self, tmp_path, capsys, command, below):
        # refused before the pipeline runs, with no directory made
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "r" if below else afile
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(out)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""

    @pytest.mark.parametrize("content, named", [
        (b"[scenario]\nseed = 1\nseed = 2\n", "bad.ini"),  # a duplicate key
        (b"seed = 1\n", "bad.ini"),  # no section header
        (b"[scenario]\nseed\n", "bad.ini"),  # a key with no value
        # read literally, not interpolated: the field's parse refuses it
        (b"[scenario]\nrate_menu_bps = %(x)s\n", "rate_menu_bps"),
        (b"\xff\xfe[scen", "bad.ini"),  # not text
    ], ids=["duplicate-key", "no-section", "no-value", "percent", "not-text"])
    def test_malformed_file_exit_two(self, tmp_path, capsys, content, named):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(content)
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        for line in ("nope = 1", "defaults = table1-urban"):
            bad.write_text(f"[scenario]\n{line}\n")
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
        "solver = bogus", "constraints = bogus", "area_side_m = 0",
        "cell_intensity_per_m2 = -1", "rate_menu_bps = 0, 60e6",
        "rate_menu_bps = 60e6, 30e6", "backhaul_cap_bps = 0",
        "hub_bandwidth_hz = -1", "hub_altitude_m = 0", "avg_spec_eff = 0",
        "tx_power_w = 0",
    ])
    def test_out_of_domain_value_exit_two(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[scenario]\n{line}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        # the message names the field of the input's first line
        assert line.split(" =")[0] in capsys.readouterr().err

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

    @pytest.mark.parametrize("line, field", [
        # 2.0e6 and 8.0e6 expected parent points, past geometry.MAX_POINTS;
        # uncapped, the draws asked for 8.94 GiB and 33.6 TiB of pair indices
        ("area_side_m = 1e6", "area_side_m"),
        ("cell_intensity_per_m2 = 0.5", "cell_intensity_per_m2"),
        # 1e5 parent points with about 3e8 candidate pairs 3 km apart in x
        ("area_side_m = 1e5\ncell_intensity_per_m2 = 1e-5\ncell_min_sep_m = 3000",
         "cell_min_sep_m"),
        # a few dozen cells survive the 60 m thinning, but the hub draw at
        # the 1.8 km coverage radius pairs up 8,000 parents 2e7 times
        ("cell_intensity_per_m2 = 5e-4\ncell_min_sep_m = 60\npl_max_db = 122",
         "pl_max_db"),
        # about 16,000 cells at one link per hub: a 16,000 x 16,000 link table
        ("cell_intensity_per_m2 = 1e-3\ncell_min_sep_m = 1\nhub_link_cap = 1",
         "hub_link_cap"),
    ])
    def test_memory_cap_exit_two(self, tmp_path, capsys, line, field):
        ini = tmp_path / "big.ini"
        ini.write_text(f"[scenario]\n{line}\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        assert field in capsys.readouterr().err

    def test_seed_search_memory_cap_exit_two(self, tmp_path, capsys):
        ini = tmp_path / "big.ini"
        ini.write_text("[scenario]\narea_side_m = 1e6\n")
        assert main(["seed-search", "--config", str(ini), "--target", "1"]) == 2
        assert "area_side_m" in capsys.readouterr().err

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

    def test_zero_hub_separation_exit_three(self, tmp_path, capsys):
        # a ceiling equal to the loss straight below a hub puts the coverage
        # radius, the hub separation, at 0
        cfg = table1_urban()
        ceiling = float(path_loss_db(cfg.channel, 0.0, cfg.hub_altitude_m))
        ini = tmp_path / "zero_sep.ini"
        ini.write_text(f"[scenario]\npl_max_db = {ceiling!r}\n")
        assert main(["run", "--config", str(ini), "--out", str(tmp_path / "r")]) == 3
        assert not (tmp_path / "r").exists()
        assert "pl_max_db" in capsys.readouterr().err

    def test_seed_search_not_found_exit_three(self):
        assert main(["seed-search", "--target", "9999",
                     "--max-seeds", "20"]) == 3

    def test_rerun_into_the_same_out_leaves_no_file_of_the_first_run(self, tmp_path):
        # a greedy-only rerun once kept seed 3655's exact CSVs beside seed
        # 5's summary.json; files the writer never makes stay
        out = tmp_path / "r"
        assert main(["run", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine")
        (out / "assoc_other.csv").write_text("mine")
        assert main(["run", "--solver", "greedy", "--seed", "5", "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            "layout.npy", "links.npy", "assoc_greedy.csv", "report_greedy.csv",
            "summary.json", "timing.json", "notes.txt", "assoc_other.csv"}
        assert json.loads((out / "summary.json").read_text())["config"]["seed"] == 5
        assert (out / "report_greedy.csv").read_text().splitlines()[1].endswith(",5")
        assert (out / "notes.txt").read_text() == "mine"

    def test_node_budget_exit_four(self, tmp_path):
        assert main(["run", "--out", str(tmp_path), "--solver", "exact",
                     "--node-budget", "10"]) == 4

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_sweep_takes_the_solver_from_the_config(self, tmp_path, capsys):
        # as run does; the option, when given, still wins
        ini = tmp_path / "greedy.ini"
        ini.write_text("[scenario]\nsolver = greedy\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(r["constraints"], r["method"]) for r in rows] == [
            ("qos-only", "greedy"), ("all", "greedy")]
        assert " exact:" not in capsys.readouterr().out
        assert main(["sweep", "--config", str(ini), "--solver", "exact",
                     "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as f:
            assert [r["method"] for r in csv.DictReader(f)] == ["exact", "exact"]

    def test_seed_override(self, tmp_path, capsys):
        assert main(["seed-search", "--target", "28", "--max-seeds", "1",
                     "--seed", "3655"]) == 0
        assert capsys.readouterr().out.strip() == "3655"
