"""Acceptance gate: one test per shipped claim, at the stated tolerances.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Criteria 1/4/7 run on the packaged case study: the default config's seed,
which the seed search reproduces, draws exactly 28 cells.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from skyhaul.association import check_feasible, objective, solve_greedy
from skyhaul.channel import coverage_radius, p_los, path_loss_db
from skyhaul.config import table1_urban
from skyhaul.exact import ENUMERATION_GUARD, enumerate_all, solve_exact
from skyhaul.harness import (complexity_sweep, prepare_scenario,
                             relax_to_qos_only, run_scenario, seed_search)
from skyhaul.instances import random_instance


@pytest.fixture(scope="module")
def case_study():
    cfg = table1_urban()
    return cfg, prepare_scenario(cfg)


def test_criterion_1_case_study_reproduction(case_study):
    t0 = time.perf_counter()
    cfg, prep = case_study
    # the pinned default seed is itself a seed-search result for 28 cells
    assert seed_search(cfg, 28, 1, start=cfg.seed) == cfg.seed
    assert len(prep.layout.cells) == 28
    assert prep.fleet.n_hubs == 4

    greedy_a, greedy_report = solve_greedy(prep.instance)
    exact_a, exact_report = solve_exact(prep.instance)
    assert check_feasible(prep.instance, greedy_a).ok
    assert check_feasible(prep.instance, exact_a).ok
    assert greedy_report.sum_rate_bps == exact_report.sum_rate_bps
    assert exact_report.sum_rate_bps <= cfg.backhaul_cap_bps
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(210):
        n_cells = 2 + seed % 7
        n_hubs = 1 + seed % 3
        inst = random_instance(seed, n_cells=n_cells, n_hubs=n_hubs,
                               tight=seed % 2 == 0)
        _, bb_report = solve_exact(inst)
        _, enum_value = enumerate_all(inst)
        assert bb_report.sum_rate_bps == enum_value
        checked += 1
    assert checked >= 200
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_greedy_soundness():
    feasible_count = 0
    dominance_checked = 0
    total = 1_000
    for seed in range(total):
        if seed % 5 == 0:
            # steady supply of instances small enough for the exact cross-check
            n_cells = 3 + seed % 9
            n_hubs = 1 + seed % 3
        else:
            n_cells = 3 + seed % 98  # up to 100
            n_hubs = 1 + seed % 10
        inst = random_instance(seed, n_cells=n_cells, n_hubs=n_hubs,
                               tight=seed % 2 == 0)
        a, greedy_report = solve_greedy(inst)
        assert check_feasible(inst, a).ok
        feasible_count += 1
        if (n_hubs + 1) ** n_cells <= ENUMERATION_GUARD:
            _, exact_report = solve_exact(inst)
            assert greedy_report.sum_rate_bps <= exact_report.sum_rate_bps
            dominance_checked += 1
    assert feasible_count == total
    assert dominance_checked >= 200


def test_criterion_4_runtime_ordering(case_study):
    _, prep = case_study
    greedy_wall = min(solve_greedy(prep.instance)[1].wall_time_s
                      for _ in range(3))
    exact_wall = min(solve_exact(prep.instance)[1].wall_time_s
                     for _ in range(3))
    assert greedy_wall <= exact_wall / 10.0


def test_criterion_5_complexity_scaling():
    sizes = (10, 25, 50, 100, 200)
    rows = complexity_sweep(2024, sizes=sizes, n_hubs=4, link_cap=7)
    n = np.array([r["n_cells"] for r in rows], dtype=float)
    ops = np.array([r["op_count"] for r in rows], dtype=float)
    slope, intercept = np.polyfit(n, ops, 1)
    predicted = slope * n + intercept
    ss_res = float(((ops - predicted) ** 2).sum())
    ss_tot = float(((ops - ops.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    assert slope > 0
    assert r_squared >= 0.98


def test_criterion_6_channel_model_checks():
    cfg = table1_urban()
    params = cfg.channel

    thetas = np.linspace(1e-6, math.pi / 2, 100)
    vals = [p_los(params, float(t)) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))

    overhead = path_loss_db(params, 0.0, 300.0)
    assert overhead == pytest.approx(89.0, abs=0.1)

    radius = coverage_radius(params, 300.0, 110.0)
    residual = path_loss_db(params, radius, 300.0) - 110.0
    assert abs(residual) <= 0.01
    s = 0
    while path_loss_db(params, float(s + 1), 300.0) <= 110.0:
        s += 1
    assert abs(radius - s) <= 1.0


def test_criterion_7_constraint_sweep_claim(case_study):
    cfg, prep = case_study
    full = prep.instance
    admissible = int((full.link_table.sinr_db.max(axis=1)
                      >= full.sinr_min_db).sum())

    relaxed = relax_to_qos_only(full)
    a_qos, qos_report = solve_exact(relaxed)
    assert qos_report.n_associated == admissible

    violated = {c for c, _ in check_feasible(full, a_qos).violated}
    assert violated & {"backhaul", "bandwidth"}
    _, full_report = solve_exact(full)
    assert full_report.n_associated < qos_report.n_associated


def test_criterion_8_determinism(tmp_path):
    cfg = table1_urban()
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_scenario(cfg, first)
    run_scenario(cfg, second)
    # every artifact but the wall-clock sidecar
    names = sorted(p.name for p in first.iterdir() if p.name != "timing.json")
    assert names == sorted(p.name for p in second.iterdir() if p.name != "timing.json")
    assert {"layout.npy", "links.npy", "summary.json"} <= set(names)
    assert any(name.endswith(".csv") for name in names)  # the run must actually emit CSVs
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
