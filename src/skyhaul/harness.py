"""End-to-end experiment driver.

Pipeline: draw the cell layout, assign demands, size and place the hub
fleet, evaluate the channel, then solve the association with the selected
solvers. Each solved matrix is judged once, by the independent
feasibility checker in `solve_verified`, before anything is written.

Artifacts per run directory: layout.npy, links.npy, assoc_<method>.csv,
report_<method>.csv, summary.json and timing.json. layout.npy is the layout
as one (n_cells + n_hubs, 4) float64 array, the cells and then the hubs,
columns (x_m, y_m, h_m, rate_bps); cells have h_m 0 and hubs rate_bps 0.
links.npy is the link table as one (4, n_cells, n_hubs) float64 array, axis
0 in LinkTable field order (pl_db, sinr_db, spec_eff, bandwidth_hz). Every
file but timing.json is byte-stable for a fixed (config, seed); wall-clock
numbers are quarantined there so rerunning never perturbs the rest.
"""

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .association import (AssociationMatrix, ProblemInstance, check_feasible,
                          solve_greedy)
from .channel import LinkTable, build_link_table, coverage_radius
from .config import ConfigError, ScenarioConfig
from .deployment import (FleetPlan, Layout, cells_per_hub, fleet_size,
                         mean_bandwidth_hz, place_fleet)
from .exact import DEFAULT_NODE_BUDGET, solve_exact
from .geometry import HardCoreSpec, matern_type1
from .instances import random_instance
from .report import SolveReport
from .units import RNG_ALGORITHM, Seed, make_rng, sub_seed

# sub-stream indices off the master seed
_STREAM_CELLS = 0
_STREAM_RATES = 1
_STREAM_HUBS = 2


class SeedSearchError(RuntimeError):
    """No seed in the scanned range produced the requested layout."""


class SolutionRejectedError(RuntimeError):
    """A solver emitted an association the independent checker refused."""


@dataclass
class PreparedScenario:
    """Everything that precedes solving: layout, fleet arithmetic, channel."""

    cfg: ScenarioConfig
    layout: Layout
    fleet: FleetPlan | None  # None for the empty layout
    instance: ProblemInstance  # with the full constraint set, and the link table


@dataclass
class RunResult:
    prepared: PreparedScenario
    constraints: str
    matrices: dict[str, AssociationMatrix]
    reports: dict[str, SolveReport]


def draw_cells(cfg: ScenarioConfig) -> np.ndarray:
    spec = HardCoreSpec(cfg.area_side_m, cfg.cell_intensity_per_m2,
                        cfg.cell_min_sep_m)
    return matern_type1(spec, sub_seed(cfg.seed, _STREAM_CELLS))


def draw_rates(cfg: ScenarioConfig, n_cells: int) -> np.ndarray:
    rng = make_rng(sub_seed(cfg.seed, _STREAM_RATES))
    return rng.choice(np.asarray(cfg.rate_menu_bps, dtype=float), size=n_cells)


def _empty_prepared(cfg: ScenarioConfig) -> PreparedScenario:
    shape = (0, 0)
    table = LinkTable(pl_db=np.zeros(shape), sinr_db=np.zeros(shape),
                      spec_eff=np.zeros(shape), bandwidth_hz=np.zeros(shape))
    layout = Layout(cells=np.zeros((0, 2)), rates=np.zeros(0),
                    hubs=np.zeros((0, 3)))
    inst = ProblemInstance(link_table=table, rates=layout.rates,
                           backhaul_cap_bps=cfg.backhaul_cap_bps,
                           hub_bandwidth_caps=np.zeros(0),
                           hub_link_caps=np.zeros(0, dtype=int),
                           sinr_min_db=cfg.sinr_min_db)
    return PreparedScenario(cfg=cfg, layout=layout, fleet=None, instance=inst)


def prepare_scenario(cfg: ScenarioConfig) -> PreparedScenario:
    """Run the pipeline up to (but not including) the solvers.

    An empty cell draw short-circuits into an empty layout with no hubs; it
    is a valid scenario that every downstream stage handles.
    """
    cells = draw_cells(cfg)
    if len(cells) == 0:
        return _empty_prepared(cfg)
    rates = draw_rates(cfg, len(cells))

    rate_list = rates.tolist()
    try:
        per_hub_cap = cells_per_hub(cfg.hub_bandwidth_hz, rate_list, cfg.avg_spec_eff)
    except OverflowError as exc:
        raise ConfigError(f"hub_bandwidth_hz / (mean rate / avg_spec_eff) overflows "
                          f"with hub_bandwidth_hz = {cfg.hub_bandwidth_hz!r} and "
                          f"avg_spec_eff = {cfg.avg_spec_eff!r}") from exc
    n_hubs = fleet_size(len(cells), cfg.hub_link_cap, per_hub_cap)
    hub_min_sep = coverage_radius(cfg.channel, cfg.hub_altitude_m, cfg.pl_max_db)
    hubs = place_fleet(cfg, n_hubs, hub_min_sep, sub_seed(cfg.seed, _STREAM_HUBS))
    layout = Layout(cells=cells, rates=rates, hubs=hubs)

    fleet = FleetPlan(n_hubs=n_hubs, per_hub_cell_cap=per_hub_cap,
                      avg_bandwidth_hz=mean_bandwidth_hz(rate_list, cfg.avg_spec_eff),
                      hub_min_sep_m=hub_min_sep)

    table = build_link_table(cfg, layout)
    # ScenarioConfig vets each menu entry; the total of the drawn demands
    # can still reach the instance's 2**53 bps bound
    try:
        inst = ProblemInstance(
            link_table=table,
            rates=rates,
            backhaul_cap_bps=cfg.backhaul_cap_bps,
            hub_bandwidth_caps=np.full(n_hubs, cfg.hub_bandwidth_hz, dtype=float),
            hub_link_caps=np.full(n_hubs, cfg.hub_link_cap, dtype=int),
            sinr_min_db=cfg.sinr_min_db,
        )
    except ValueError as exc:
        raise ConfigError(f"rate_menu_bps: {exc}") from exc
    return PreparedScenario(cfg=cfg, layout=layout, fleet=fleet, instance=inst)


def relax_to_qos_only(inst: ProblemInstance) -> ProblemInstance:
    """Keep only admission, link-count and single-association constraints;
    the backhaul and bandwidth caps become unbounded."""
    return dataclasses.replace(
        inst,
        backhaul_cap_bps=math.inf,
        hub_bandwidth_caps=np.full(inst.n_hubs, math.inf),
    )


def solve_verified(inst: ProblemInstance, solver: str, seed: Seed,
                   node_budget: int) -> dict[str, tuple[AssociationMatrix, SolveReport]]:
    """Solve `inst` with the selected methods ("greedy", "exact" or "both"),
    keyed by method.

    Each association gets its one feasibility verdict here: check_feasible
    judges it against `inst`, never trusting the solver's report, and a
    rejection raises SolutionRejectedError rather than reaching an artifact.
    Reports are stamped with the verdict and the scenario seed.
    """
    solved = {}
    for method in ("greedy", "exact") if solver == "both" else (solver,):
        if method == "greedy":
            a, report = solve_greedy(inst)
        elif method == "exact":
            a, report = solve_exact(inst, node_budget)
        else:
            raise ValueError(f"unknown method: {method}")
        verdict = check_feasible(inst, a)
        if not verdict.ok:
            raise SolutionRejectedError(
                f"{method} produced an infeasible association: {verdict.violated}")
        report.feasible = verdict.ok
        report.seed = seed
        solved[method] = (a, report)
    return solved


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None, *,
                 solver: str | None = None, constraints: str | None = None,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> RunResult:
    """Full pipeline: prepare, solve with the selected methods, verify, emit.

    Solver outputs are judged by `solve_verified` against the solved
    instance; a failure raises SolutionRejectedError rather than writing a
    bad artifact.
    """
    solver = solver or cfg.solver
    constraints = constraints or cfg.constraints
    prepared = prepare_scenario(cfg)
    inst = prepared.instance if constraints == "all" \
        else relax_to_qos_only(prepared.instance)

    solved = solve_verified(inst, solver, cfg.seed, node_budget)
    result = RunResult(prepared=prepared, constraints=constraints,
                       matrices={m: a for m, (a, _) in solved.items()},
                       reports={m: r for m, (_, r) in solved.items()})
    if out_dir is not None:
        write_run_artifacts(Path(out_dir), result)
    return result


def sweep_constraints(cfg: ScenarioConfig, out_dir: str | Path | None = None, *,
                      solver: str = "both",
                      node_budget: int = DEFAULT_NODE_BUDGET) -> list[dict]:
    """Solve one instance under the qos-only subset and the full set.

    Returns one row per (constraints, method) with the association size and
    sum rate, plus which full constraints the solution would violate; the
    relaxed solutions typically break the backhaul or bandwidth caps, which
    is the point of the comparison. Only the qos-only rows are judged
    against the full set; `solve_verified` refuses any violation in the rest.
    """
    prepared = prepare_scenario(cfg)
    full = prepared.instance
    rows: list[dict] = []
    for constraints in ("qos-only", "all"):
        inst = full if constraints == "all" else relax_to_qos_only(full)
        solved = solve_verified(inst, solver, cfg.seed, node_budget)
        for method, (a, report) in solved.items():
            violated = check_feasible(full, a).violated if constraints == "qos-only" else []
            rows.append({
                "constraints": constraints,
                "method": method,
                "n_associated": report.n_associated,
                "sum_rate_bps": report.sum_rate_bps,
                "violates_full": ";".join(sorted({c for c, _ in violated})),
            })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_sweep_csv(out / "sweep.csv", rows)
        write_summary(out / "summary.json", cfg,
                      _derived_block(prepared))
    return rows


def seed_search(cfg: ScenarioConfig, target_n_cells: int, max_seeds: int,
                start: int = 0) -> int:
    """Scan master seeds (ascending from `start`) until the cell draw has
    exactly `target_n_cells` points; returns the first matching seed."""
    spec = HardCoreSpec(cfg.area_side_m, cfg.cell_intensity_per_m2,
                        cfg.cell_min_sep_m)
    for seed in range(start, start + max_seeds):
        if len(matern_type1(spec, sub_seed(seed, _STREAM_CELLS))) == target_n_cells:
            return seed
    raise SeedSearchError(
        f"no seed in [{start}, {start + max_seeds}) yields {target_n_cells} cells")


def complexity_sweep(seed: int, sizes=(10, 25, 50, 100, 200), *,
                     n_hubs: int = 4, link_cap: int = 7) -> list[dict]:
    """Greedy operation counts across instance sizes at fixed hub count and
    link cap, for scaling fits and plots."""
    rows = []
    for n in sizes:
        inst = random_instance(sub_seed(seed, n), n, n_hubs, link_cap=link_cap)
        _, report = solve_greedy(inst)
        rows.append({"n_cells": n, "n_hubs": n_hubs, "link_cap": link_cap,
                     "op_count": report.op_count,
                     "sum_rate_bps": report.sum_rate_bps})
    return rows


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, header: list[str], rows):
    """Header, then the rows, in one write. Values must be Python scalars:
    csv writes floats through repr, so they round-trip, and None as an empty
    field."""
    text = io.StringIO()
    w = csv.writer(text, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    path.write_text(text.getvalue(), newline="")


def _layout_array(layout: Layout) -> np.ndarray:
    """The cells, then the hubs, as rows (x_m, y_m, h_m, rate_bps): cells
    sit at h_m 0 and hubs carry rate_bps 0."""
    n = len(layout.cells)
    rows = np.zeros((n + len(layout.hubs), 4))
    rows[:n, :2] = layout.cells
    rows[:n, 3] = layout.rates
    rows[n:, :3] = layout.hubs
    return rows


def write_assoc_csv(path: Path, a: AssociationMatrix):
    _write_csv(path, ["cell", "hub"], np.argwhere(a).tolist())


REPORT_FIELDS = ["method", "sum_rate_bps", "n_associated", "per_hub_links",
                 "hubs_in_use", "feasible", "op_count", "node_count",
                 "rng_algorithm", "seed"]


def write_report_csv(path: Path, report: SolveReport):
    """One-row CSV of the report, minus wall time (kept out so reruns stay
    byte-identical; it goes to timing.json)."""
    _write_csv(path, REPORT_FIELDS, [[
        report.method,
        report.sum_rate_bps,
        report.n_associated,
        ";".join(str(k) for k in report.per_hub_links),
        report.hubs_in_use,
        report.feasible,
        report.op_count,
        report.node_count,
        report.rng_algorithm,
        report.seed,
    ]])


def _write_sweep_csv(path: Path, rows: list[dict]):
    fields = ["constraints", "method", "n_associated", "sum_rate_bps",
              "violates_full"]
    _write_csv(path, fields, ([r[k] for k in fields] for r in rows))


def _derived_block(prepared: PreparedScenario) -> dict:
    block = {
        "n_cells": len(prepared.layout.cells),
        "n_hubs": len(prepared.layout.hubs),
    }
    if prepared.fleet is not None:
        block.update({
            "per_hub_cell_cap": prepared.fleet.per_hub_cell_cap,
            "avg_bandwidth_hz": prepared.fleet.avg_bandwidth_hz,
            "hub_min_sep_m": prepared.fleet.hub_min_sep_m,
            "hub_altitude_m": prepared.cfg.hub_altitude_m,
        })
    return block


def write_summary(path: Path, cfg: ScenarioConfig, derived: dict):
    payload = {
        "config": dataclasses.asdict(cfg),
        "derived": derived,
        "rng_algorithm": RNG_ALGORITHM,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_run_artifacts(out_dir: Path, result: RunResult):
    out_dir.mkdir(parents=True, exist_ok=True)
    np.save(out_dir / "layout.npy", _layout_array(result.prepared.layout),
            allow_pickle=False)
    table = result.prepared.instance.link_table
    np.save(out_dir / "links.npy", np.stack([table.pl_db, table.sinr_db,
                                             table.spec_eff, table.bandwidth_hz]),
            allow_pickle=False)
    for method, a in result.matrices.items():
        write_assoc_csv(out_dir / f"assoc_{method}.csv", a)
        write_report_csv(out_dir / f"report_{method}.csv", result.reports[method])
    derived = _derived_block(result.prepared)
    derived["constraints"] = result.constraints
    write_summary(out_dir / "summary.json", result.prepared.cfg, derived)
    wall = {m: r.wall_time_s for m, r in result.reports.items()}
    (out_dir / "timing.json").write_text(json.dumps({"wall_time_s": wall}) + "\n")
