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
numbers are quarantined there so rerunning never perturbs the rest. Each
file is built in memory and written at once; a run into a directory that
holds another run's files removes the CSVs of the methods it did not
solve.
"""

import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .association import (AssociationMatrix, ProblemInstance, check_feasible,
                          solve_greedy)
from .channel import MAX_LINK_PAIRS, LinkTable, build_link_table, coverage_radius
from .config import (CONSTRAINT_CHOICES, SOLVER_CHOICES, ConfigError,
                     ScenarioConfig)
from .deployment import (FleetPlan, Layout, cells_per_hub, fleet_size,
                         mean_bandwidth_hz, place_fleet)
from .exact import DEFAULT_NODE_BUDGET, solve_exact
from .geometry import DrawSizeError, HardCoreSpec, matern_type1
from .instances import random_instance
from .report import SolveReport
from .units import RNG_ALGORITHM, Seed, make_rng, sub_seed

# the solvers, in the order "both" runs them
METHODS = ("greedy", "exact")

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


def _too_large(cfg: ScenarioConfig, draw: str, exc: DrawSizeError) -> ConfigError:
    """A draw past geometry's size caps, as a config error naming the
    fields that set its parent process."""
    return ConfigError(f"{draw} at cell_intensity_per_m2 = {cfg.cell_intensity_per_m2!r} "
                       f"on area_side_m = {cfg.area_side_m!r} is too large: {exc}")


def draw_cells(cfg: ScenarioConfig, seed: int) -> np.ndarray:
    """The cell draw of `cfg`'s point process under master seed `seed`."""
    spec = HardCoreSpec(cfg.area_side_m, cfg.cell_intensity_per_m2,
                        cfg.cell_min_sep_m)
    try:
        return matern_type1(spec, sub_seed(seed, _STREAM_CELLS))
    except DrawSizeError as exc:
        raise _too_large(cfg, f"the cell draw with cell_min_sep_m = "
                              f"{cfg.cell_min_sep_m!r}", exc) from exc


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
    cells = draw_cells(cfg, cfg.seed)
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
    if len(cells) * n_hubs > MAX_LINK_PAIRS:
        raise ConfigError(f"the link table of {len(cells)} cells x {n_hubs} hubs is "
                          f"above the cap of {MAX_LINK_PAIRS} pairs; fewer cells "
                          f"(cell_intensity_per_m2, area_side_m) or a larger "
                          f"hub_link_cap makes it smaller")
    hub_min_sep = coverage_radius(cfg.channel, cfg.hub_altitude_m, cfg.pl_max_db)
    try:
        hubs = place_fleet(cfg, n_hubs, hub_min_sep, sub_seed(cfg.seed, _STREAM_HUBS))
    except DrawSizeError as exc:
        raise _too_large(cfg, f"the hub draw at the coverage radius {hub_min_sep!r} m "
                              f"of pl_max_db = {cfg.pl_max_db!r}", exc) from exc
    layout = Layout(cells=cells, rates=rates, hubs=hubs)

    fleet = FleetPlan(per_hub_cell_cap=per_hub_cap,
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


def _check_choice(name: str, value: str, choices: tuple[str, ...]):
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, not {value!r}")


def solve_verified(inst: ProblemInstance, solver: str, seed: Seed,
                   node_budget: int) -> dict[str, tuple[AssociationMatrix, SolveReport]]:
    """Solve `inst` with the selected methods ("greedy", "exact" or "both"),
    keyed by method.

    Each association gets its one feasibility verdict here: check_feasible
    judges it against `inst`, never trusting the solver's report, and a
    rejection raises SolutionRejectedError rather than reaching an artifact.
    Reports are stamped with the verdict and the scenario seed. The callers
    have checked `solver` against SOLVER_CHOICES.
    """
    solved = {}
    for method in METHODS if solver == "both" else (solver,):
        if method == "greedy":
            a, report = solve_greedy(inst)
        else:
            a, report = solve_exact(inst, node_budget)
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
    bad artifact. A solver or constraint set outside SOLVER_CHOICES or
    CONSTRAINT_CHOICES raises ValueError before any stage runs.
    """
    solver = solver or cfg.solver
    constraints = constraints or cfg.constraints
    _check_choice("solver", solver, SOLVER_CHOICES)
    _check_choice("constraints", constraints, CONSTRAINT_CHOICES)
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
                      solver: str | None = None,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> list[dict]:
    """Solve one instance under the qos-only subset and the full set.

    Returns one row per (constraints, method) with the association size and
    sum rate, plus which full constraints the solution would violate; the
    relaxed solutions typically break the backhaul or bandwidth caps, which
    is the point of the comparison. Only the qos-only rows are judged
    against the full set; `solve_verified` refuses any violation in the rest.
    `solver` defaults to the config's. A solver outside SOLVER_CHOICES
    raises ValueError before any stage runs.
    """
    solver = solver or cfg.solver
    _check_choice("solver", solver, SOLVER_CHOICES)
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
    for seed in range(start, start + max_seeds):
        if len(draw_cells(cfg, seed)) == target_n_cells:
            return seed
    raise SeedSearchError(
        f"no seed in [{start}, {start + max_seeds}) yields {target_n_cells} cells")


def complexity_sweep(seed: int, sizes=(10, 25, 50, 100, 200), *,
                     n_hubs: int = 4, link_cap: int = 7) -> list[dict]:
    """Greedy operation counts across instance sizes at fixed hub count and
    link cap, each solve judged by `solve_verified`, for scaling fits."""
    rows = []
    for n in sizes:
        inst = random_instance(sub_seed(seed, n), n, n_hubs, link_cap=link_cap)
        _, report = solve_verified(inst, "greedy", seed, DEFAULT_NODE_BUDGET)["greedy"]
        rows.append({"n_cells": n, "n_hubs": n_hubs, "link_cap": link_cap,
                     "op_count": report.op_count,
                     "sum_rate_bps": report.sum_rate_bps})
    return rows


# ---------------------------------------------------------------------------
# artifact writers

def _write_bytes(path: Path, data: bytes):
    """Create or truncate `path` and write `data` to it in one os.write,
    repeated only on a short write."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _write_csv(path: Path, header: list[str], rows):
    """Header, then the rows. Values must be Python scalars: csv writes
    floats through repr, so they round-trip, and None as an empty field."""
    text = io.StringIO()
    w = csv.writer(text, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _write_bytes(path, text.getvalue().encode())


def _npy_file(shape: tuple[int, ...]) -> tuple[bytearray, np.ndarray]:
    """The bytes np.save(..., allow_pickle=False) writes for a float64 array
    of zeros of `shape`, and that array as a view into them to fill in: the
    file takes no copy of its data beyond the one that fills it."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": shape})
    n_head = head.tell()
    data = bytearray(n_head + 8 * math.prod(shape))
    data[:n_head] = head.getbuffer()
    return data, np.frombuffer(data, "<f8", offset=n_head).reshape(shape)


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
    """The config's fields, `derived` and the RNG algorithm id as sorted,
    indented JSON. The config is a shallow field dict: its values are
    scalars and the rate tuple, which json writes as a list."""
    payload = {
        "config": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)},
        "derived": derived,
        "rng_algorithm": RNG_ALGORITHM,
    }
    _write_bytes(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def write_run_artifacts(out_dir: Path, result: RunResult):
    """Write a run's artifacts into `out_dir`, replacing any of the same
    name, and remove the assoc and report CSVs of the methods this run did
    not solve, so that no file of another run is left beside them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    # layout.npy: the cells, then the hubs, as rows (x_m, y_m, h_m,
    # rate_bps); cells sit at h_m 0 and hubs carry rate_bps 0
    layout = result.prepared.layout
    n = len(layout.cells)
    data, rows = _npy_file((n + len(layout.hubs), 4))
    rows[:n, :2] = layout.cells
    rows[:n, 3] = layout.rates
    rows[n:, :3] = layout.hubs
    _write_bytes(out_dir / "layout.npy", data)
    table = result.prepared.instance.link_table
    data, stacked = _npy_file((4, *table.pl_db.shape))
    for k, field in enumerate((table.pl_db, table.sinr_db, table.spec_eff, table.bandwidth_hz)):
        stacked[k] = field
    _write_bytes(out_dir / "links.npy", data)
    for method in METHODS:
        assoc, report = out_dir / f"assoc_{method}.csv", out_dir / f"report_{method}.csv"
        if method in result.matrices:
            write_assoc_csv(assoc, result.matrices[method])
            write_report_csv(report, result.reports[method])
        else:
            assoc.unlink(missing_ok=True)
            report.unlink(missing_ok=True)
    derived = _derived_block(result.prepared)
    derived["constraints"] = result.constraints
    write_summary(out_dir / "summary.json", result.prepared.cfg, derived)
    wall = {m: r.wall_time_s for m, r in result.reports.items()}
    _write_bytes(out_dir / "timing.json", (json.dumps({"wall_time_s": wall}) + "\n").encode())
