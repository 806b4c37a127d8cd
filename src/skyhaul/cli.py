"""Command-line front end.

Subcommands:
  run          full pipeline on one scenario, artifacts into --out; with no
               --config or --seed this is the bundled case study, and it
               prints the layout, the fleet and each solver's figures
  sweep        same instance solved under both constraint sets
  seed-search  scan master seeds for a target cell count

Exit codes: 0 success, 2 bad configuration or arguments, 3 scenario
infeasible (placement, fleet sizing, coverage, seed search), 4 the exact
solver's node budget reached.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from .channel import CoverageError
from .config import (CONSTRAINT_CHOICES, SOLVER_CHOICES, ConfigError,
                     ScenarioConfig, load_config, table1_urban)
from .deployment import DeploymentError
from .exact import DEFAULT_NODE_BUDGET, NodeBudgetExceeded
from .harness import SeedSearchError, run_scenario, seed_search, sweep_constraints

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH",
                   help="scenario INI file (defaults to the built-in urban preset)")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="override the scenario master seed")


def _out_dir(value: str) -> str:
    """--out, refused before any work if it names a file or lies below one."""
    found = next((p for p in (Path(value), *Path(value).parents) if p.exists()), None)
    if found and not found.is_dir():
        raise argparse.ArgumentTypeError(f"{found} is not a directory")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyhaul",
        description="Aerial backhaul hub placement and cell association.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario end to end")
    _add_common(run)
    run.add_argument("--out", required=True, metavar="DIR", type=_out_dir,
                     help="directory for run artifacts")
    run.add_argument("--solver", choices=SOLVER_CHOICES,
                     help="which solver(s) to run (default from config)")
    run.add_argument("--constraints", choices=CONSTRAINT_CHOICES,
                     help="constraint set to enforce (default from config)")
    run.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                     metavar="N", help="search-node cap for the exact solver")

    sweep = sub.add_parser("sweep",
                           help="solve under qos-only and all constraints")
    _add_common(sweep)
    sweep.add_argument("--out", required=True, metavar="DIR", type=_out_dir)
    sweep.add_argument("--solver", choices=SOLVER_CHOICES,
                       help="which solver(s) to run (default from config)")

    search = sub.add_parser("seed-search",
                            help="find a master seed with a given cell count")
    _add_common(search)
    search.add_argument("--target", type=int, required=True, metavar="N",
                        help="required number of cells after thinning")
    search.add_argument("--max-seeds", type=int, default=10_000, metavar="N",
                        help="how many seeds to scan (default 10000)")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else table1_urban()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "run":
            t0 = time.perf_counter()
            result = run_scenario(cfg, args.out, solver=args.solver,
                                  constraints=args.constraints,
                                  node_budget=args.node_budget)
            elapsed = time.perf_counter() - t0
            layout, fleet = result.prepared.layout, result.prepared.fleet
            print(f"seed {cfg.seed}: {len(layout.cells)} cells, {len(layout.hubs)} hubs"
                  + (f" (cap {fleet.per_hub_cell_cap} cells/hub, min separation "
                     f"{fleet.hub_min_sep_m:.1f} m)" if fleet else ""))
            for method, report in result.reports.items():
                print(f"{method}: sum_rate={report.sum_rate_bps:.6g} bps "
                      f"associated={report.n_associated} "
                      f"per_hub_links={list(report.per_hub_links)} "
                      f"hubs_in_use={report.hubs_in_use} "
                      f"feasible={report.feasible} "
                      f"wall={report.wall_time_s * 1e3:.2f} ms"
                      + (f" nodes={report.node_count}"
                         if report.node_count is not None else ""))
            print(f"pipeline {elapsed:.3f} s, artifacts written to {args.out}")
        elif args.command == "sweep":
            rows = sweep_constraints(cfg, args.out, solver=args.solver)
            for r in rows:
                print(f"{r['constraints']:>8} {r['method']:>6}: "
                      f"associated={r['n_associated']} "
                      f"sum_rate={r['sum_rate_bps']:.6g} bps"
                      + (f" violates[{r['violates_full']}]"
                         if r["violates_full"] else ""))
            print(f"artifacts written to {args.out}")
        elif args.command == "seed-search":
            start = args.seed if args.seed is not None else 0
            seed = seed_search(cfg, args.target, args.max_seeds, start=start)
            print(seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DeploymentError, CoverageError, SeedSearchError) as exc:
        print(f"scenario infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NodeBudgetExceeded as exc:
        print(f"solver guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
