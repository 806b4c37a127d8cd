#!/usr/bin/env python3
"""Digest every deterministic artifact of a fixed identity panel.

  PYTHONPATH=src python scripts/artifact_digests.py --out digests.txt
  PYTHONPATH=src python scripts/artifact_digests.py --compare OLD.txt \\
      [--allow-solved] [--ignore KEY ...]

The panel:

* table1_urban seeds 0-299 and 3655 through run_scenario, both solvers,
  under constraints "all" and "qos-only";
* sweep_constraints (sweep.csv and summary.json) for seeds 3655, 0 and 1;
* dense-field seeds 0-9 through run_scenario (1e-4 cells/m^2 on a 2 km
  side, 40 m cell separation, hubs at 100 m under an 80 dB ceiling, greedy);
* random_instance(s, 2 + s % 9, 1 + s % 3, tight=s % 2 == 0) for s = 0-399,
  solved by both solvers: matrix, sum rate and op or node count;
* random_instance(s, 3000, 40, tight=True) for s = 0-4, the greedy-scale
  size, solved by the greedy: matrix, sum rate, op count, and the checker's
  verdict (ok flag and violation messages) on the step-1, step-2 and final
  matrices.

Every exact search runs with a budget of NODE_BUDGET nodes. Each entry
writes one line per artifact file, "<entry>/<file> <sha256 prefix>", and one
line per CSV column or summary.json leaf key, "<entry>/<file>#<key> <digest>";
timing files are left out, since wall time is not deterministic. A run
that ends in a documented failure writes "<entry> FAILED <exception class>"
in their place; a random instance writes one such line per failed solver,
"<entry>/<solver>.json FAILED <exception class>".

--compare OLD runs the panel on the importable skyhaul and compares with a
digest file written earlier, e.g. at a parent commit. Any difference fails
(exit 1) except the kinds named on the command line: --allow-solved accepts
an entry that failed in OLD and is now solved, and --ignore KEY skips a
column or key (such as node_count) wherever it occurs, comparing the rest of
that file key by key.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import skyhaul as sk
from skyhaul.association import greedy_step1, greedy_step2
from skyhaul.instances import random_instance

NODE_BUDGET = 300_000
URBAN_SEEDS = (*range(300), 3655)
SWEEP_SEEDS = (3655, 0, 1)
DENSE_SEEDS = range(10)
RANDOM_SEEDS = range(400)
GREEDY_SCALE_SEEDS = range(5)
DENSE_FIELD = {"cell_intensity_per_m2": 1e-4, "cell_min_sep_m": 40.0,
               "hub_altitude_m": 100.0, "pl_max_db": 80.0, "solver": "greedy",
               "area_side_m": 2000.0}
DOCUMENTED = (sk.DeploymentError, sk.CoverageError, sk.NodeBudgetExceeded,
              sk.SizeGuardError)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _fields(name: str, data: bytes) -> dict[str, bytes]:
    """Column by column (CSV) or leaf by leaf (JSON) contents of a file."""
    if name.endswith(".csv"):
        header, *rows = list(csv.reader(io.StringIO(data.decode())))
        return {key: "\n".join(row[k] for row in rows).encode()
                for k, key in enumerate(header)}
    if name.endswith(".json"):
        def leaves(node, prefix):
            if isinstance(node, dict):
                for key, value in node.items():
                    yield from leaves(value, f"{prefix}{key}.")
            else:
                yield prefix[:-1], json.dumps(node).encode()
        return dict(leaves(json.loads(data), ""))
    return {}


def _file_lines(entry: str, name: str, data: bytes):
    yield f"{entry}/{name} {_sha(data)}"
    for key, value in _fields(name, data).items():
        yield f"{entry}/{name}#{key} {_sha(value)}"


def _dir_lines(entry: str, out: Path):
    for path in sorted(out.iterdir()):
        if not path.name.startswith("timing_"):
            yield from _file_lines(entry, path.name, path.read_bytes())


def _run(entry: str, make, tmp: Path):
    """Lines of one entry: `make(out_dir)` writes its artifacts there."""
    out = tmp / entry
    try:
        make(out)
    except DOCUMENTED as exc:
        return [f"{entry} FAILED {type(exc).__name__}"]
    return list(_dir_lines(entry, out))


def _random_lines(seed: int):
    inst = random_instance(seed, 2 + seed % 9, 1 + seed % 3, tight=seed % 2 == 0)
    entry = f"random/seed{seed:04d}"
    for method in ("greedy", "exact"):
        try:
            a, report = (sk.solve_greedy(inst) if method == "greedy"
                         else sk.solve_exact(inst, NODE_BUDGET))
        except DOCUMENTED as exc:
            yield f"{entry}/{method}.json FAILED {type(exc).__name__}"
            continue
        record = {"matrix": _sha(np.ascontiguousarray(a, dtype=np.int8).tobytes()),
                  "shape": list(a.shape), "sum_rate_bps": report.sum_rate_bps,
                  "op_count": report.op_count, "node_count": report.node_count}
        yield from _file_lines(entry, f"{method}.json", json.dumps(record).encode())


def _greedy_scale_lines(seed: int):
    inst = random_instance(seed, 3000, 40, tight=True)
    candidates = greedy_step1(inst)
    packed = greedy_step2(inst, candidates)
    a, report = sk.solve_greedy(inst)
    verdicts = {}
    for stage, matrix in (("step1", candidates), ("step2", packed), ("final", a)):
        verdict = sk.check_feasible(inst, matrix)
        verdicts[stage] = {"ok": verdict.ok, "violated": verdict.violated}
    record = {"matrix": _sha(np.ascontiguousarray(a, dtype=np.int8).tobytes()),
              "shape": list(a.shape), "sum_rate_bps": report.sum_rate_bps,
              "op_count": report.op_count, "verdicts": verdicts}
    yield from _file_lines(f"greedy-scale/seed{seed:04d}", "greedy.json",
                           json.dumps(record).encode())


def panel_lines():
    urban = sk.table1_urban()
    dense = dataclasses.replace(urban, **DENSE_FIELD)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for constraints in ("all", "qos-only"):
            for seed in URBAN_SEEDS:
                cfg = dataclasses.replace(urban, seed=seed)
                yield from _run(f"urban-{constraints}/seed{seed:04d}",
                                lambda out: sk.run_scenario(
                                    cfg, out, solver="both", constraints=constraints,
                                    node_budget=NODE_BUDGET), tmp)
        for seed in SWEEP_SEEDS:
            cfg = dataclasses.replace(urban, seed=seed)
            yield from _run(f"sweep/seed{seed:04d}",
                            lambda out: sk.sweep_constraints(
                                cfg, out, node_budget=NODE_BUDGET), tmp)
        for seed in DENSE_SEEDS:
            cfg = dataclasses.replace(dense, seed=seed)
            yield from _run(f"dense-field/seed{seed:04d}",
                            lambda out: sk.run_scenario(cfg, out), tmp)
    for seed in RANDOM_SEEDS:
        yield from _random_lines(seed)
    for seed in GREEDY_SCALE_SEEDS:
        yield from _greedy_scale_lines(seed)


def _parse(lines) -> dict[str, str]:
    return dict(line.rstrip("\n").split(" ", 1) for line in lines if line.strip())


def compare(old: dict[str, str], new: dict[str, str], allow_solved: bool,
            ignore: set[str]) -> list[str]:
    """Differences between two digest maps, after the named exemptions."""
    if allow_solved:
        solved = {k for k, v in old.items()
                  if v.startswith("FAILED") and not new.get(k, "").startswith("FAILED")}

        def kept(k):  # an entry is a run directory or a random-instance file
            return not {k.split("#")[0], "/".join(k.split("/")[:2])} & solved
        old = {k: v for k, v in old.items() if kept(k)}
        new = {k: v for k, v in new.items() if kept(k)}

    files = defaultdict(set)  # file -> its keys, from both sides
    for k in (*old, *new):
        if "#" in k:
            path, key = k.split("#", 1)
            files[path].add(key)
    skipped = {path for path, keys in files.items() if keys & ignore}

    problems = []
    for k in sorted(old.keys() | new.keys()):
        path, _, key = k.partition("#")
        if key in ignore or (path in skipped and not key):
            continue  # an ignored key, or a whole-file digest that holds one
        if path not in skipped and key:
            continue  # the whole-file digest already covers this key
        if old.get(k) != new.get(k):
            problems.append(f"{k}: {old.get(k, 'absent')} -> {new.get(k, 'absent')}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the digest lines here (default: stdout "
                                  "unless --compare is given)")
    ap.add_argument("--compare", metavar="OLD", help="digest file to compare with")
    ap.add_argument("--allow-solved", action="store_true",
                    help="accept entries that failed in OLD and are now solved")
    ap.add_argument("--ignore", action="append", default=[], metavar="KEY",
                    help="CSV column or summary.json key to leave out (repeatable)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    lines = list(panel_lines())
    elapsed = time.perf_counter() - t0
    if args.out:
        Path(args.out).write_text("".join(f"{line}\n" for line in lines))
    elif not args.compare:
        print("\n".join(lines))
    entries = {"/".join(line.split("/", 2)[:2]) for line in lines}
    failed = sum(" FAILED " in line for line in lines)
    print(f"{len(lines)} digest lines, {len(entries)} entries, {failed} failed, "
          f"{elapsed:.1f} s", file=sys.stderr)

    if args.compare:
        with open(args.compare) as f:
            problems = compare(_parse(f), _parse(lines), args.allow_solved,
                               set(args.ignore))
        for text in problems[:50]:
            print(text)
        verdict = "DIFFERENT" if problems else "identical"
        print(f"{verdict}: {len(problems)} differences against {args.compare}")
        sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
