"""Record the reference outputs a workload's runs are checked against.

  PYTHONPATH=src python3 perfbench/record_reference.py WORKLOAD [--tiny]

Runs every master seed of the workload's pool once, untimed, and writes
perfbench/reference/<name>.csv. The committed files were recorded when the
benchmark was added; re-record only to correct the benchmark, never to absorb a
change in the program's outputs.
"""

import argparse
import csv
import tempfile
from pathlib import Path

from workloads import get, outcome_of, reference_path, summary_keys
from worker import fresh_dir

FIELDS = ["seed", "outcome", "greedy_sum", "exact_sum", "assoc_sha", "summary_sha"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    wl = get(args.workload, args.tiny)
    rows, keys = [], None
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        out = Path(tmp)
        for seed in range(wl.pool):
            inp = wl.make_input(seed)
            fresh_dir(out)
            try:
                result, outcome = wl.call(inp, out), "ok"
            except Exception as exc:
                result, outcome = None, outcome_of(exc)
            row = {"seed": seed, "outcome": outcome}
            if outcome == "ok":
                if keys is None:
                    summary = out / "summary.json"
                    keys = summary_keys(summary) if summary.exists() else []
                rec = wl.record(inp, result, out, keys)
                if "rejected" in rec:
                    raise SystemExit(f"seed {seed}: {rec['rejected']}")
                row.update({k: (repr(v) if isinstance(v, float) else v)
                            for k, v in rec.items() if k in FIELDS})
            rows.append(row)
    path = reference_path(wl)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# summary_keys: {','.join(keys or [])}\n")
        w = csv.DictWriter(f, FIELDS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    solved = sum(r["outcome"] == "ok" for r in rows)
    print(f"{path}: {len(rows)} seeds, {solved} solved")


if __name__ == "__main__":
    main()
