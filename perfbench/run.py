"""skyhaul benchmark: one workload per invocation, one JSON line at the end.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. The
load is a closed loop with one client in one process: scenarios run back to
back, as ``skyhaul run`` would run a seed panel. Every
workload runs in a fresh worker process, so memory and warm caches do not
leak between workloads.

--trace 0 prints the end-to-end metrics; set-up is measured by starting the
worker SETUP_RUNS times (SETUP_RUNS - 1 probes plus the measured run) and
taking the median. --trace 1 prints the per-layer metrics from a traced run.
Metric names and units come from BENCHMARK.json; the run refuses to print a
metric that file does not name, or to leave out one it does.

Every output is checked against perfbench/reference/<workload>.csv, recorded
when the benchmark was added. Any mismatch, or a deterministic counter that does not
repeat, makes the result "correct": false and the exit code 1.
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 160
COMPARED = ("greedy_sum", "exact_sum", "assoc_sha", "summary_sha")


class BenchError(RuntimeError):
    pass


def worker(root: Path, args: list[str]) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (start time, its JSON line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(path: Path) -> dict[int, dict]:
    with open(path) as f:
        f.readline()  # summary keys, read by the worker
        return {int(row["seed"]): row for row in csv.DictReader(f)}


def check(records: list[dict], ref: dict[int, dict]) -> list[tuple[int, str]]:
    """(record index, problem) pairs; an empty list means all outputs match.

    A seed that ended in a documented failure in the reference may now be
    solved (the placement fix is expected to do that); a seed solved in the
    reference must still be solved, with identical sums and digests.
    """
    problems = []
    for k, rec in enumerate(records):
        seed, row = rec["seed"], ref.get(rec["seed"])
        for text in rec.get("rejected", []):
            problems.append((k, f"seed {seed}: check_feasible rejects {text}"))
        if rec.get("counter_mismatch"):
            problems.append((k, f"seed {seed}: deterministic counters differ between repeats"))
        if row is None:
            problems.append((k, f"seed {seed}: no reference entry"))
        elif row["outcome"] != "ok":
            if rec["outcome"] not in (row["outcome"], "ok"):
                problems.append((k, f"seed {seed}: {rec['outcome']}, reference {row['outcome']}"))
        elif rec["outcome"] != "ok":
            problems.append((k, f"seed {seed}: {rec['outcome']}, reference solved it"))
        else:
            for field in COMPARED:
                want = row[field]
                if want == "":
                    continue
                got = rec[field]
                if (float(want) != got) if field.endswith("_sum") else (want != got):
                    problems.append((k, f"seed {seed}: {field} {got!r}, reference {want}"))
    return problems


def end_to_end(records: list[dict], setups: list[float], rss_mb: float) -> dict:
    solved = [r for r in records if r["outcome"] == "ok"]
    if not solved:
        raise BenchError("no scenario was solved; latency is undefined")
    lat = sorted(r["ns"] / 1e6 for r in solved)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    ref_key = "exact_sum" if "exact_sum" in solved[0] else "bound_sum"
    return {
        "scenario_p50_ms": statistics.median(lat),
        "scenario_p90_ms": p90,
        "solved_per_s": len(solved) / (sum(r["ns"] for r in records) / 1e9),
        "solved_share": len(solved) / len(records),
        "greedy_rate_ratio": sum(r["greedy_sum"] for r in solved)
                             / sum(r[ref_key] for r in solved),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


def describe(records: list[dict], metrics: dict, units: dict, extra: dict):
    """Human-readable lines before the JSON result."""
    outcomes = [r["outcome"] for r in records]
    solved = outcomes.count("ok")
    print(f"attempted {len(records)}  solved {solved}  documented failures "
          f"{len(records) - solved} (exit3 {outcomes.count('exit3')}, "
          f"exit4 {outcomes.count('exit4')})  "
          f"fail_share {1 - solved / len(records):.4f}")
    for name, value in metrics.items():
        note = ""
        if name == "scenario_p50_ms":
            note = f"  (n={solved})"
        elif name == "scenario_p90_ms":
            beyond = solved // 10
            note = f"  (n={solved}, {beyond} beyond"
            note += ")" if beyond >= 10 else "; under 10 beyond, indicative only)"
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")
    for key, value in extra.items():
        print(f"  {key}: {value}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes and one set-up probe, for the self-check")
    args = ap.parse_args()

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "skyhaul" / "__init__.py").is_file():
            raise BenchError(f"no skyhaul source under {root / 'src'}")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; known: {names}")
        section = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}

        scratch = root / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            common.append("--tiny")
        setups = []
        if not args.trace:
            for _ in range(1 if args.tiny else SETUP_RUNS - 1):
                t0, out = worker(root, [*common, "--probe"])
                setups.append(out["ready"] - t0)
        t0, out = worker(root, [*common, "--seconds", str(args.seconds),
                                "--trace", str(args.trace), "--out", str(scratch)])
        setups.append(out["ready"] - t0)
        shutil.rmtree(scratch / "artifacts", ignore_errors=True)

        records = out["records"]
        problems = check(records, load_reference(Path(out["reference"])))
        if args.trace:
            metrics = out["layer"]
            extra = {"largest self time": ", ".join(
                         f"{n} {share:.1%}" for n, share in out["largest_self"]),
                     "missing wraps": ", ".join(out["missing"]) or "none",
                     "spans": str(scratch / "spans.jsonl")}
        else:
            metrics = end_to_end(records, setups, out["peak_rss_mb"])
            extra = {"setup samples (s)": " ".join(f"{s:.4f}" for s in setups)}
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                             f"printed but not named in BENCHMARK.json, or named "
                             f"but not printed")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    describe(records, {n: metrics[n] for n in units}, units, extra)
    for _, text in problems[:20]:
        print(f"  OUTPUT MISMATCH {text}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len({k for k, _ in problems}),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
