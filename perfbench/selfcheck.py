"""Fast self-check of the benchmark itself.

  python3 perfbench/selfcheck.py

From the root of a checkout: runs every workload at tiny sizes for one
second, untraced and traced, and checks that each run prints exactly the
metrics BENCHMARK.json names for that mode, each a number with its unit,
and that all outputs are correct. Then checks that the benchmark fails,
without printing a result, in a directory holding only BENCHMARK.json and
the benchmark's own files. Exits 1 on any failure.
"""

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(workload: str, trace: int) -> list[str]:
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: outputs not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    for name in sorted(set(units) - set(metrics)):
        errors.append(f"{where}: metric {name} named but not printed")
    for name in sorted(set(metrics) - set(units)):
        errors.append(f"{where}: metric {name} printed but not named")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            errors.append(f"{where}: {name} value {value!r} is not a number")
        if name in units and m.get("unit") != units[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, want {units[name]!r}")
    return errors


def check_bare() -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must fail, print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: the benchmark did not fail cleanly"]
    return []


def main() -> int:
    errors = []
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_output(w["name"], trace)
    errors += check_bare()
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
