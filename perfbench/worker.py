"""Runs one workload in a fresh process and prints one JSON line.

  worker.py --workload W --seed N --probe
      set up (import, config, first input) and report when the first timed
      call would start; run.py repeats this to measure set-up time.
  worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
      run scenarios back to back (closed loop, one client) for S seconds.

With --trace 0 every scenario is timed around its one public call. With
--trace 1 each seed runs once plain and once traced, in alternating order,
which gives the tracing overhead; every tenth seed runs traced a second time
and its deterministic counters must repeat exactly.

skyhaul must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from workloads import get, outcome_of

import spans


def read_reference_keys(wl) -> list[str]:
    with open(workloads.reference_path(wl)) as f:
        head = f.readline()
    return [k for k in head.split(":", 1)[1].strip().split(",") if k]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def attempt(wl, seed, inp, out_dir, keys, tracer=None):
    """One timed call plus its untimed output record. With a tracer, the
    call is the root span of a new scenario."""
    fresh_dir(out_dir)
    if tracer is not None:
        tracer.scenario += 1
        sid = tracer.open("scenario")
    t0 = time.perf_counter_ns()
    try:
        result, outcome = wl.call(inp, out_dir), "ok"
    except Exception as exc:  # documented failures only; others re-raise
        result, outcome = None, outcome_of(exc)
    ns = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.close(sid)
    rec = {"seed": seed, "outcome": outcome, "ns": ns}
    if outcome == "ok":
        rec.update(wl.record(inp, result, out_dir, keys))
    return rec


def bytes_in(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    wl = get(args.workload, args.tiny)
    seeds = wl.seeds(args.seed)
    seed = next(seeds)
    inp = wl.make_input(seed)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return

    keys = read_reference_keys(wl)
    out_dir = args.out / "artifacts"
    records = []
    tracer = spans.Tracer() if args.trace else None
    traced, plain_ns, traced_ns, bytes_written = [], 0, 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        if not args.trace:
            records.append(attempt(wl, seed, inp, out_dir, keys))
        else:
            passes = ["plain", "traced"] if k % 2 == 0 else ["traced", "plain"]
            if k % 10 == 0:
                passes.append("repeat")
            first = None
            for kind in passes:
                if kind == "plain":
                    rec = attempt(wl, seed, inp, out_dir, keys)
                    plain_ns += rec["ns"]
                else:
                    root = len(tracer.spans)
                    tracer.install()
                    try:
                        rec = attempt(wl, seed, inp, out_dir, keys, tracer)
                    finally:
                        tracer.uninstall()
                    per = tracer.aggregate(root)
                    if kind == "traced":
                        traced_ns += rec["ns"]
                        traced.append(per)
                        bytes_written += bytes_in(out_dir)
                        first = spans.counters(per)
                    elif spans.counters(per) != first:
                        rec["counter_mismatch"] = True
                records.append(rec)
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
        seed = next(seeds)
        inp = wl.make_input(seed)

    result = {"ready": ready, "records": records,
              "reference": str(workloads.reference_path(wl)),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        layer = spans.layer_metrics(traced)
        layer["harness.bytes_written"] = bytes_written / max(len(traced), 1)
        layer["trace.overhead_pct"] = 100.0 * (traced_ns - plain_ns) / max(plain_ns, 1)
        layer["trace.scenarios"] = len(traced)
        layer["trace.missing_wraps"] = len(tracer.missing)
        result.update(layer=layer, missing=sorted(tracer.missing),
                      largest_self=spans.largest_self(traced))
        tracer.dump(args.out / "spans.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
