"""The benchmark workloads.

Each workload drives skyhaul only through its public API with stock configs.
A workload maps the benchmark seed onto a contiguous, wrapping range of
master seeds inside a fixed pool; the pool is the range the recorded
reference covers, so every scenario a run can reach has a reference entry.

Per scenario a workload does three things:

* ``make_input(seed)``: input preparation, never timed;
* ``call(inp, out_dir)``: the one timed call into the program;
* ``record(inp, result, out_dir, keys)``: the output check, never
  timed. It re-judges every association it receives with ``check_feasible``
  and returns the digests and sums that are compared against the reference.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import skyhaul as sk

# Documented failures and the CLI exit code each maps to. Anything else that
# a call raises is a crash and aborts the run.
EXIT3 = (sk.DeploymentError, sk.CoverageError)
EXIT4 = (sk.NodeBudgetExceeded, sk.SizeGuardError)

# The original check_feasible, bound before any tracing wrapper is installed,
# so the benchmark's own re-judging is never counted as program time.
_check_feasible = sk.check_feasible


def outcome_of(exc: BaseException) -> str:
    if isinstance(exc, EXIT3):
        return "exit3"
    if isinstance(exc, EXIT4):
        return "exit4"
    raise exc


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_sha(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def summary_sha(path: Path, keys: list[str]) -> str:
    """Digest of summary.json projected onto the dotted keys the reference
    was recorded with, so a later PR may add keys without breaking the check
    but may not change or drop a recorded one."""
    payload = json.loads(path.read_text())
    projected = {}
    for dotted in keys:
        node = payload
        for part in dotted.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        projected[dotted] = node
    return _sha(json.dumps(projected, sort_keys=True).encode())


def summary_keys(path: Path) -> list[str]:
    """Dotted leaf keys of a summary.json, as the reference header stores them."""
    def walk(node, prefix):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from walk(v, f"{prefix}{k}.")
        else:
            yield prefix[:-1]
    return sorted(walk(json.loads(path.read_text()), ""))


def _assoc_sha(a: np.ndarray) -> str:
    rows = "".join(f"{int(i)},{int(j)}\n" for i, j in zip(*np.nonzero(a)))
    return _sha(rows.encode())


def _rejudge(inst, matrices: dict) -> dict:
    """{"rejected": [...]} naming each association check_feasible refuses,
    or {} when all pass."""
    bad = [f"{method}: {v.violated}" for method, a in matrices.items()
           if not (v := _check_feasible(inst, a)).ok]
    return {"rejected": bad} if bad else {}


def upper_bound_bps(inst) -> float:
    """Certified upper bound on any feasible association's sum rate.

    The least of: the backhaul cap; the demand of every cell with at least
    one admissible hub; and, summed over hubs, the lesser of the hub's
    link_cap largest admissible demands and a fractional knapsack of
    admissible demands into the hub's bandwidth cap.
    """
    ok = inst.link_table.sinr_db >= inst.sinr_min_db
    rates = np.asarray(inst.rates, dtype=float)
    total = math.fsum(rates[ok.any(axis=1)])
    per_hub = []
    for j in range(inst.n_hubs):
        cells = np.flatnonzero(ok[:, j])
        r = rates[cells]
        top = math.fsum(np.sort(r)[::-1][:int(inst.hub_link_caps[j])])
        bw = inst.link_table.bandwidth_hz[cells, j]
        order = np.argsort(-(r / bw), kind="stable")
        room, knap = float(inst.hub_bandwidth_caps[j]), 0.0
        for k in order:
            take = min(1.0, room / bw[k]) if bw[k] > 0 else 1.0
            knap += take * r[k]
            room -= take * bw[k]
            if room <= 0:
                break
        per_hub.append(min(top, knap))
    return min(float(inst.backhaul_cap_bps), total, math.fsum(per_hub))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # master seeds 0 .. pool-1 are covered by the reference
    overrides: dict  # ScenarioConfig fields changed from table1_urban

    def seeds(self, seed: int):
        k = seed % self.pool
        while True:
            yield k
            k = (k + 1) % self.pool

    def make_input(self, seed: int):
        return dataclasses.replace(sk.table1_urban(), **self.overrides, seed=seed)


class UrbanRun(Workload):
    def call(self, cfg, out_dir):
        return sk.run_scenario(cfg, out_dir, solver="both", constraints="all")

    def record(self, cfg, res, out_dir, keys):
        return {"greedy_sum": res.reports["greedy"].sum_rate_bps,
                "exact_sum": res.reports["exact"].sum_rate_bps,
                "assoc_sha": _file_sha(out_dir / "assoc_greedy.csv",
                                       out_dir / "assoc_exact.csv"),
                "summary_sha": summary_sha(out_dir / "summary.json", keys),
                **_rejudge(res.prepared.instance, res.matrices)}


class DenseField(Workload):
    def call(self, cfg, out_dir):
        return sk.run_scenario(cfg, out_dir)

    def record(self, cfg, res, out_dir, keys):
        inst = res.prepared.instance
        return {"greedy_sum": res.reports["greedy"].sum_rate_bps,
                "bound_sum": upper_bound_bps(inst),
                "assoc_sha": _file_sha(out_dir / "assoc_greedy.csv"),
                "summary_sha": summary_sha(out_dir / "summary.json", keys),
                **_rejudge(inst, res.matrices)}


@dataclasses.dataclass(frozen=True)
class GreedyScale(Workload):
    n_cells: int = 3000
    n_hubs: int = 40

    def make_input(self, seed):
        return sk.random_instance(seed, self.n_cells, self.n_hubs, tight=True)

    def call(self, inst, out_dir):
        a, report = sk.solve_greedy(inst)
        return a, report, sk.check_feasible(inst, a)

    def record(self, inst, result, out_dir, keys):
        a, report, verdict = result
        rec = {"greedy_sum": report.sum_rate_bps,
               "bound_sum": upper_bound_bps(inst),
               "assoc_sha": _assoc_sha(a),
               **_rejudge(inst, {"greedy": a})}
        if not verdict.ok:  # the timed solve-then-verify call itself refused it
            rec.setdefault("rejected", []).append(f"timed check: {verdict.violated}")
        return rec


# 50x the urban cell density on a quarter of its area: ~240 cells x ~35 hubs.
# The full 4 km side (~1000 x 140, ~5 s a scenario) left five scenarios per
# run, and identical runs then differed by over 25% on a noisy host.
_DENSE = {"cell_intensity_per_m2": 1e-4, "cell_min_sep_m": 40.0,
          "hub_altitude_m": 100.0, "pl_max_db": 80.0, "solver": "greedy",
          "area_side_m": 2000.0}

WORKLOADS = {
    "urban-run": UrbanRun("urban-run", 3000, {}),
    "dense-field": DenseField("dense-field", 300, _DENSE),
    "greedy-scale": GreedyScale("greedy-scale", 200, {}),
}

# Same code paths at sizes small enough for the self-check; the urban
# workloads are small already.
TINY = {
    "dense-field": DenseField("dense-field-tiny", 8,
                              {**_DENSE, "area_side_m": 1000.0}),
    "greedy-scale": GreedyScale("greedy-scale-tiny", 8, {}, n_cells=300, n_hubs=4),
}


def get(name: str, tiny: bool = False) -> Workload:
    return (tiny and TINY.get(name)) or WORKLOADS[name]


def reference_path(wl: Workload) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{wl.name}.csv"
