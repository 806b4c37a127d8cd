"""Cell-to-hub association: problem instance, feasibility checks, and the
three-step greedy solver.

The greedy works in three phases. Step 1 lets every cell request its best-SINR
hub, subject to the admission threshold. Step 2 lets each hub pack requests
independently, highest demanded rate first, under its bandwidth and link caps.
Step 3 trims associations from the lightest-loaded hubs until the global
backhaul rate cap holds.

Demands are whole bps with a total below 2**53, so the solvers keep rate
totals as exact Python ints. Every partial sum of such demands is also exact
in a double, so the solvers' rate verdicts equal those of the feasibility
checker, which sums with math.fsum. Bandwidth sums use math.fsum everywhere,
so no verdict depends on accumulation order.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import LinkTable
from .report import SolveReport

# Association matrices are plain 0/1 integer arrays shaped n_cells x n_hubs;
# row i column j set means cell i is carried by hub j.
AssociationMatrix = np.ndarray

CONSTRAINT_BACKHAUL = "backhaul"
CONSTRAINT_BANDWIDTH = "bandwidth"
CONSTRAINT_SINR = "sinr"
CONSTRAINT_LINKS = "links"
CONSTRAINT_SINGLE = "single-assoc"


@dataclass(frozen=True)
class ProblemInstance:
    link_table: LinkTable
    rates: np.ndarray  # demanded rate per cell, bps
    backhaul_cap_bps: float
    hub_bandwidth_caps: np.ndarray  # Hz per hub
    hub_link_caps: np.ndarray  # max links per hub
    sinr_min_db: float

    def __post_init__(self):
        n, m = self.link_table.pl_db.shape
        if self.rates.shape != (n,):
            raise ValueError("rates length must match the link table's cell count")
        if self.hub_bandwidth_caps.shape != (m,) or self.hub_link_caps.shape != (m,):
            raise ValueError("per-hub cap vectors must match the link table's hub count")
        rates = self.rates
        if not (np.isfinite(rates) & (rates > 0) & (rates == np.floor(rates))).all():
            raise ValueError("rates must be positive whole numbers of bps")
        if sum(self.int_rates) >= 2**53:
            raise ValueError("total demand must stay below 2**53 bps")

    @property
    def int_rates(self) -> list[int]:
        """Demanded rate per cell as an exact int, bps."""
        return [int(r) for r in self.rates.tolist()]

    @property
    def n_cells(self) -> int:
        return self.link_table.n_cells

    @property
    def n_hubs(self) -> int:
        return self.link_table.n_hubs


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violated: list[tuple[str, str]]


class OpCounter:
    """Tally of elementary compare/select operations, for complexity plots."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


def empty_association(n_cells: int, n_hubs: int) -> AssociationMatrix:
    return np.zeros((n_cells, n_hubs), dtype=np.int8)


def _check_dims(inst: ProblemInstance, a: AssociationMatrix):
    if a.shape != (inst.n_cells, inst.n_hubs):
        raise ValueError(f"association shape {a.shape} does not match instance "
                         f"({inst.n_cells}, {inst.n_hubs})")


def objective(inst: ProblemInstance, a: AssociationMatrix) -> float:
    """Sum of demanded rates over all set entries, in bps."""
    _check_dims(inst, a)
    row_links = a.sum(axis=1)
    return math.fsum(float(r) * int(k) for r, k in zip(inst.rates, row_links))


def hub_bandwidth_used(inst: ProblemInstance, a: AssociationMatrix, j: int) -> float:
    cells = np.flatnonzero(a[:, j])
    return math.fsum(float(inst.link_table.bandwidth_hz[i, j]) for i in cells)


def check_feasible(inst: ProblemInstance, a: AssociationMatrix) -> FeasibilityReport:
    """Evaluate the five association constraints; violations are data, not errors.

    The SINR constraint only binds on set entries. Matrix entries must be 0/1;
    anything else is a caller bug and raises.
    """
    _check_dims(inst, a)
    if not np.isin(a, (0, 1)).all():
        raise ValueError("association matrix entries must be 0 or 1")
    violated: list[tuple[str, str]] = []

    total_rate = objective(inst, a)
    if total_rate > inst.backhaul_cap_bps:
        violated.append((CONSTRAINT_BACKHAUL,
                         f"total rate {total_rate:.6g} bps > cap {inst.backhaul_cap_bps:.6g} bps"))

    for j in range(inst.n_hubs):
        used = hub_bandwidth_used(inst, a, j)
        if used > float(inst.hub_bandwidth_caps[j]):
            violated.append((CONSTRAINT_BANDWIDTH,
                             f"hub {j}: {used:.6g} Hz > cap {float(inst.hub_bandwidth_caps[j]):.6g} Hz"))

    bad = [(i, j) for i, j in zip(*np.nonzero(a))
           if inst.link_table.sinr_db[i, j] < inst.sinr_min_db]
    if bad:
        violated.append((CONSTRAINT_SINR,
                         f"{len(bad)} links below {inst.sinr_min_db} dB, first {bad[0]}"))

    link_counts = a.sum(axis=0)
    for j in range(inst.n_hubs):
        if link_counts[j] > int(inst.hub_link_caps[j]):
            violated.append((CONSTRAINT_LINKS,
                             f"hub {j}: {int(link_counts[j])} links > cap {int(inst.hub_link_caps[j])}"))

    rows = np.flatnonzero(a.sum(axis=1) > 1)
    if rows.size:
        violated.append((CONSTRAINT_SINGLE, f"cells {rows.tolist()} associated more than once"))

    return FeasibilityReport(ok=not violated, violated=violated)


def greedy_step1(inst: ProblemInstance, ops: OpCounter | None = None) -> AssociationMatrix:
    """Candidate requests: each cell marks its single best-SINR hub, provided
    that SINR clears the admission threshold; ties go to the lowest hub index.
    """
    ops = ops or OpCounter()
    a = empty_association(inst.n_cells, inst.n_hubs)
    sinr = inst.link_table.sinr_db
    for i in range(inst.n_cells):
        j = int(np.argmax(sinr[i]))  # first occurrence wins ties
        ops.add(max(inst.n_hubs - 1, 0) + 1)
        if sinr[i, j] >= inst.sinr_min_db:
            a[i, j] = 1
    return a


def greedy_step2(inst: ProblemInstance, candidates: AssociationMatrix,
                 ops: OpCounter | None = None) -> AssociationMatrix:
    """Per-hub packing of the candidate requests.

    Each hub, independently: repeatedly take the remaining candidate with the
    highest demanded rate (ties: lower bandwidth demand, then lower cell
    index). Accept it if the hub still has a free link and the bandwidth cap
    holds; a candidate rejected on bandwidth is dropped and the scan
    continues. Stops when links run out or no candidates remain.
    """
    _check_dims(inst, candidates)
    ops = ops or OpCounter()
    a = empty_association(inst.n_cells, inst.n_hubs)
    bw = inst.link_table.bandwidth_hz
    rates = inst.rates
    for j in range(inst.n_hubs):
        link_cap = int(inst.hub_link_caps[j])
        band_cap = float(inst.hub_bandwidth_caps[j])
        queue = sorted(np.flatnonzero(candidates[:, j]),
                       key=lambda i: (-float(rates[i]), float(bw[i, j]), i))
        accepted_bw: list[float] = []
        for k, i in enumerate(queue):
            if len(accepted_bw) >= link_cap:
                break
            ops.add(len(queue) - k + 2)
            b = float(bw[i, j])
            if math.fsum(accepted_bw + [b]) <= band_cap:
                a[i, j] = 1
                accepted_bw.append(b)
    return a


def greedy_step3(inst: ProblemInstance, assoc: AssociationMatrix,
                 ops: OpCounter | None = None) -> tuple[AssociationMatrix, int]:
    """Trim associations until the total rate fits the backhaul cap.

    While the total rate exceeds the cap: take the hub with the fewest live
    links (ties: lowest index). Prefer dropping its smallest-rate cell whose
    removal alone lands the total within the cap; if no single cell on that
    hub can, drop the hub's smallest-rate cell and keep going. Returns the
    trimmed matrix and the number of hubs still carrying at least one link.
    """
    _check_dims(inst, assoc)
    ops = ops or OpCounter()
    a = assoc.copy()
    rates = inst.int_rates
    cap = inst.backhaul_cap_bps
    cells_on = [list(np.flatnonzero(a[:, j])) for j in range(inst.n_hubs)]
    total = sum(rates[i] for cells in cells_on for i in cells)

    while total > cap:
        live = [j for j in range(inst.n_hubs) if cells_on[j]]
        if not live:
            break
        j = min(live, key=lambda h: (len(cells_on[h]), h))
        ops.add(inst.n_hubs)
        landing = [i for i in cells_on[j] if total - rates[i] <= cap]
        pool = landing if landing else cells_on[j]
        victim = min(pool, key=lambda i: (rates[i], i))
        ops.add(2 * len(cells_on[j]) + 1)
        a[victim, j] = 0
        cells_on[j].remove(victim)
        total -= rates[victim]

    hubs_in_use = sum(1 for j in range(inst.n_hubs) if cells_on[j])
    return a, hubs_in_use


def solve_greedy(inst: ProblemInstance) -> tuple[AssociationMatrix, SolveReport]:
    """Run the three greedy phases end to end.

    The result always satisfies the feasibility checker: step 1 enforces
    admission and single association, step 2 the per-hub caps, step 3 the
    backhaul cap, and later steps only ever remove associations.
    """
    ops = OpCounter()
    t0 = time.perf_counter()
    candidates = greedy_step1(inst, ops)
    packed = greedy_step2(inst, candidates, ops)
    a, _ = greedy_step3(inst, packed, ops)
    wall = time.perf_counter() - t0
    return a, solve_report(inst, a, "greedy", wall, ops.count)


def solve_report(inst: ProblemInstance, a: AssociationMatrix, method: str,
                 wall_time_s: float, op_count: int,
                 node_count: int | None = None) -> SolveReport:
    """Report on a solver's association; every figure but the timing and the
    work counters is derived from the matrix."""
    return SolveReport(
        method=method,
        sum_rate_bps=objective(inst, a),
        n_associated=int((a.sum(axis=1) > 0).sum()),
        per_hub_links=tuple(int(k) for k in a.sum(axis=0)),
        hubs_in_use=int((a.sum(axis=0) > 0).sum()),
        feasible=check_feasible(inst, a).ok,
        wall_time_s=wall_time_s,
        op_count=op_count,
        node_count=node_count,
    )
