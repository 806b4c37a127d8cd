"""Exact association solvers: depth-first branch-and-bound, plus a brute
force enumerator kept around to cross-check the search on small instances.

The search assigns cells one at a time, highest demanded rate first. Each
cell either goes to some admissible hub with spare capacity or stays
unassigned. Subtrees are cut when an optimistic completion bound cannot beat
the incumbent.

The bound adds to the running objective the cheaper of (a) the total demand
of every cell not yet placed and (b) the largest value the remaining
backhaul headroom can actually absorb. For (b) we exploit that demands are
whole bps: any achievable completion is a sum of remaining demands, hence a
multiple of their gcd, so the headroom rounds down to the nearest such
multiple. Rate totals are exact Python ints (ProblemInstance keeps the total
below 2**53, so they equal the checker's fsum). Each hub's bandwidth total is
an exact int on one `exact_grid` of the bandwidth table, grown on assign and
restored on backtrack, and judged by `admit`, as in greedy step 2.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .association import (AssociationMatrix, ProblemInstance, empty_association,
                          admit, exact_grid, objective, solve_report)
# perfbench/spans.py traces feasibility checks under this module's name
from .association import check_feasible  # noqa: F401
from .report import SolveReport


class SizeGuardError(RuntimeError):
    """Brute-force enumeration refused: the candidate space is too large."""


class NodeBudgetExceeded(RuntimeError):
    """Search aborted after expanding too many nodes; carries the incumbent."""

    def __init__(self, node_count: int, incumbent: AssociationMatrix,
                 incumbent_value: float):
        super().__init__(f"node budget exhausted after {node_count} nodes")
        self.node_count = node_count
        self.incumbent = incumbent
        self.incumbent_value = incumbent_value


ENUMERATION_GUARD = 10_000_000
_ENUM_CHUNK = 1 << 15


def _completion_cap(headroom: float, suffix_sum: int, suffix_gcd: int) -> int:
    """Best objective any completion of the current partial assignment can add."""
    if headroom <= 0:
        return 0
    if headroom >= suffix_sum:
        return suffix_sum
    return math.floor(headroom / suffix_gcd) * suffix_gcd


@dataclass
class _SearchState:
    inst: ProblemInstance
    order: list[int]  # cell indices, visit order
    rates: list[int]  # demand per cell, whole bps
    suffix_sum: list[int]  # total demand of cells order[k:]
    suffix_gcd: list[int]  # gcd of demands of cells order[k:]
    admissible: list[list[int]]  # admissible hubs per cell, ascending
    bw_units: list[list]  # bandwidth per cell and hub, on one exact grid
    bw_scale: int  # that grid's scale
    node_budget: int
    node_count: int = 0
    incumbent_value: int = 0
    running: int = 0  # total demand of the assigned cells

    def __post_init__(self):
        self.incumbent = empty_association(self.inst.n_cells, self.inst.n_hubs)
        self.assign = [-1] * self.inst.n_cells  # -1 means unassigned
        self.hub_links = [0] * self.inst.n_hubs
        self.hub_bw = [0] * self.inst.n_hubs  # exact bandwidth total, grid units
        self.link_caps = self.inst.hub_link_caps.tolist()
        self.band_caps = self.inst.hub_bandwidth_caps.tolist()


def _snapshot(state: _SearchState) -> AssociationMatrix:
    a = empty_association(state.inst.n_cells, state.inst.n_hubs)
    for i, j in enumerate(state.assign):
        if j >= 0:
            a[i, j] = 1
    return a


def _dfs(state: _SearchState, depth: int):
    inst = state.inst
    if state.node_count >= state.node_budget:
        raise NodeBudgetExceeded(state.node_count, state.incumbent,
                                 state.incumbent_value)
    running = state.running
    if depth == len(state.order):
        state.node_count += 1
        if running > state.incumbent_value:
            state.incumbent_value = running
            state.incumbent = _snapshot(state)
        return

    headroom = inst.backhaul_cap_bps - running
    bound = running + _completion_cap(headroom, state.suffix_sum[depth],
                                      state.suffix_gcd[depth])
    if bound <= state.incumbent_value:
        state.node_count += 1
        return

    i = state.order[depth]
    rate = state.rates[i]

    for j in state.admissible[i]:
        if state.hub_links[j] >= state.link_caps[j]:
            state.node_count += 1
            continue
        used = state.hub_bw[j]
        total = admit(used, state.bw_units[i][j], state.bw_scale,
                      state.band_caps[j])
        if total is None:
            state.node_count += 1
            continue
        if running + rate > inst.backhaul_cap_bps:
            state.node_count += 1
            continue
        state.assign[i] = j
        state.hub_links[j] += 1
        state.hub_bw[j] = total
        state.running += rate
        _dfs(state, depth + 1)
        state.running -= rate
        state.hub_bw[j] = used
        state.hub_links[j] -= 1
        state.assign[i] = -1
        if state.node_count >= state.node_budget:
            raise NodeBudgetExceeded(state.node_count, state.incumbent,
                                     state.incumbent_value)

    # the "leave cell i unassigned" branch
    _dfs(state, depth + 1)
    if state.node_count >= state.node_budget:
        raise NodeBudgetExceeded(state.node_count, state.incumbent,
                                 state.incumbent_value)


def solve_exact(inst: ProblemInstance,
                node_budget: int = 100_000_000) -> tuple[AssociationMatrix, SolveReport]:
    """Globally optimal association by depth-first branch and bound.

    Cells are visited highest demand first (ties: lower index); for each cell
    the admissible hubs are tried in ascending index before the unassigned
    branch. The incumbent starts as the empty association at value 0, which
    is always feasible, and only strictly better completions replace it.
    Raises NodeBudgetExceeded if the search expands more than node_budget
    nodes; the exception carries the best association found so far.
    """
    t0 = time.perf_counter()
    n = inst.n_cells

    rates = inst.int_rates
    order = sorted(range(n), key=lambda i: (-rates[i], i))
    suffix_sum = [0] * (n + 1)
    suffix_gcd = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_sum[k] = suffix_sum[k + 1] + rates[order[k]]
        suffix_gcd[k] = math.gcd(suffix_gcd[k + 1], rates[order[k]])

    sinr = inst.link_table.sinr_db
    admissible = [[j for j in range(inst.n_hubs) if sinr[i, j] >= inst.sinr_min_db]
                  for i in range(n)]

    units, scale = exact_grid(inst.link_table.bandwidth_hz.ravel())
    m = inst.n_hubs
    state = _SearchState(inst=inst, order=order, rates=rates, suffix_sum=suffix_sum,
                         suffix_gcd=suffix_gcd, admissible=admissible,
                         bw_units=[units[i * m:(i + 1) * m] for i in range(n)],
                         bw_scale=scale, node_budget=node_budget)
    _dfs(state, 0)

    wall = time.perf_counter() - t0
    return state.incumbent, solve_report(inst, state.incumbent, "exact", wall,
                                         state.node_count, state.node_count)


def _fsum_feasible(inst: ProblemInstance, choice: np.ndarray) -> bool:
    """Order-independent capacity verdict for one choice vector.

    Mirrors the checker's fsum accumulation exactly; used to re-judge
    candidates whose vectorised sums land on a cap boundary, where pairwise
    summation can disagree with fsum by an ulp.
    """
    m = inst.n_hubs
    taken_rates: list[float] = []
    per_hub_bw: list[list[float]] = [[] for _ in range(m)]
    for i, d in enumerate(choice):
        if d < m:
            taken_rates.append(float(inst.rates[i]))
            per_hub_bw[d].append(float(inst.link_table.bandwidth_hz[i, d]))
    if math.fsum(taken_rates) > inst.backhaul_cap_bps:
        return False
    for j in range(m):
        if len(per_hub_bw[j]) > int(inst.hub_link_caps[j]):
            return False
        if math.fsum(per_hub_bw[j]) > float(inst.hub_bandwidth_caps[j]):
            return False
    return True


def enumerate_all(inst: ProblemInstance) -> tuple[AssociationMatrix, float]:
    """Brute force over every single-association candidate, for cross-checks.

    Each cell independently picks one of the hubs or stays out, giving
    (n_hubs + 1) ** n_cells candidates; refuses to run past the guard. The
    best feasible candidate is returned with its objective recomputed by the
    shared objective routine so comparisons against the search are exact.
    """
    n, m = inst.n_cells, inst.n_hubs
    total = (m + 1) ** n
    if total > ENUMERATION_GUARD:
        raise SizeGuardError(f"{total} candidates exceed the {ENUMERATION_GUARD} guard")

    rates = inst.rates.astype(float)
    bw = inst.link_table.bandwidth_hz
    sinr_ok = inst.link_table.sinr_db >= inst.sinr_min_db
    # choice value m means "unassigned"; append a zero-cost phantom hub
    bw_ext = np.concatenate([bw, np.zeros((n, 1))], axis=1)
    ok_ext = np.concatenate([sinr_ok, np.ones((n, 1), dtype=bool)], axis=1)
    rate_ext = np.concatenate([np.repeat(rates[:, None], m, axis=1),
                               np.zeros((n, 1))], axis=1)

    best_val = -1.0
    best_code = 0
    radix = m + 1
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        digits = np.empty((codes.size, n), dtype=np.int64)
        rem = codes.copy()
        for i in range(n):
            digits[:, i] = rem % radix
            rem //= radix
        cell_idx = np.arange(n)
        admitted = ok_ext[cell_idx, digits].all(axis=1)
        vals = rate_ext[cell_idx, digits].sum(axis=1)
        feasible = admitted & (vals <= inst.backhaul_cap_bps)
        borderline = np.zeros(codes.size, dtype=bool)
        cap_b = float(inst.backhaul_cap_bps)
        if math.isfinite(cap_b):
            borderline |= np.abs(vals - cap_b) <= 1e-9 * max(1.0, abs(cap_b))
        for j in range(m):
            picked = digits == j
            counts = picked.sum(axis=1)
            feasible &= counts <= int(inst.hub_link_caps[j])
            used = np.where(picked, bw_ext[cell_idx, digits], 0.0).sum(axis=1)
            cap_j = float(inst.hub_bandwidth_caps[j])
            feasible &= used <= cap_j
            if math.isfinite(cap_j):
                borderline |= np.abs(used - cap_j) <= 1e-9 * max(1.0, abs(cap_j))
        # pairwise sums are only trusted away from the cap boundaries; codes
        # inside the guard band get the checker-exact verdict instead
        for k in np.flatnonzero(borderline & admitted):
            feasible[k] = _fsum_feasible(inst, digits[k])
        if feasible.any():
            sub = np.flatnonzero(feasible)
            k = sub[np.argmax(vals[sub])]
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_code = int(codes[k])

    a = empty_association(n, m)
    rem = best_code
    for i in range(n):
        d = rem % radix
        rem //= radix
        if d < m:
            a[i, d] = 1
    return a, objective(inst, a)
