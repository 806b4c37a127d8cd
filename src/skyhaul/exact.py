"""Exact association solvers: depth-first branch and bound, plus a brute
force enumerator kept to cross-check the search on small instances.

The search is one function: `solve_exact` keeps its state in local lists
and ints and walks a plan built once, which holds per depth the cell, its
demand and its admissible hubs with their bandwidths as grid units. It
assigns cells one at a time, highest demanded rate first; each cell goes to
an admissible hub with spare capacity (a frame pushed on an explicit stack)
or stays unassigned (the next pass of the loop). A leaf or a cut pops the
last frame, whose cell resumes its hub scan where it stopped; nothing
recurses, so no recursion limit applies. A subtree is cut when an
optimistic completion bound cannot beat the incumbent.

The bound adds to the running objective the most the remaining cells can
add: nothing without backhaul headroom, all their demand if it fits, else
the headroom rounded down to a multiple of the gcd of their demands, since
demands are whole bps. Rate totals are exact Python ints (below 2**53, so
they equal the checker's fsum), and a whole total fits the backhaul cap iff
it fits the cap's floor, so the backhaul test and the bound are int
arithmetic. Each hub's bandwidth total is an exact int on one `exact_grid`,
compared with its `grid_limit` as in greedy step 2; a non-finite unit is
settled by `admit`'s rules when the plan is built.

The enumerator has no capacity logic of its own beyond vectorised sums:
its rate sums are exact, and a candidate whose float bandwidth sum lands
near a hub's cap is re-judged by `check_feasible`.
"""

import math
import time
from itertools import accumulate

import numpy as np

from .association import (AssociationMatrix, ProblemInstance, empty_association,
                          admit, exact_grid, grid_limit, objective,
                          solve_report)
# perfbench/spans.py traces feasibility checks under this module's name
from .association import check_feasible
from .report import SolveReport


class SizeGuardError(RuntimeError):
    """Brute-force enumeration refused: the candidate space is too large."""


class NodeBudgetExceeded(RuntimeError):
    """Search stopped on reaching its node budget; carries the incumbent."""

    def __init__(self, node_count: int, incumbent: AssociationMatrix,
                 incumbent_value: float):
        super().__init__(f"node budget exhausted after {node_count} nodes")
        self.node_count = node_count
        self.incumbent = incumbent
        self.incumbent_value = incumbent_value


DEFAULT_NODE_BUDGET = 100_000_000
ENUMERATION_GUARD = 10_000_000
_ENUM_CHUNK = 1 << 15


def solve_exact(inst: ProblemInstance,
                node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[AssociationMatrix, SolveReport]:
    """Globally optimal association by depth-first branch and bound.

    Cells are visited highest demand first (ties: lower index); for each cell
    the admissible hubs are tried in ascending index before the unassigned
    branch. The incumbent starts as the empty association at value 0, which
    is always feasible, and only strictly better completions replace it.
    Leaves, bound cuts and rejected probes count one node each. On reaching
    node_budget nodes, even as the search finishes, it raises
    NodeBudgetExceeded carrying the best association found so far.
    The search walks a per-depth plan of each cell's admissible hubs with
    an explicit stack, one frame per assigned cell, so its depth is bounded
    by memory, not by Python's recursion limit. Totals are whole bps, so
    the backhaul is judged against the cap's floor in int arithmetic.
    The report carries no verdict: judge the matrix with `check_feasible`.
    """
    t0 = time.perf_counter()
    n, m = inst.n_cells, inst.n_hubs
    cap = inst.backhaul_cap_bps
    rates = inst.int_rates
    order = sorted(range(n), key=lambda i: (-rates[i], i))
    # total and gcd of the demands of cells order[k:]
    tail_rates = [rates[i] for i in reversed(order)]
    suffix_sum = list(accumulate(tail_rates, initial=0))[::-1]
    suffix_gcd = list(accumulate(tail_rates, math.gcd, initial=0))[::-1]
    # whole-bps totals fit a cap iff they fit its floor; an infinite cap
    # fits the total demand, and -inf or NaN fits nothing
    if math.isfinite(cap):
        top = math.floor(cap)
    else:
        top = suffix_sum[0] if cap > 0 else -1
    bw = inst.link_table.bandwidth_hz.ravel()
    units, scale = exact_grid(bw)
    limits = [grid_limit(c, scale) for c in inst.hub_bandwidth_caps.tolist()]
    # a non-finite unit, judged once by admit: 0 where it fits and adds
    # nothing (an infinite cap), None where it never fits
    for k in np.flatnonzero(~np.isfinite(bw)).tolist():
        units[k] = admit(0, units[k], limits[k % m])
    free = [max(c, 0) for c in inst.hub_link_caps.tolist()]  # links each hub may take
    ok = (inst.link_table.sinr_db >= inst.sinr_min_db).tolist()
    # per depth: the cell, its demand and its admissible (hub, unit) pairs
    plan = [(i, rates[i], [(j, units[i * m + j]) for j in range(m) if ok[i][j]])
            for i in order]

    assign = [-1] * n  # hub per cell, -1 for unassigned
    used = [0] * m  # each hub's exact bandwidth total, grid units
    nodes = 0
    best = assign[:]
    best_value = 0

    def incumbent() -> AssociationMatrix:
        a = empty_association(n, m)
        for i, j in enumerate(best):
            if j >= 0:
                a[i, j] = 1
        return a

    # one frame per assigned cell: (the iterator over its hub list, which
    # holds the scan's position, its depth, the running total before it, its
    # hub, that hub's total before it)
    stack = []
    push, pop = stack.append, stack.pop
    depth = running = 0
    while True:
        # one pass per depth; "leave the cell unassigned" is the next pass
        if nodes >= node_budget:
            raise NodeBudgetExceeded(nodes, incumbent(), best_value)
        headroom = top - running
        gain = suffix_sum[depth]
        if headroom < gain:  # the headroom, down to a multiple of the gcd
            g = suffix_gcd[depth]
            gain = headroom // g * g if headroom > 0 else 0
        if depth < n and running + gain > best_value:
            cell, rate, hubs = plan[depth]
            if rate > headroom:  # over the backhaul: every hub refuses
                nodes += len(hubs)
                depth += 1
                continue
            scan = iter(hubs)
        else:  # a leaf or a bound cut; back to the last assigned cell
            nodes += 1
            if running > best_value:  # a leaf; a cut never beats best_value
                best, best_value = assign[:], running
            if not stack:
                break
            scan, depth, running, j, used[j] = pop()
            free[j] += 1
            cell, rate, _ = plan[depth]
            assign[cell] = -1
        for j, u in scan:
            if free[j] and u is not None and used[j] + u <= limits[j]:
                push((scan, depth, running, j, used[j]))
                used[j] += u
                free[j] -= 1
                assign[cell] = j
                running += rate
                break
            nodes += 1
        depth += 1
    if nodes >= node_budget:
        raise NodeBudgetExceeded(nodes, incumbent(), best_value)
    a = incumbent()
    return a, solve_report(inst, a, "exact", time.perf_counter() - t0, nodes, nodes)


def enumerate_all(inst: ProblemInstance) -> tuple[AssociationMatrix, float]:
    """Brute force over every single-association candidate, for cross-checks.

    Each cell independently picks one of the hubs or stays out, giving
    (n_hubs + 1) ** n_cells candidates; refuses to run past the guard.
    Candidates are judged in vectorised chunks. Their rate sums are exact
    (whole bps below 2**53), so the backhaul test is the checker's verdict;
    a hub's bandwidth sum may round, so a candidate whose sum lands within
    a relative 1e-9 of a hub's cap gets check_feasible's verdict instead.
    The best feasible candidate is returned with its objective recomputed by
    the shared objective routine so comparisons against the search are exact.
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
    cell_idx = np.arange(n)

    def matrix(choice: np.ndarray) -> AssociationMatrix:
        a = empty_association(n, m)
        picked = choice < m
        a[cell_idx[picked], choice[picked]] = 1
        return a

    # nothing feasible leaves every cell out, as solve_exact's first incumbent
    best_val = -1.0
    best_choice = np.full(n, m, dtype=np.int64)
    radix = m + 1
    for start in range(0, total, _ENUM_CHUNK):
        codes = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.int64)
        digits = np.empty((codes.size, n), dtype=np.int64)
        for i in range(n):
            digits[:, i] = codes % radix
            codes //= radix
        admitted = ok_ext[cell_idx, digits].all(axis=1)
        vals = rate_ext[cell_idx, digits].sum(axis=1)
        feasible = admitted & (vals <= inst.backhaul_cap_bps)
        band = np.zeros(codes.size, dtype=bool)
        for j in range(m):
            picked = digits == j
            feasible &= picked.sum(axis=1) <= int(inst.hub_link_caps[j])
            used = np.where(picked, bw_ext[cell_idx, digits], 0.0).sum(axis=1)
            cap_j = float(inst.hub_bandwidth_caps[j])
            feasible &= used <= cap_j
            if math.isfinite(cap_j):
                band |= np.abs(used - cap_j) <= 1e-9 * max(1.0, abs(cap_j))
        for k in np.flatnonzero(band & admitted):
            feasible[k] = check_feasible(inst, matrix(digits[k])).ok
        if feasible.any():
            sub = np.flatnonzero(feasible)
            k = sub[np.argmax(vals[sub])]
            if vals[k] > best_val:
                best_val = float(vals[k])
                best_choice = digits[k]

    a = matrix(best_choice)
    return a, objective(inst, a)
