"""Exact association solver: depth-first branch and bound.

The search is one function: `solve_exact` keeps its state in local lists
and ints and walks a plan built once, which holds per depth the cell, its
demand and its admissible hubs with their bandwidths as grid units. It
assigns cells one at a time, highest demanded rate first; each cell goes to
an admissible hub with room for it (a frame pushed on an explicit stack)
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
arithmetic. Each hub's bandwidth is judged as in greedy step 2, on
`bandwidth_probes` of the admissible links (`ProblemInstance.admissible`):
the search keeps one room per hub, -1 once its links run out, and a link
fits iff its unit is at most that room, one comparison.
"""

import math
import time
from itertools import accumulate

import numpy as np

from .association import (AssociationMatrix, ProblemInstance, bandwidth_probes,
                          empty_association, solve_report)
# not used here: perfbench/spans.py traces feasibility checks under this
# module's name
from .association import check_feasible
from .report import SolveReport


class SizeGuardError(RuntimeError):
    """Brute-force enumeration refused: the candidate space is too large.

    Raised by the brute-force oracle the tests check the search against;
    no solver in the package raises it.
    """


class NodeBudgetExceeded(RuntimeError):
    """Search stopped on reaching its node budget; carries the incumbent."""

    def __init__(self, node_count: int, incumbent: AssociationMatrix,
                 incumbent_value: float):
        super().__init__(f"node budget exhausted after {node_count} nodes")
        self.node_count = node_count
        self.incumbent = incumbent
        self.incumbent_value = incumbent_value


DEFAULT_NODE_BUDGET = 100_000_000


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
    # whole-bps totals fit a cap iff they fit its floor, and never pass the total demand
    top = math.floor(min(cap, suffix_sum[0]))
    # only the admissible links are gridded and planned
    flat, link_rows, link_cols = inst.admissible
    units, rooms = bandwidth_probes(inst.link_table.bandwidth_hz.take(flat), link_cols,
                                    inst.hub_bandwidth_caps)
    free = inst.hub_link_caps.tolist()  # links each hub may still take
    # grid units each hub has left, or -1 once its links run out
    room = [r if f else -1 for r, f in zip(rooms, free)]
    # each cell's admissible (hub, unit) pairs, hubs ascending
    hubs_of = [[] for _ in range(n)]
    for i, j, u in zip(link_rows.tolist(), link_cols.tolist(), units):
        hubs_of[i].append((j, u))
    # per depth: the cell, its demand and its admissible pairs
    plan = [(i, rates[i], hubs_of[i]) for i in order]

    assign = [-1] * n  # hub per cell, -1 for unassigned
    nodes = 0
    best = assign[:]
    best_value = 0

    def incumbent() -> tuple[AssociationMatrix, np.ndarray, np.ndarray]:
        """The best association so far, and its links' rows and columns."""
        hubs = np.array(best, dtype=np.intp)
        rows = np.flatnonzero(hubs >= 0)
        cols = hubs[rows]
        a = empty_association(n, m)
        a[rows, cols] = 1
        return a, rows, cols

    # one frame per assigned cell: (the iterator over its hub list, which
    # holds the scan's position, its depth, the running total before it, its
    # hub, that hub's room before it)
    stack = []
    push, pop = stack.append, stack.pop
    depth = running = 0
    while True:
        # one pass per depth; "leave the cell unassigned" is the next pass
        if nodes >= node_budget:
            raise NodeBudgetExceeded(nodes, incumbent()[0], best_value)
        headroom = top - running
        gain = suffix_sum[depth]
        if headroom < gain:  # the headroom, down to a multiple of the gcd
            g = suffix_gcd[depth]
            gain = headroom // g * g
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
            scan, depth, running, j, room[j] = pop()
            free[j] += 1
            cell, rate, _ = plan[depth]
            assign[cell] = -1
        for j, u in scan:
            if u <= room[j]:
                push((scan, depth, running, j, room[j]))
                free[j] -= 1
                room[j] = room[j] - u if free[j] else -1
                assign[cell] = j
                running += rate
                break
            nodes += 1
        depth += 1
    a, rows, cols = incumbent()
    if nodes >= node_budget:
        raise NodeBudgetExceeded(nodes, a, best_value)
    return a, solve_report(inst, rows, cols, "exact", time.perf_counter() - t0, nodes, nodes)
