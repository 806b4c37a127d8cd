"""Cell-to-hub association: problem instance, feasibility checks, and the
three-step greedy solver.

The greedy works in three phases. Step 1 lets every cell request its best-SINR
hub, subject to the admission threshold. Step 2 lets each hub pack requests
independently, highest demanded rate first, under its bandwidth and link caps.
Step 3 trims associations from the lightest-loaded hubs until the global
backhaul rate cap holds.

Everything after step 1 works on the set links of a matrix, not on the
dense n x m matrix: one nonzero pass over the raveled `a != 0` gives their
flat row-major indices, and a divmod by the hub count their rows and
columns, in the order `np.nonzero` gives. Every gather from a table is a 1-D
`take` at those flat indices (at a row's index for per-cell data), every
total, count and verdict is computed from the links, and each step builds
or edits its output matrix once, through flat indices.

Demands are whole bps with a total below 2**53, so the solvers keep rate
totals as exact Python ints. Every partial sum of such demands is also exact
in a double, so the solvers' rate verdicts equal those of the feasibility
checker, whose rate total is math.fsum's correctly rounded one. Step 3 sums
rates as doubles for that reason: a hub carries each cell at most once, so
its rate total and every prefix sum of its sorted rates are partial sums of
distinct demands, exact whatever the summation order; the running total
across hubs stays a Python int. Bandwidths are arbitrary doubles, so the
solvers keep each hub's bandwidth total as an exact int too: `exact_grid`
puts the bandwidths on one power-of-two grid, `grid_limit` finds once per
distinct cap the largest int total whose quotient by the grid scale is at
most the cap, and a total fits iff it is at most that limit. Int/int true
division is correctly rounded, as fsum is, so the verdict equals the
checker's fsum verdict and no verdict depends on accumulation order.
"""

import functools
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

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

    @functools.cached_property
    def int_rates(self) -> tuple[int, ...]:
        """Demanded rate per cell as an exact int, bps."""
        return tuple(int(r) for r in self.rates.tolist())

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
    """Tally of the elementary compare/select operations the paper's greedy
    performs, for complexity plots.

    Each step adds the count its textbook loop would do (an argmax over the
    hubs per cell, a scan of the remaining queue per probe, a scan of the
    hubs and of the chosen hub's cells per trim), not the operations of this
    implementation, which does the same work with fewer Python steps.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


def empty_association(n_cells: int, n_hubs: int) -> AssociationMatrix:
    return np.zeros((n_cells, n_hubs), dtype=np.int8)


def exact_grid(values: np.ndarray) -> tuple[list, int]:
    """Put doubles on one power-of-two grid, for exact running totals.

    Returns (units, scale) with values[k] == units[k] / scale exactly for
    every finite value, subnormals included: units are Python ints, so sums
    of them never round. Non-finite values come back as floats; see `admit`.
    """
    finite = np.isfinite(values)
    mant, exp = np.frexp(np.where(finite, values, 0.0))
    # mant * 2**53 is a whole number for every double; value = that * 2**lift
    lift = exp.astype(np.int64) - 53
    low = int(lift.min(initial=0))
    shift = lift - low
    # whole < 2**53, so shifts up to 10 stay in int64; Python ints take the rest
    units = ((mant * 2.0**53).astype(np.int64) << np.minimum(shift, 10)).tolist()
    for k in np.flatnonzero(shift > 10).tolist():
        units[k] <<= int(shift[k]) - 10
    for k in np.flatnonzero(~finite).tolist():
        units[k] = float(values[k])
    return units, 1 << -low


def grid_limit(cap: float, scale: int) -> int | float:
    """The largest int total t with t / scale <= cap, for `admit`.

    On an `exact_grid` of this scale, a total fits the cap iff it is at most
    the limit. A non-finite cap comes back as is: every int compares with it
    as its quotient does.
    """
    if not math.isfinite(cap):
        return cap
    # a quotient rounds to at most cap iff it lies below the midpoint of cap
    # and the next double up, or on it when cap is the even one of the two
    up = math.nextafter(cap, math.inf)
    num, den = cap.as_integer_ratio()
    up_num, up_den = (1 << 1024, 1) if up == math.inf else up.as_integer_ratio()
    t = (num * up_den + up_num * den) * scale // (2 * den * up_den)
    try:
        on_cap_side = t / scale <= cap
    except OverflowError:  # a tie at the largest double rounds past it
        on_cap_side = False
    return t if on_cap_side else t - 1


def admit(used: int, units, limit: int | float) -> int | None:
    """Exact bandwidth packing: the new total if the probed value fits, else
    None.

    `used` is the int total of the accepted values and `units` the probed
    value's, both on one `exact_grid`, and `limit` is the cap's `grid_limit`
    on that grid. The value fits when math.fsum(accepted + [value]) <= cap,
    and the verdict is exactly fsum's, except that a total past the double
    range does not fit where fsum raises OverflowError. Special cases, kept
    so that the total stays an exact int:

    - under an infinite cap every value but NaN fits;
    - a non-finite value never fits a finite cap (fsum gives inf or NaN; no
      link table holds a -inf bandwidth), and where it fits an infinite cap
      it adds nothing to the total, which that cap never reads.
    """
    if type(units) is float:
        return used if limit == math.inf and units == units else None
    total = used + units
    return total if total <= limit else None


def _check_dims(inst: ProblemInstance, a: AssociationMatrix):
    if a.shape != (inst.n_cells, inst.n_hubs):
        raise ValueError(f"association shape {a.shape} does not match instance "
                         f"({inst.n_cells}, {inst.n_hubs})")


def _links(a: AssociationMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and flat row-major indices of the set entries, in
    row-major order, as np.nonzero and np.flatnonzero give them at several
    times the cost. The columns come in the smallest unsigned dtype that
    holds them, so that sorts keyed on them run as radix sorts."""
    # flatnonzero's own work, without its Python wrapper
    flat = (a != 0).ravel().nonzero()[0]
    rows, cols = np.divmod(flat, a.shape[1])
    return rows, cols.astype(np.min_scalar_type(a.shape[1])), flat


def _checked_links(inst: ProblemInstance, a: AssociationMatrix):
    _check_dims(inst, a)
    if not ((a == 0) | (a == 1)).all():
        raise ValueError("association matrix entries must be 0 or 1")
    return _links(a)


def _rate_total(inst: ProblemInstance, rows: np.ndarray) -> int:
    """The exact sum of the rates of the cells in `rows`, repeats included;
    as a float it equals math.fsum's correctly rounded sum."""
    total = inst.rates.take(rows).sum()
    # positive whole rates: a float total below 2**53 is exact
    if total < 2**53:
        return int(total)
    return sum(map(inst.int_rates.__getitem__, rows.tolist()))


def objective(inst: ProblemInstance, a: AssociationMatrix) -> float:
    """Sum of demanded rates over all set entries, in bps."""
    _check_dims(inst, a)
    return float(_rate_total(inst, _links(a)[0]))


def check_feasible(inst: ProblemInstance, a: AssociationMatrix) -> FeasibilityReport:
    """Evaluate the five association constraints; violations are data, not errors.

    The SINR constraint only binds on set entries. Matrix entries must be 0/1;
    anything else is a caller bug and raises.
    """
    return _verdict(inst, *_checked_links(inst, a))


def _verdict(inst: ProblemInstance, rows: np.ndarray, cols: np.ndarray,
             flat: np.ndarray) -> FeasibilityReport:
    """`check_feasible` on the links of a 0/1 matrix, as `_links` gives
    them."""
    violated: list[tuple[str, str]] = []

    total_rate = float(_rate_total(inst, rows))
    if total_rate > inst.backhaul_cap_bps:
        violated.append((CONSTRAINT_BACKHAUL,
                         f"total rate {total_rate:.6g} bps > cap {inst.backhaul_cap_bps:.6g} bps"))

    # the link bandwidths grouped by hub, in hub index order; the order
    # within a hub does not matter to fsum
    link_counts = np.bincount(cols, minlength=inst.n_hubs)
    ends = np.cumsum(link_counts).tolist()
    bw = inst.link_table.bandwidth_hz.take(flat[np.argsort(cols, kind="stable")]).tolist()
    start = 0
    for j, (end, cap) in enumerate(zip(ends, inst.hub_bandwidth_caps.tolist())):
        used = math.fsum(bw[start:end])
        if used > cap:
            violated.append((CONSTRAINT_BANDWIDTH, f"hub {j}: {used:.6g} Hz > cap {cap:.6g} Hz"))
        start = end

    bad = np.flatnonzero(inst.link_table.sinr_db.take(flat) < inst.sinr_min_db)
    if bad.size:
        first = (int(rows[bad[0]]), int(cols[bad[0]]))
        violated.append((CONSTRAINT_SINR, f"{bad.size} links below "
                         f"{inst.sinr_min_db} dB, first {first}"))

    for j in np.flatnonzero(link_counts > inst.hub_link_caps).tolist():
        violated.append((CONSTRAINT_LINKS,
                         f"hub {j}: {int(link_counts[j])} links > cap {int(inst.hub_link_caps[j])}"))

    # rows ascend, so a cell with two links shows as two equal neighbours
    if (rows[1:] == rows[:-1]).any():
        multi = np.flatnonzero(np.bincount(rows, minlength=inst.n_cells) > 1)
        violated.append((CONSTRAINT_SINGLE, f"cells {multi.tolist()} associated more than once"))

    return FeasibilityReport(ok=not violated, violated=violated)


def greedy_step1(inst: ProblemInstance, ops: OpCounter | None = None) -> AssociationMatrix:
    """Candidate requests: each cell marks its single best-SINR hub, provided
    that SINR clears the admission threshold; ties go to the lowest hub index.
    """
    ops = ops or OpCounter()
    n, m = inst.n_cells, inst.n_hubs
    a = empty_association(n, m)
    if n:
        sinr = inst.link_table.sinr_db
        best = np.argmax(sinr, axis=1)  # first occurrence wins ties
        best += np.arange(0, n * m, m)  # (i, best[i]) as a flat index
        a.reshape(-1)[best[sinr.take(best) >= inst.sinr_min_db]] = 1
    ops.add(n * (max(m - 1, 0) + 1))
    return a


def greedy_step2(inst: ProblemInstance, candidates: AssociationMatrix,
                 ops: OpCounter | None = None) -> AssociationMatrix:
    """Per-hub packing of the candidate requests.

    Each hub, independently: repeatedly take the remaining candidate with the
    highest demanded rate (ties: lower bandwidth demand, then lower cell
    index). Accept it if the hub still has a free link and the bandwidth cap
    holds; a candidate rejected on bandwidth is dropped and the scan
    continues. Stops when links run out or no candidates remain.

    The candidates' links are queued by hub once, with their bandwidths as
    ints on one `exact_grid`. Until a probe is refused, a queue's running
    totals are its prefix sums, so a hub accepts its longest fitting prefix,
    at most its link cap long, with one bisection over them; `admit` then
    probes the rest of the queue one by one. A hub whose queue holds a
    negative or non-finite bandwidth, or whose cap is NaN, probes it all one
    by one.
    """
    _check_dims(inst, candidates)
    ops = ops or OpCounter()
    m = inst.n_hubs
    rows, cols, flat = _links(candidates)
    bw = inst.link_table.bandwidth_hz.take(flat)
    # grouped by hub, then by (-rate, bandwidth); lexsort is stable, so the
    # ascending rows of the row-major links break the remaining ties
    order = np.lexsort((bw, -inst.rates.take(rows), cols))
    # one grid for every queue: a common scale keeps each hub's total exact
    units, scale = exact_grid(bw[order])
    counts = np.bincount(cols, minlength=m)
    ends = np.cumsum(counts).tolist()
    odd_hubs = set(cols[~((bw >= 0) & (bw < math.inf))].tolist())
    link_caps = inst.hub_link_caps.tolist()
    caps = inst.hub_bandwidth_caps.tolist()
    # one grid_limit per distinct cap (a fleet's hubs usually share one); a
    # NaN key is found by identity, as each list entry is its own float
    limits = {c: grid_limit(c, scale) for c in dict.fromkeys(caps)}
    prefix_ends: list[int] = []  # per hub, the end of its accepted prefix
    probed: list[int] = []  # queue positions accepted one by one
    start = 0
    for j, end in enumerate(ends):
        limit, link_cap = limits[caps[j]], link_caps[j]
        used = links = 0
        if j not in odd_hubs and limit == limit:
            totals = list(accumulate(units[start:min(end, start + max(link_cap, 0))]))
            links = bisect_right(totals, limit)
            used = totals[links - 1] if links else 0
        prefix_ends.append(start + links)
        probes = links
        for k in range(start + links, end):
            if links >= link_cap:
                break
            probes += 1
            total = admit(used, units[k], limit)
            if total is not None:
                probed.append(k)
                used, links = total, links + 1
        # probe k scans the end - start - k remaining candidates, plus 2
        ops.add(probes * (end - start + 2) - probes * (probes - 1) // 2)
        start = end
    # queue position k lies on hub cols[order[k]]; it is taken when it falls
    # in that hub's accepted prefix or was accepted by a probe
    taken = np.arange(len(order)) < np.repeat(prefix_ends, counts)
    taken[probed] = True
    a = empty_association(inst.n_cells, m)
    a.reshape(-1)[flat[order[taken]]] = 1
    return a


def greedy_step3(inst: ProblemInstance, assoc: AssociationMatrix,
                 ops: OpCounter | None = None) -> tuple[AssociationMatrix, int]:
    """Trim associations until the total rate fits the backhaul cap.

    While the total rate exceeds the cap: take the hub with the fewest live
    links (ties: lowest index). Prefer dropping its smallest-rate cell whose
    removal alone lands the total within the cap; if no single cell on that
    hub can, drop the hub's smallest-rate cell and keep going. Returns the
    trimmed matrix and the number of hubs still carrying at least one link.

    The hub that loses a cell stays the lightest: it had the fewest links,
    and now has one fewer, while no other hub changed. So it keeps losing
    cells until the cap holds or it is empty, and the hubs are visited once
    each in ascending (links, index) order. A rate r lands the total when
    r >= total - floor(cap), and a hub's smallest cells go until its largest
    lands, so a hub empties exactly when its whole rate is below
    total - floor(cap), the total it finds on arrival: the emptied hubs are
    the visit order's longest prefix whose running rate sum stays below
    total - floor(cap) at the start, one bisection. The next hub is the last
    one visited. With its rates r sorted by (rate, index), its first t cells
    go, t the least count whose prefix sum reaches total - floor(cap) - r[-1],
    then the smallest remaining cell that lands the total: two searchsorted
    calls.
    """
    _check_dims(inst, assoc)
    ops = ops or OpCounter()
    m = inst.n_hubs
    cap = inst.backhaul_cap_bps
    rows, cols, flat = _links(assoc)
    total = _rate_total(inst, rows)
    links = np.bincount(cols, minlength=m)
    if not total > cap:
        return assoc.copy(), int(np.count_nonzero(links))
    # rate r lands the int total iff total - r <= cap iff r >= total - floor(cap)
    floor_cap = math.floor(cap) if math.isfinite(cap) else cap
    rates = inst.rates.take(rows)
    visit = np.argsort(links, kind="stable")
    sizes = links[visit].tolist()
    # a hub carries a cell once, so its float rate total is exact
    hub_totals = np.bincount(cols, weights=rates, minlength=m)[visit].tolist()
    running = list(accumulate(map(int, hub_totals)))
    emptied = bisect_left(running, total - floor_cap)
    # each of a hub's size trims scans the m hubs and its cells
    ops.add(sum(size * (m + size + 2) for size in sizes[:emptied]))
    emptied_hub = np.zeros(m, dtype=bool)
    emptied_hub[visit[:emptied]] = True
    dropped = emptied_hub[cols]
    links[emptied_hub] = 0
    if emptied < m:
        j, size = visit[emptied], sizes[emptied]
        total -= running[emptied - 1] if emptied else 0
        on_hub = np.flatnonzero(cols == j)
        on_hub = on_hub[np.argsort(rates.take(on_hub), kind="stable")]
        hub_rates = rates.take(on_hub)
        # whole rates of distinct cells, so every prefix sum is exact
        prefix = np.cumsum(hub_rates)
        need = total - floor_cap - int(hub_rates[-1])
        trims = int(np.searchsorted(prefix, need)) + 1 if need > 0 else 0
        total -= int(prefix[trims - 1]) if trims else 0
        land = trims + int(np.searchsorted(hub_rates[trims:], total - floor_cap))
        dropped[on_hub[:trims]] = True
        dropped[on_hub[land]] = True
        trims += 1
        links[j] -= trims
        # trim q scans the m hubs, then twice the size - q cells left, plus 1
        ops.add(trims * (m + 2 * size + 2 - trims))
    a = assoc.copy()
    a.reshape(-1)[flat[dropped]] = 0
    return a, int(np.count_nonzero(links))


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
    work counters is derived from the matrix's links."""
    rows, cols, flat = _checked_links(inst, a)
    per_hub_links = np.bincount(cols, minlength=inst.n_hubs)
    return SolveReport(
        method=method,
        sum_rate_bps=float(_rate_total(inst, rows)),
        n_associated=int(np.count_nonzero(np.bincount(rows))),
        per_hub_links=tuple(per_hub_links.tolist()),
        hubs_in_use=int(np.count_nonzero(per_hub_links)),
        feasible=_verdict(inst, rows, cols, flat).ok,
        wall_time_s=wall_time_s,
        op_count=op_count,
        node_count=node_count,
    )
