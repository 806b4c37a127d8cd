"""Cell-to-hub association: problem instance, feasibility checks, and the
three-step greedy solver.

The greedy works in three phases. Step 1 lets every cell request its best-SINR
hub, subject to the admission threshold. Step 2 lets each hub pack requests
independently, highest demanded rate first, under its bandwidth and link caps.
Step 3 trims associations from the lightest-loaded hubs until the global
backhaul rate cap holds.

Each step hands the next what it already holds, so no step scans a dense
n x m matrix back into links. Step 1 returns the per-cell request vector
(hub index + 1, or 0 for no request). Step 2 takes its links from that
vector, and steps 2 and 3 each return their matrix with its links as
(rows, cols) in the row-major order `np.nonzero` gives. Step 3 starts from
step 2's links, and the report from step 3's. Only `check_feasible` and
`objective`, which take a bare matrix, find its links themselves, in one
nonzero pass over the raveled `a != 0`. Every gather from a table is a 1-D
`take` at flat row-major indices (at a row's index for per-cell data),
every total, count and verdict is computed from the links, and each step
builds or edits its output matrix once.

Demands are whole bps with a total below 2**53, so the solvers keep rate
totals as exact Python ints. Every partial sum of such demands is also exact
in a double, so the solvers' rate verdicts equal those of the feasibility
checker, whose rate total is math.fsum's correctly rounded one. Step 3 sums
rates as doubles for that reason: a hub carries each cell at most once, so
its rate total and every prefix sum of its sorted rates are partial sums of
distinct demands, exact whatever the summation order; the running total
across hubs stays a Python int. Bandwidths are arbitrary doubles, so the
solvers judge bandwidth in exact ints too, by one probe rule,
`bandwidth_probes`: the bandwidths go on one power-of-two grid, each hub's
room starts at the largest int total whose quotient by the grid scale is
at most its cap, and a link fits iff its unit is at most that room. Int/int
true division is correctly rounded, as fsum is, so the verdict equals the
checker's fsum verdict and no verdict depends on accumulation order.

Step 2 and the checker share one float certificate, `_certainly_fits`, and
take the exact route above only for the hubs it cannot clear:

- A hub is clear when its float bandwidth total t, plus a slack of
  2(K + 1)u times t (u = 2**-53, K >= k the number of terms summed over
  all hubs, k the hub's), is below its cap. A float sum of k terms, in any
  order, is within gamma_(k-1) = (k - 1)u / (1 - (k - 1)u) times the sum of
  their magnitudes of the exact sum (Higham 2002, Accuracy and Stability
  of Numerical Algorithms, 4.2). Bandwidths are nonnegative, so t is also
  the float sum of their magnitudes; the factor 2 and the K + 1 cover t's
  own error there and the rounding of the slack's product. The test's
  addition needs no margin: rounding is monotone and the cap is a double,
  so t + slack < cap as computed holds exactly too; the exact sum is then
  below the cap, and fsum's rounding of it, and of any partial sum, at
  most the cap. A NaN or inf total is never clear.
- Step 2 clears a hub on its whole queue: every probe of a clear hub fits,
  so it takes its first link-cap candidates with no grid, and all of them,
  unsorted, when they are no more than its link cap. A hub at, near or
  over its cap, or with an inf or NaN bandwidth, probes its queue one by
  one with `unit <= room`, on probes found only when such a hub exists.
- The checker clears a hub on its links, and gives each other hub
  math.fsum of its links, so every verdict and printed total is fsum's;
  where fsum overflows, the total is inf, as the solvers' probes rule.
"""

import functools
import math
import time
from bisect import bisect_left
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
        # caps and bandwidths are nonnegative or inf, inf meaning no cap or a
        # link no finite cap admits; only a bandwidth may be NaN, fitting no cap
        for name in ("backhaul_cap_bps", "hub_bandwidth_caps"):
            if not np.all(getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative or inf")
        caps = self.hub_link_caps
        if not (np.issubdtype(caps.dtype, np.integer) and (caps >= 0).all()):
            raise ValueError("hub_link_caps must be nonnegative integers")
        if math.isnan(self.sinr_min_db):
            raise ValueError("sinr_min_db must not be NaN")
        if (self.link_table.bandwidth_hz < 0).any():
            raise ValueError("bandwidth demands must be nonnegative")
        rates = self.rates
        if not (np.isfinite(rates) & (rates > 0) & (rates == np.floor(rates))).all():
            raise ValueError("rates must be positive whole numbers of bps")
        if sum(self.int_rates) >= 2**53:
            raise ValueError("total demand must stay below 2**53 bps")

    @functools.cached_property
    def int_rates(self) -> tuple[int, ...]:
        """Demanded rate per cell as an exact int, bps."""
        return tuple(int(r) for r in self.rates.tolist())

    @functools.cached_property
    def admissible(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat row-major indices, rows and columns of the links whose SINR
        clears the admission threshold (a NaN SINR does not), in row-major
        order."""
        flat = (self.link_table.sinr_db >= self.sinr_min_db).ravel().nonzero()[0]
        view = (flat, *np.divmod(flat, self.n_hubs))
        for array in view:  # shared by every caller: read-only
            array.flags.writeable = False
        return view

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
    of them never round; non-finite values come back as floats.
    """
    finite = np.isfinite(values)
    mant, exp = np.frexp(np.where(finite, values, 0.0))
    # mant * 2**53 is a whole number for every double; value = that * 2**lift.
    # A zero, or a non-finite value zeroed above, is 0 on any grid: it does
    # not set the scale
    lift = exp - 53
    low = int(lift.min(where=mant != 0, initial=0))
    scale = 1 << -low
    # a whole of 53 bits shifted by up to 10 stays below 2**63, so the units
    # of values below 2**63 / scale, a power of two, are exact in int64
    units = ((mant * 2.0**53).astype(np.int64) << np.minimum(lift - low, 10)).tolist()
    for k in np.flatnonzero(~(abs(values) < math.ldexp(1.0, 64 - scale.bit_length()))).tolist():
        value = float(values[k])
        if math.isfinite(value):
            # the grid's scale is a multiple of every value's denominator
            num, den = value.as_integer_ratio()
            value = num * (scale // den)
        units[k] = value
    return units, scale


def grid_limit(cap: float, scale: int) -> int | float:
    """The largest int total t with t / scale <= cap: a hub's first room.

    On an `exact_grid` of this scale, a total fits the cap iff it is at most
    the limit. An infinite cap comes back as is: every int is below it, as
    its quotient is.
    """
    if cap == math.inf:
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


def bandwidth_probes(bw: np.ndarray, cols: np.ndarray,
                     hub_caps: np.ndarray) -> tuple[list, list]:
    """Exact bandwidth packing: each link's probe unit and each hub's room.

    `bw` holds the links' bandwidths, `cols` their hubs and `hub_caps` the
    caps. A link fits iff its unit is at most its hub's room, which then
    loses the unit: the links so accepted on a hub are those with
    math.fsum(accepted) <= cap, a total past the double range (where fsum
    raises OverflowError) fitting an infinite cap and no finite one.
    Units are the bandwidths on one `exact_grid`, and rooms start at their
    cap's `grid_limit`, found once per distinct cap. The special cases are
    settled here: a unit that never fits is NaN, which no comparison
    passes (a NaN bandwidth, or an inf one under a finite cap), and under
    an infinite cap every other unit is 0, so that room stays inf.
    """
    units, scale = exact_grid(bw)
    caps = hub_caps.tolist()
    limit_of = {c: grid_limit(c, scale) for c in dict.fromkeys(caps)}
    uncapped = np.isinf(hub_caps).take(cols)
    for k in np.flatnonzero(uncapped | ~np.isfinite(bw)).tolist():
        units[k] = 0 if uncapped[k] and bw[k] == bw[k] else math.nan
    return units, [limit_of[c] for c in caps]


def _check_dims(inst: ProblemInstance, a: AssociationMatrix):
    if a.shape != (inst.n_cells, inst.n_hubs):
        raise ValueError(f"association shape {a.shape} does not match instance "
                         f"({inst.n_cells}, {inst.n_hubs})")


def _links(a: AssociationMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and flat row-major indices of the set entries, in
    row-major order, as np.nonzero and np.flatnonzero give them at several
    times the cost."""
    # flatnonzero's own work, without its Python wrapper
    flat = (a != 0).ravel().nonzero()[0]
    rows, cols = np.divmod(flat, a.shape[1])
    return rows, cols, flat


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


def _certainly_fits(total: np.ndarray, caps: np.ndarray, n_terms: int) -> np.ndarray:
    """Per hub, whether the exact sum of its bandwidths certainly fits its
    cap, given `total`, their float sum in any order, with at least as many
    terms summed over all hubs as any one hub's; see the module docstring.
    A NaN or inf total never clears."""
    # 2(K + 1)u per magnitude sum, here the total, K the term count
    slack = total * ((n_terms + 1) * 2.0**-52)
    with np.errstate(over="ignore"):  # past the double range
        return total + slack < caps


def check_feasible(inst: ProblemInstance, a: AssociationMatrix) -> FeasibilityReport:
    """Evaluate the five association constraints; violations are data, not errors.

    The SINR constraint only binds on set entries, and a NaN SINR fails it.
    Matrix entries must be 0/1; anything else is a caller bug and raises.
    """
    _check_dims(inst, a)
    rows, cols, flat = _links(a)
    # every entry but the set links is 0 (or -0.0); NaN counts as set
    if not (a.reshape(-1).take(flat) == 1).all():
        raise ValueError("association matrix entries must be 0 or 1")
    violated: list[tuple[str, str]] = []

    total_rate = float(_rate_total(inst, rows))
    if total_rate > inst.backhaul_cap_bps:
        violated.append((CONSTRAINT_BACKHAUL,
                         f"total rate {total_rate:.6g} bps > cap {inst.backhaul_cap_bps:.6g} bps"))

    # a hub is clear when its float bandwidth total plus a bound on that
    # total's rounding error stays below the cap (see the module
    # docstring); only the other hubs are summed by fsum
    link_counts = np.bincount(cols, minlength=inst.n_hubs)
    bw = inst.link_table.bandwidth_hz.take(flat)
    caps = inst.hub_bandwidth_caps
    total = np.bincount(cols, weights=bw, minlength=inst.n_hubs)
    for j in np.flatnonzero(~_certainly_fits(total, caps, len(flat))).tolist():
        try:
            used = math.fsum(bw[cols == j].tolist())
        except OverflowError:  # past the double range: fits only an infinite cap
            used = math.inf
        cap = float(caps[j])
        if not used <= cap:  # a NaN total never fits, as no NaN unit does
            violated.append((CONSTRAINT_BANDWIDTH, f"hub {j}: {used:.6g} Hz > cap {cap:.6g} Hz"))

    bad = np.flatnonzero(~(inst.link_table.sinr_db.take(flat) >= inst.sinr_min_db))
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


def greedy_step1(inst: ProblemInstance, ops: OpCounter | None = None) -> np.ndarray:
    """Candidate requests: each cell requests its single best-SINR hub,
    provided that SINR clears the admission threshold; ties go to the lowest
    hub index.

    Returns the request vector: requests[i] = j + 1 when cell i requests hub
    j, and 0 when no hub admits it, so `np.count_nonzero` is the admitted
    count. Its dtype is the smallest unsigned one that holds the hub count.
    """
    ops = ops or OpCounter()
    n, m = inst.n_cells, inst.n_hubs
    requests = np.zeros(n, dtype=np.min_scalar_type(m))
    if n and m:
        sinr = inst.link_table.sinr_db
        best = np.argmax(sinr, axis=1)  # first occurrence wins ties
        admitted = sinr.take(best + np.arange(0, n * m, m)) >= inst.sinr_min_db
        requests[admitted] = best[admitted] + 1
    ops.add(n * m)
    return requests


def greedy_step2(inst: ProblemInstance, requests: np.ndarray,
                 ops: OpCounter | None = None) -> tuple[AssociationMatrix, tuple]:
    """Per-hub packing of step 1's requests.

    Each hub, independently: repeatedly take the remaining candidate with the
    highest demanded rate (ties: lower bandwidth demand, then lower cell
    index). Accept it if the hub still has a free link and the bandwidth cap
    holds; a candidate rejected on bandwidth is dropped and the scan
    continues. Stops when links run out or no candidates remain. Returns the
    packed matrix and its links as (rows, cols), in row-major order.

    The requested links are read straight off the request vector. A hub
    whose whole queue certainly fits its bandwidth cap (the float
    certificate in the module docstring, on the float total of its
    requests) accepts every probe, so it takes its first
    min(count, link cap) candidates at once: all of them, with no sort,
    when the count is at most the link cap. The other hubs' requests are
    queued by hub once. Every hub not certified probes its whole queue one
    by one with `unit <= room`, on `bandwidth_probes` of the queued links,
    found only when such a hub exists.
    """
    ops = ops or OpCounter()
    m = inst.n_hubs
    # one link per requesting cell, in row-major order; the columns keep the
    # vector's narrow dtype, so that sorts keyed on them run as radix sorts
    rows = requests.nonzero()[0]
    link_cols = requests.take(rows) - 1
    flat = rows * m + link_cols  # intp rows: the sum is intp, never narrow
    bw = inst.link_table.bandwidth_hz.take(flat)
    counts = np.bincount(link_cols, minlength=m)
    # a hub whose whole queue certainly fits takes its first link-cap links,
    # so one with no more candidates than that takes them all, in any order
    fits = _certainly_fits(np.bincount(link_cols, weights=bw, minlength=m),
                           inst.hub_bandwidth_caps, len(rows))
    room = inst.hub_link_caps * fits
    taken = (counts <= room).take(link_cols)
    # the other hubs' queues, grouped by hub, then by (-rate, bandwidth);
    # lexsort is stable, so the ascending rows of the row-major links break
    # the remaining ties
    queued = (~taken).nonzero()[0]
    cols = link_cols.take(queued)
    order = np.lexsort((bw.take(queued), -inst.rates.take(rows.take(queued)), cols))
    queued, cols = queued.take(order), cols.take(order)
    queue_counts = np.bincount(cols, minlength=m)
    starts = queue_counts.cumsum() - queue_counts
    taken[queued[np.arange(len(cols)) < (starts + room).take(cols)]] = True
    starts, counts, link_caps = starts.tolist(), counts.tolist(), inst.hub_link_caps.tolist()
    probes = [min(c, r) for c, r in zip(counts, room.tolist())]  # one per taken link
    # every other hub with candidates and links probes its queue one by one
    tail = [j for j, f in enumerate(fits.tolist()) if not f and min(counts[j], link_caps[j])]
    if tail:
        units, rooms = bandwidth_probes(bw.take(queued), cols, inst.hub_bandwidth_caps)
        probed: list[int] = []  # queue positions accepted one by one
        for j in tail:
            room, free = rooms[j], link_caps[j]
            for k in range(starts[j], starts[j] + counts[j]):
                if not free:
                    break
                probes[j] += 1
                if units[k] <= room:
                    probed.append(k)
                    room, free = room - units[k], free - 1
        taken[queued.take(probed)] = True
    # probe k scans the count - k remaining candidates, plus 2
    ops.add(sum(p * (c + 2) - p * (p - 1) // 2 for p, c in zip(probes, counts)))
    kept = taken.nonzero()[0]  # the accepted links, in row-major order
    a = empty_association(inst.n_cells, m)
    a.reshape(-1)[flat.take(kept)] = 1
    return a, (rows.take(kept), link_cols.take(kept))


def greedy_step3(inst: ProblemInstance, packed: AssociationMatrix, links: tuple,
                 ops: OpCounter | None = None) -> tuple[AssociationMatrix, tuple]:
    """Trim step 2's associations until the total rate fits the backhaul cap.

    While the total rate exceeds the cap: take the hub with the fewest live
    links (ties: lowest index). Prefer dropping its smallest-rate cell whose
    removal alone lands the total within the cap; if no single cell on that
    hub can, drop the hub's smallest-rate cell and keep going. `links` are
    the packed matrix's links as (rows, cols) in row-major order, as step 2
    returns them; the trimmed matrix comes back with its links in that form.

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
    _check_dims(inst, packed)
    ops = ops or OpCounter()
    m = inst.n_hubs
    cap = inst.backhaul_cap_bps
    rows, cols = links
    total = _rate_total(inst, rows)
    if not total > cap:
        return packed.copy(), (rows, cols)
    # rate r lands the int total iff total - r <= cap iff r >= total - floor(cap)
    floor_cap = math.floor(cap)
    rates = inst.rates.take(rows)
    counts = np.bincount(cols, minlength=m)
    visit = np.argsort(counts, kind="stable")
    sizes = counts[visit].tolist()
    # a hub carries a cell once, so its float rate total is exact
    hub_totals = np.bincount(cols, weights=rates, minlength=m)[visit].tolist()
    running = list(accumulate(map(int, hub_totals)))
    emptied = bisect_left(running, total - floor_cap)
    # each of a hub's size trims scans the m hubs and its cells
    ops.add(sum(size * (m + size + 2) for size in sizes[:emptied]))
    emptied_hub = np.zeros(m, dtype=bool)
    emptied_hub[visit[:emptied]] = True
    dropped = emptied_hub[cols]
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
        # trim q scans the m hubs, then twice the size - q cells left, plus 1
        ops.add(trims * (m + 2 * size + 2 - trims))
    a = packed.copy()
    # index arrays, not boolean masks: these gathers then cost under half
    gone = dropped.nonzero()[0]
    a[rows.take(gone), cols.take(gone)] = 0
    kept = (~dropped).nonzero()[0]
    return a, (rows.take(kept), cols.take(kept))


def solve_greedy(inst: ProblemInstance) -> tuple[AssociationMatrix, SolveReport]:
    """Run the three greedy phases end to end.

    The result always satisfies the feasibility checker: step 1 enforces
    admission and single association, step 2 the per-hub caps, step 3 the
    backhaul cap, and later steps only ever remove associations. The report
    carries no verdict: judge the matrix with `check_feasible`.
    """
    ops = OpCounter()
    t0 = time.perf_counter()
    requests = greedy_step1(inst, ops)
    packed, links = greedy_step2(inst, requests, ops)
    a, (rows, cols) = greedy_step3(inst, packed, links, ops)
    wall = time.perf_counter() - t0
    return a, solve_report(inst, rows, cols, "greedy", wall, ops.count)


def solve_report(inst: ProblemInstance, rows: np.ndarray, cols: np.ndarray,
                 method: str, wall_time_s: float, op_count: int,
                 node_count: int | None = None) -> SolveReport:
    """Report on a solver's 0/1 association, given by the rows and columns
    of its links, with no feasibility verdict; every figure but the timing
    and the work counters is derived from those links."""
    per_hub_links = np.bincount(cols, minlength=inst.n_hubs)
    return SolveReport(
        method=method,
        sum_rate_bps=float(_rate_total(inst, rows)),
        n_associated=int(np.count_nonzero(np.bincount(rows))),
        per_hub_links=tuple(per_hub_links.tolist()),
        hubs_in_use=int(np.count_nonzero(per_hub_links)),
        wall_time_s=wall_time_s,
        op_count=op_count,
        node_count=node_count,
    )
