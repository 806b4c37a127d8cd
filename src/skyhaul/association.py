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

Both exact bandwidth verdicts run on arrays wherever a range argument
allows, and take the exact route above elsewhere:

- Step 2 keeps the grid's units in int64 and finds every hub's accepted
  prefix from one int64 cumsum over all queues, compared with the cap's
  `grid_limit` clipped to int64. A hub qualifies when its queue's exact
  total is certainly below 2**63 units (the range argument is in
  `greedy_step2`). The others (a unit wider than int64, a negative or
  non-finite bandwidth, a queue total that could reach 2**63) and every
  probe after a refusal go through `admit` on exact Python ints.
- The checker clears a hub without fsum when its float bandwidth total t,
  plus a slack of 2(K + 1)u times the float sum M of the magnitudes of its
  k bandwidths (u = 2**-53, K >= k the matrix's link count), is below its
  cap. A float sum of k terms, in any order, is within
  gamma_(k-1) = (k - 1)u / (1 - (k - 1)u) times the sum of their
  magnitudes of the exact sum (Higham 2002, Accuracy and Stability of
  Numerical Algorithms, 4.2); the
  factor 2 and the K + 1 cover M's own error and the rounding of the
  slack's product. The test's addition needs no margin: rounding is
  monotone and the cap is a double, so t + slack < cap as computed holds
  exactly too; the exact sum is then below the cap, and fsum's rounding of
  it at most the cap. A clear hub also needs M < 2**1023, which keeps
  every partial sum fsum forms inside the double range. The other hubs,
  at, near or over their cap, under a NaN cap or with a non-finite total,
  get math.fsum of their links, so every verdict and printed total is
  fsum's.
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
    units, scale = _int64_grid(values)
    return _exact_units(units, values, scale), scale


def _int64_grid(values: np.ndarray) -> tuple[np.ndarray, int]:
    """`exact_grid` in int64: (units, scale), with units[k] exact wherever
    abs(values[k]) * scale < 2**63."""
    finite = np.isfinite(values)
    mant, exp = np.frexp(np.where(finite, values, 0.0))
    # mant * 2**53 is a whole number for every double; value = that * 2**lift.
    # A zero, or a non-finite value zeroed above, is 0 on any grid: it does
    # not set the scale
    lift = exp - 53
    low = int(lift.min(where=mant != 0, initial=0))
    # a whole of 53 bits shifted by up to 10 stays below 2**63; a unit that
    # needs a wider shift is at least 2**63
    units = (mant * 2.0**53).astype(np.int64) << np.minimum(lift - low, 10)
    return units, 1 << -low


def _exact_units(units: np.ndarray, values: np.ndarray, scale: int) -> list:
    """`exact_grid`'s units from `_int64_grid`'s: Python ints, with each
    unit past int64 computed from its value, or the value itself if it is
    not finite."""
    exact = units.tolist()
    # abs(value) < 2**63 / scale, a power of two: the unit fits in int64
    for k in np.flatnonzero(~(abs(values) < math.ldexp(1.0, 64 - scale.bit_length()))).tolist():
        value = float(values[k])
        if math.isfinite(value):
            # the grid's scale is a multiple of every value's denominator
            num, den = value.as_integer_ratio()
            value = num * (scale // den)
        exact[k] = value
    return exact


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
    magnitude = np.bincount(cols, weights=abs(bw), minlength=inst.n_hubs)
    # 2(K + 1)u per magnitude, K the link count, at least any hub's
    slack = magnitude * ((len(flat) + 1) * 2.0**-52)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or past the range
        clear = (total + slack < caps) & (magnitude < 2.0**1023)
    for j in np.flatnonzero(~clear).tolist():
        used, cap = math.fsum(bw[cols == j].tolist()), float(caps[j])
        if used > cap:
            violated.append((CONSTRAINT_BANDWIDTH, f"hub {j}: {used:.6g} Hz > cap {cap:.6g} Hz"))

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
    units on one `exact_grid`. Until a probe is refused, a queue's running
    totals are its prefix sums, so a hub accepts its longest fitting prefix,
    at most its link cap long; `admit` then probes the rest of the queue one
    by one on exact Python ints.

    The prefixes come from one int64 cumsum over all queues. numpy's integer
    cumsum wraps modulo 2**64, so the difference of two of its entries is a
    queue's exact partial sum whenever that sum is below 2**63. A hub
    qualifies when the float sum of its bandwidths is below 2**62 / scale:
    a float sum of k nonnegative terms is at least 1 - gamma_(k-1) times the
    exact one (Higham 2002, 4.2; gradual underflow keeps that so), so the
    exact queue total is below 2**63 units. Then every unit is exact in
    int64, the partial sums ascend, and they compare with the cap's
    `grid_limit` as with that limit clipped to int64. A hub with a negative
    or NaN bandwidth does not qualify, nor does one with a unit wider than
    int64, which is at least 2**63 by itself. Such a hub takes an empty
    prefix and probes its whole queue with `admit`, as does a hub under a
    NaN cap.
    """
    _check_dims(inst, candidates)
    ops = ops or OpCounter()
    m = inst.n_hubs
    rows, cols, flat = _links(candidates)
    bw = inst.link_table.bandwidth_hz.take(flat)
    # grouped by hub, then by (-rate, bandwidth); lexsort is stable, so the
    # ascending rows of the row-major links break the remaining ties
    order = np.lexsort((bw, -inst.rates.take(rows), cols))
    bw, cols = bw[order], cols[order]
    # one grid for every queue: a common scale keeps each hub's total exact
    units, scale = _int64_grid(bw)
    counts = np.bincount(cols, minlength=m)
    ends = counts.cumsum()
    first = np.repeat(ends - counts, counts)  # queue head of each link
    # the hubs whose queue total certainly stays below 2**63 units; a
    # negative or NaN bandwidth counts as inf
    reach = np.bincount(cols, weights=np.where(bw >= 0, bw, math.inf), minlength=m)
    room = inst.hub_link_caps * (reach < math.ldexp(1.0, 63 - scale.bit_length()))
    caps = inst.hub_bandwidth_caps.tolist()
    # one grid_limit per distinct cap (a fleet's hubs usually share one); a
    # NaN key is found by identity, as each list entry is its own float
    limits = {c: grid_limit(c, scale) for c in dict.fromkeys(caps)}
    # in int64, a NaN limit becomes -1: it admits nothing either
    clipped = {c: min(max(t, -1), 2**63 - 1) if t == t else -1 for c, t in limits.items()}
    hub_limit = np.fromiter(map(clipped.__getitem__, caps), np.int64, m)
    totals = units.cumsum()
    totals -= (totals - units).take(first)  # each queue's own prefix sums
    taken = (np.arange(len(cols)) - first < room.take(cols)) & (totals <= hub_limit.take(cols))
    probes = np.bincount(cols[taken], minlength=m).tolist()  # so far one per prefix link
    ends, counts, link_caps = ends.tolist(), counts.tolist(), inst.hub_link_caps.tolist()
    # a hub probes on while it has both candidates and free links left
    tail = [j for j in range(m) if probes[j] < min(counts[j], link_caps[j])]
    exact = _exact_units(units, bw, scale) if tail else []
    probed: list[int] = []  # queue positions accepted one by one
    for j in tail:
        limit, link_cap, links = limits[caps[j]], link_caps[j], probes[j]
        start = ends[j] - counts[j] + links
        used = int(totals[start - 1]) if links else 0
        for k in range(start, ends[j]):
            if links >= link_cap:
                break
            probes[j] += 1
            total = admit(used, exact[k], limit)
            if total is not None:
                probed.append(k)
                used, links = total, links + 1
    # probe k scans the count - k remaining candidates, plus 2
    ops.add(sum(p * (c + 2) - p * (p - 1) // 2 for p, c in zip(probes, counts)))
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
    backhaul cap, and later steps only ever remove associations. The report
    carries no verdict: judge the matrix with `check_feasible`.
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
    """Report on a solver's 0/1 association, with no feasibility verdict;
    every figure but the timing and the work counters is derived from the
    matrix's links."""
    rows, cols, _ = _links(a)
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
