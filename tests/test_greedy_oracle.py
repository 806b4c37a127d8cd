"""The vectorised greedy against a slow loop-by-loop reference.

The reference transcribes the greedy as the paper states it: a per-cell
argmax, a per-hub queue probed with math.fsum over the accepted bandwidths
plus the candidate, and a trim that picks the lightest live hub afresh
before every removal. Matrix, hubs in use and op count must match exactly,
and step 3's links and the report must be those of the matrix. Each step's
hand-off to the next (step 1's request vector, step 2's and step 3's links)
must be what the next step would otherwise read off a matrix.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _builders import make_instance
from skyhaul import association
from skyhaul.association import (OpCounter, check_feasible, exact_grid,
                                 greedy_step1, greedy_step2, greedy_step3,
                                 grid_limit, solve_greedy, solve_report)
from skyhaul.config import table1_urban
from skyhaul.harness import prepare_scenario, relax_to_qos_only
from skyhaul.instances import RATE_MENU_BPS, random_instance

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def bandwidth_key(b):
    """Numbers ascending, then NaN, as numpy sorts them."""
    return (1, 0.0) if math.isnan(b) else (0, float(b))


def reference_step1(inst):
    """Step 1's candidate matrix, one cell at a time: a cell marks its
    argmax hub when that SINR clears the threshold."""
    sinr = inst.link_table.sinr_db
    candidates = np.zeros(sinr.shape, dtype=np.int8)
    for i in range(inst.n_cells if inst.n_hubs else 0):  # no hub to request
        j = int(np.argmax(sinr[i]))
        if sinr[i, j] >= inst.sinr_min_db:
            candidates[i, j] = 1
    return candidates


def reference_greedy(inst):
    """(matrix, hubs_in_use, op_count) of the three greedy steps, one
    element at a time."""
    n, m = inst.n_cells, inst.n_hubs
    sinr = inst.link_table.sinr_db
    bw = inst.link_table.bandwidth_hz
    rates = inst.rates
    ops = 0

    candidates = reference_step1(inst)
    ops += n * m

    a = np.zeros((n, m), dtype=np.int8)
    for j in range(m):
        link_cap = int(inst.hub_link_caps[j])
        band_cap = float(inst.hub_bandwidth_caps[j])
        queue = sorted(np.flatnonzero(candidates[:, j]),
                       key=lambda i: (-float(rates[i]), bandwidth_key(bw[i, j]), i))
        accepted_bw: list[float] = []
        for k, i in enumerate(queue):
            if len(accepted_bw) >= link_cap:
                break
            ops += len(queue) - k + 2
            b = float(bw[i, j])
            if math.fsum(accepted_bw + [b]) <= band_cap:
                a[i, j] = 1
                accepted_bw.append(b)

    int_rates = [int(r) for r in rates.tolist()]
    cap = inst.backhaul_cap_bps
    cells_on = [list(np.flatnonzero(a[:, j])) for j in range(m)]
    total = sum(int_rates[i] for cells in cells_on for i in cells)
    while total > cap:
        live = [j for j in range(m) if cells_on[j]]
        if not live:
            break
        j = min(live, key=lambda h: (len(cells_on[h]), h))
        ops += m
        landing = [i for i in cells_on[j] if total - int_rates[i] <= cap]
        victim = min(landing or cells_on[j], key=lambda i: (int_rates[i], i))
        ops += 2 * len(cells_on[j]) + 1
        a[victim, j] = 0
        cells_on[j].remove(victim)
        total -= int_rates[victim]
    return a, sum(1 for cells in cells_on if cells), ops


def tie_heavy_instance(seed: int):
    """Whole-dB SINRs, so equal rates often share a bandwidth; rates from the
    menu or from 1-6 bps; the backhaul cap an exact partial sum, or half a
    bps either side of one (at least 0), and the bandwidth cap an exact
    partial sum (boundary ties)."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    sinr = rng.integers(-8, 6, size=(n, m)).astype(float)
    menu = RATE_MENU_BPS if rng.random() < 0.5 else range(1, 7)
    rates = rng.choice(np.asarray(menu, dtype=float), size=n)
    bw = rates[:, None] / np.log2(1.0 + 10.0 ** (sinr / 10.0))
    k = int(rng.integers(0, n + 1))
    backhaul = max(0.0, math.fsum(rates[:k].tolist()) + float(rng.choice([-0.5, 0.0, 0.5])))
    return make_instance(sinr, bw, rates, backhaul_cap_bps=backhaul,
                         hub_bandwidth_cap_hz=math.fsum(bw[:k, 0].tolist()),
                         hub_link_cap=int(rng.integers(1, n + 1)))


def oracle_instance(seed: int):
    n, m = 1 + seed % 40, 1 + seed % 7
    kind = seed % 6
    if kind == 0:
        return random_instance(seed, n, m, tight=True)
    if kind == 1:
        return random_instance(seed, n, m)
    if kind == 2:
        return random_instance(seed, n, 1, tight=True)
    if kind == 3:
        return random_instance(seed, n, m, tight=True, link_cap=0)
    if kind == 4:
        return relax_to_qos_only(random_instance(seed, n, m, tight=True))
    return tie_heavy_instance(seed)


def assert_matches_reference(inst):
    want, want_hubs, want_ops = reference_greedy(inst)
    a, report = solve_greedy(inst)
    assert np.array_equal(a, want)
    assert report.hubs_in_use == want_hubs
    assert report.op_count == want_ops
    # step 3 hands over the links of its own matrix, in np.nonzero's order
    packed, links = greedy_step2(inst, greedy_step1(inst))
    trimmed, (rows, cols) = greedy_step3(inst, packed, links)
    want_rows, want_cols = np.nonzero(trimmed)
    assert np.array_equal(trimmed, want)
    assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()
    # and the report built from those links is the one its matrix gives
    assert report == solve_report(inst, want_rows, want_cols, "greedy",
                                  report.wall_time_s, want_ops)


def assert_handoffs(inst):
    """Each step hands on what the next would otherwise read off a matrix:
    step 1 the requests of the reference's candidate matrix, step 2 the
    links of its own matrix; and step 3 given those links does what it does
    given `np.nonzero` of the packed matrix."""
    requests = greedy_step1(inst)
    candidates = reference_step1(inst)
    want = [int(np.argmax(row)) + 1 if row.any() else 0 for row in candidates]
    assert requests.tolist() == want
    assert np.count_nonzero(requests) == int(candidates.sum())

    packed, (rows, cols) = greedy_step2(inst, requests)
    want_rows, want_cols = np.nonzero(packed)
    assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()

    handed, scanned = OpCounter(), OpCounter()
    a, (rows, cols) = greedy_step3(inst, packed, (rows, cols), handed)
    b, (want_rows, want_cols) = greedy_step3(inst, packed, np.nonzero(packed), scanned)
    assert np.array_equal(a, b) and handed.count == scanned.count
    assert rows.tolist() == want_rows.tolist() and cols.tolist() == want_cols.tolist()


def test_matches_reference_on_small_instances():
    for seed in range(300):
        assert_matches_reference(oracle_instance(seed))


@pytest.mark.parametrize("n", [0, 1, 5])
def test_matches_reference_without_hubs(n):
    # an n x 0 table: no cell has a hub to request, and step 1 scans nothing
    inst = make_instance(np.zeros((n, 0)), np.zeros((n, 0)), [1.0] * n)
    assert_matches_reference(inst)
    assert_handoffs(inst)


def test_handoffs_on_oracle_instances():
    for seed in range(300):
        assert_handoffs(oracle_instance(seed))


def test_handoffs_on_tie_heavy_instances():
    for seed in range(200):
        assert_handoffs(tie_heavy_instance(seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_handoffs_past_255_hubs(seed):
    # 300 hubs: the request vector and the links' columns are uint16, and
    # no arithmetic on them may wrap (NEP 50 keeps a narrow dtype narrow)
    inst = random_instance(seed, 400, 300, tight=True)
    assert greedy_step1(inst).dtype == np.uint16
    assert_handoffs(inst)
    assert_matches_reference(inst)


def test_one_full_matrix_scan_per_solve_and_check(monkeypatch):
    # at greedy scale only the independent checker reads links off a matrix
    inst = random_instance(0, 3000, 40, tight=True)
    scans = []
    links = association._links
    monkeypatch.setattr(association, "_links", lambda a: scans.append(a.shape) or links(a))
    a, _ = solve_greedy(inst)
    assert scans == []
    assert check_feasible(inst, a).ok
    assert scans == [(3000, 40)]


def test_step1_allocates_no_matrix():
    # well under one byte per link: the request vector is one entry per cell
    inst = random_instance(0, 1000, 400)
    tracemalloc.start()
    try:
        greedy_step1(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inst.n_cells * inst.n_hubs // 4


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference_at_3000_by_40(seed):
    assert_matches_reference(random_instance(seed, 3000, 40, tight=True))


def nonfinite_instance(seed: int, band_cap: float):
    """A tie-heavy instance with some bandwidths set to inf or NaN, so the
    hubs whose queues hold them probe one by one while the others jump over
    their fitting prefix."""
    base = tie_heavy_instance(seed)
    rng = np.random.default_rng(seed)
    bw = base.link_table.bandwidth_hz.copy()
    odd = rng.random(bw.shape) < 0.15
    bw[odd] = rng.choice([math.inf, math.nan], size=int(odd.sum()))
    return make_instance(base.link_table.sinr_db, bw, base.rates,
                         backhaul_cap_bps=base.backhaul_cap_bps,
                         hub_bandwidth_cap_hz=band_cap,
                         hub_link_cap=int(base.hub_link_caps[0]))


@pytest.mark.parametrize("band_cap", [0.0, 2.0, 1e9, math.inf])
def test_matches_reference_with_nonfinite_bandwidths(band_cap):
    for seed in range(100):
        assert_matches_reference(nonfinite_instance(seed, band_cap))


def test_queue_total_landing_on_grid_limit():
    # 1 + 2**-53 lies halfway between the cap 1.0 and the next double up,
    # and rounds to the cap (the even one): the first two totals land on
    # the limit exactly, the third passes it, the zero fourth fits again
    bw = [1.0, 2.0**-53, 2.0**-60, 0.0]
    units, scale = exact_grid(np.array(bw))
    assert units[0] + units[1] == grid_limit(1.0, scale)
    inst = make_instance([[10.0]] * 4, [[b] for b in bw], [4.0, 3.0, 2.0, 1.0],
                         hub_bandwidth_cap_hz=1.0)
    assert_matches_reference(inst)
    packed, _ = greedy_step2(inst, greedy_step1(inst))
    assert packed[:, 0].tolist() == [1, 1, 0, 1]


@pytest.mark.parametrize("link_cap", [0, 1, 2, 3])
def test_prefix_cut_by_link_cap_before_bandwidth_cap(link_cap):
    # the first three fit the 3 Hz cap, the fourth would not
    inst = make_instance([[10.0]] * 5, [[1.0]] * 5, [5.0, 4.0, 3.0, 2.0, 1.0],
                         hub_bandwidth_cap_hz=3.0, hub_link_cap=link_cap)
    assert_matches_reference(inst)
    packed, _ = greedy_step2(inst, greedy_step1(inst))
    assert packed[:, 0].tolist() == [1] * link_cap + [0] * (5 - link_cap)


def spread_instance(seed: int):
    """A tie-heavy instance with each bandwidth scaled by 2**0 to 2**15, so
    that queues span more than 2**10 and some grid units are wider than
    int64; the bandwidth cap is an exact partial sum of the scaled column."""
    base = tie_heavy_instance(seed)
    rng = np.random.default_rng(seed)
    bw = base.link_table.bandwidth_hz
    bw = bw * 2.0 ** rng.integers(0, 16, size=bw.shape)
    k = int(rng.integers(0, base.n_cells + 1))
    return make_instance(base.link_table.sinr_db, bw, base.rates,
                         backhaul_cap_bps=base.backhaul_cap_bps,
                         hub_bandwidth_cap_hz=math.fsum(bw[:k, 0].tolist()),
                         hub_link_cap=int(base.hub_link_caps[0]))


def test_matches_reference_with_units_wider_than_int64():
    wide = 0
    for seed in range(150):
        inst = spread_instance(seed)
        assert_matches_reference(inst)
        requests = greedy_step1(inst)
        cells = np.flatnonzero(requests)
        queued = inst.link_table.bandwidth_hz[cells, requests[cells] - 1]
        wide += max(exact_grid(queued)[0], default=0) >= 2**63
    assert wide >= 100


def test_matches_reference_with_queue_total_past_2_63():
    # cells 0-4 request hub 0, cells 5-6 hub 1. On the grid of the smallest
    # bandwidth, 1.0, each 1000.0 is a unit below 2**63, and hub 0's queue
    # totals more than 2**63 units: past its cap too, so it probes one by
    # one on exact Python ints, which hold such totals; hub 1's queue
    # certainly fits its cap, so it takes its links without a probe
    bw = [[1.0, 9.0]] + [[1000.0, 9.0]] * 4 + [[9.0, 2.0], [9.0, 3.0]]
    units, _ = exact_grid(np.array([row[0] for row in bw[:5]]))
    assert max(units) < 2**63 <= sum(units)
    sinr = [[10.0, 5.0]] * 5 + [[5.0, 10.0]] * 2
    inst = make_instance(sinr, bw, [30e6] * 7, hub_bandwidth_cap_hz=2500.0)
    assert_matches_reference(inst)
    # 1.0 + 1000.0 + 1000.0 fit hub 0's cap, a third 1000.0 would not
    packed, _ = greedy_step2(inst, greedy_step1(inst))
    assert packed.tolist() == [[1, 0]] * 3 + [[0, 0]] * 2 + [[0, 1]] * 2


@pytest.mark.parametrize("value, probed", [(0.0, 0), (math.inf, 74)])
def test_zero_or_inf_candidate_leaves_the_grid_alone(monkeypatch, value, probed):
    # a zero or inf bandwidth leaves the other hubs' queues certain to fit
    # their caps, so they take their links without a probe; only the hub
    # queueing the inf, whose float total is then inf, probes one by one
    base = random_instance(0, 3000, 40, tight=True)
    requests = greedy_step1(base)
    i = int(np.flatnonzero(requests)[0])
    j = int(requests[i]) - 1
    bw = base.link_table.bandwidth_hz.copy()
    bw[i, j] = value
    inst = dataclasses.replace(
        base, link_table=dataclasses.replace(base.link_table, bandwidth_hz=bw))
    assert_matches_reference(inst)
    _, probes = spy_exact_route(monkeypatch)
    greedy_step2(inst, requests)
    assert len(probes) == probed
    assert probed < np.count_nonzero(requests == j + 1)


def spy_exact_route(monkeypatch):
    """Record the bandwidths step 2 puts on a grid, one list per
    `bandwidth_probes` call, and the bandwidth of each probe, in order.
    A probe reads its unit, and reads it again at once when it fits."""
    grids, probes = [], []
    bandwidth_probes = association.bandwidth_probes

    def spy(bw, cols, hub_caps):
        grids.append(bw.tolist())
        units, rooms = bandwidth_probes(bw, cols, hub_caps)
        last = [None]

        class Units(list):
            def __getitem__(self, k):
                if k != last[0]:
                    last[0] = k
                    probes.append(float(bw[k]))
                return super().__getitem__(k)
        return Units(units), rooms

    monkeypatch.setattr(association, "bandwidth_probes", spy)
    return grids, probes


def one_hub_instance(bw, cap):
    """Cells requesting the one hub at rates descending with the index, so
    that the queue is the cells in order; links capped only by the count."""
    n = len(bw)
    return make_instance([[10.0]] * n, [[b] for b in bw], [float(n - i) for i in range(n)],
                         hub_bandwidth_cap_hz=cap)


def certificate_edge(bw):
    """The float total of a queue whose float sums are all exact, plus the
    rounding slack step 2 allows for a queue of that many links."""
    reach = math.fsum(bw)
    assert sum(bw) == reach
    return reach + reach * ((len(bw) + 1) * 2.0**-52)


# bandwidths whose float sums round, so only exact totals judge a cap at
# their fsum
ROUNDING_QUEUE = [0.1, 0.7, 0.2, 0.3, 1e-3, 0.9, 1.3, 0.6]


@pytest.mark.parametrize("ulps, packed", [(0, [1] * 8), (1, [1] * 8), (-1, [1] * 7 + [0])])
def test_cap_at_the_fsum_of_the_queue(ulps, packed):
    # a cap at the queue's fsum, or one ulp either side: the bound cannot
    # clear the hub, and the exact probes take the whole queue unless the
    # cap is below its fsum, where the last link no longer fits
    cap = math.fsum(ROUNDING_QUEUE)
    for _ in range(abs(ulps)):
        cap = math.nextafter(cap, math.copysign(math.inf, ulps))
    inst = one_hub_instance(ROUNDING_QUEUE, cap)
    assert_matches_reference(inst)
    assert greedy_step2(inst, greedy_step1(inst))[0][:, 0].tolist() == packed


@pytest.mark.parametrize("inside", [False, True])
def test_cap_at_the_edge_of_the_certificate(monkeypatch, inside):
    # dyadic bandwidths sum exactly in any order; a cap just above the
    # total plus its slack clears the hub, which then probes nothing, and a
    # cap at that sum does not, so every link is probed and fits
    bw = [0.5, 0.25, 1.0, 0.125, 2.0**-20, 3.0]
    cap = certificate_edge(bw)
    if inside:
        cap = math.nextafter(cap, math.inf)
    inst = one_hub_instance(bw, cap)
    assert_matches_reference(inst)
    grids, probes = spy_exact_route(monkeypatch)
    packed, _ = greedy_step2(inst, greedy_step1(inst))
    assert packed[:, 0].tolist() == [1] * len(bw)
    assert (len(grids), len(probes)) == ((0, 0) if inside else (1, len(bw)))


@pytest.mark.parametrize("link_cap", [0, 2, 4, 5, 6])
def test_certified_hub_takes_its_first_link_cap_candidates(monkeypatch, link_cap):
    # the queue certainly fits the cap: the hub takes its link_cap highest
    # rates, here the last cells, or all five when the link cap allows,
    # without a probe
    inst = make_instance([[10.0]] * 5, [[1.0]] * 5, [1.0, 2.0, 3.0, 4.0, 5.0],
                         hub_bandwidth_cap_hz=1e9, hub_link_cap=link_cap)
    assert_matches_reference(inst)
    grids, probes = spy_exact_route(monkeypatch)
    packed, _ = greedy_step2(inst, greedy_step1(inst))
    taken = min(link_cap, 5)
    assert packed[:, 0].tolist() == [0] * (5 - taken) + [1] * taken
    assert grids == [] and probes == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_scale_hubs_skip_the_exact_route(monkeypatch, seed):
    # every hub's whole queue certainly fits its cap at greedy scale
    inst = random_instance(seed, 3000, 40, tight=True)
    requests = greedy_step1(inst)
    grids, probes = spy_exact_route(monkeypatch)
    greedy_step2(inst, requests)
    assert grids == [] and probes == []


def reference_probes(inst, j):
    """The bandwidths hub j probes in the reference's step 2, in order."""
    bw, rates = inst.link_table.bandwidth_hz[:, j], inst.rates
    queue = sorted(np.flatnonzero(reference_step1(inst)[:, j]),
                   key=lambda i: (-float(rates[i]), bandwidth_key(bw[i]), i))
    accepted: list[float] = []
    probed = []
    for i in queue:
        if len(accepted) >= inst.hub_link_caps[j]:
            break
        probed.append(float(bw[i]))
        if math.fsum(accepted + [float(bw[i])]) <= inst.hub_bandwidth_caps[j]:
            accepted.append(float(bw[i]))
    return probed


@pytest.mark.parametrize("seed", [10, 14])
def test_only_uncertified_hubs_probe_on_urban(monkeypatch, seed):
    # urban seeds 10 and 14 each have two hubs whose queues certainly fit
    # their caps and two whose queues may not; the second kind, and only
    # it, probes, in the reference's order
    inst = prepare_scenario(dataclasses.replace(table1_urban(), seed=seed)).instance
    requests = greedy_step1(inst)
    certified = []
    for j in range(inst.n_hubs):
        reach = math.fsum(inst.link_table.bandwidth_hz[requests == j + 1, j].tolist())
        slack = reach * ((np.count_nonzero(requests) + 1) * 2.0**-52)
        certified.append(reach + slack < inst.hub_bandwidth_caps[j])
    assert certified.count(True) == certified.count(False) == 2
    grids, probes = spy_exact_route(monkeypatch)
    greedy_step2(inst, requests)
    assert len(grids) == 1
    want = [b for j in range(inst.n_hubs) if not certified[j] for b in reference_probes(inst, j)]
    assert want
    assert probes == want
