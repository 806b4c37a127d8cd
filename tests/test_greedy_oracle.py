"""The vectorised greedy against a slow loop-by-loop reference.

The reference transcribes the greedy as the paper states it: a per-cell
argmax, a per-hub queue probed with math.fsum over the accepted bandwidths
plus the candidate, and a trim that picks the lightest live hub afresh
before every removal. Matrix, hubs in use and op count must match exactly.
"""

import math

import numpy as np
import pytest

from _builders import make_instance
from skyhaul.association import (exact_grid, greedy_step1, greedy_step2,
                                 greedy_step3, grid_limit, solve_greedy)
from skyhaul.harness import relax_to_qos_only
from skyhaul.instances import RATE_MENU_BPS, random_instance


def bandwidth_key(b):
    """Numbers ascending, then NaN, as numpy sorts them."""
    return (1, 0.0) if math.isnan(b) else (0, float(b))


def reference_greedy(inst):
    """(matrix, hubs_in_use, op_count) of the three greedy steps, one
    element at a time."""
    n, m = inst.n_cells, inst.n_hubs
    sinr = inst.link_table.sinr_db
    bw = inst.link_table.bandwidth_hz
    rates = inst.rates
    ops = 0

    candidates = np.zeros((n, m), dtype=np.int8)
    for i in range(n):
        j = int(np.argmax(sinr[i]))
        ops += max(m - 1, 0) + 1
        if sinr[i, j] >= inst.sinr_min_db:
            candidates[i, j] = 1

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
    bps either side of one, and the bandwidth cap an exact partial sum
    (boundary ties)."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    sinr = rng.integers(-8, 6, size=(n, m)).astype(float)
    menu = RATE_MENU_BPS if rng.random() < 0.5 else range(1, 7)
    rates = rng.choice(np.asarray(menu, dtype=float), size=n)
    bw = rates[:, None] / np.log2(1.0 + 10.0 ** (sinr / 10.0))
    k = int(rng.integers(0, n + 1))
    backhaul = math.fsum(rates[:k].tolist()) + float(rng.choice([-0.5, 0.0, 0.5]))
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
    # step 3's own count of live hubs agrees too
    packed = greedy_step2(inst, greedy_step1(inst))
    assert greedy_step3(inst, packed)[1] == want_hubs


def test_matches_reference_on_small_instances():
    for seed in range(300):
        assert_matches_reference(oracle_instance(seed))


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


@pytest.mark.parametrize("band_cap", [0.0, 2.0, 1e9, math.inf, math.nan])
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
    packed = greedy_step2(inst, greedy_step1(inst))
    assert packed[:, 0].tolist() == [1, 1, 0, 1]


@pytest.mark.parametrize("link_cap", [-1, 0, 1, 2, 3])
def test_prefix_cut_by_link_cap_before_bandwidth_cap(link_cap):
    # the first three fit the 3 Hz cap, the fourth would not
    inst = make_instance([[10.0]] * 5, [[1.0]] * 5, [5.0, 4.0, 3.0, 2.0, 1.0],
                         hub_bandwidth_cap_hz=3.0, hub_link_cap=link_cap)
    assert_matches_reference(inst)
    packed = greedy_step2(inst, greedy_step1(inst))
    kept = max(link_cap, 0)
    assert packed[:, 0].tolist() == [1] * kept + [0] * (5 - kept)
