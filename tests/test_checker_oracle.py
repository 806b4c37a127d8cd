"""The link-list feasibility checker and solve report against slow
loop-by-loop references over the dense matrix.

`reference_check` transcribes the checker as the matrix form states it: the
backhaul total as math.fsum of each rate times its row sum, each hub's
bandwidth as an fsum down its column, the first sub-threshold link in
row-major order, and per-hub and per-cell link counts. The verdict and every
violation message must match exactly.
"""

import math

import numpy as np
import pytest

from _builders import make_instance
from skyhaul.association import check_feasible, solve_greedy, solve_report
from skyhaul.instances import random_instance
from test_greedy_oracle import oracle_instance


def reference_check(inst, a):
    """(ok, violated) of the five constraints, one entry at a time."""
    n, m = a.shape
    entries = a.tolist()
    rates = inst.rates.tolist()
    bw = inst.link_table.bandwidth_hz.tolist()
    sinr = inst.link_table.sinr_db.tolist()
    violated = []

    total = math.fsum(rates[i] * sum(entries[i]) for i in range(n))
    if total > inst.backhaul_cap_bps:
        violated.append(("backhaul", f"total rate {total:.6g} bps > cap "
                                     f"{inst.backhaul_cap_bps:.6g} bps"))

    for j in range(m):
        used = math.fsum(bw[i][j] for i in range(n) if entries[i][j] == 1)
        cap = float(inst.hub_bandwidth_caps[j])
        if used > cap:
            violated.append(("bandwidth", f"hub {j}: {used:.6g} Hz > cap {cap:.6g} Hz"))

    bad = [(i, j) for i in range(n) for j in range(m)
           if entries[i][j] == 1 and sinr[i][j] < inst.sinr_min_db]
    if bad:
        violated.append(("sinr", f"{len(bad)} links below {inst.sinr_min_db} dB, "
                                 f"first {bad[0]}"))

    for j in range(m):
        count = sum(entries[i][j] for i in range(n))
        if count > inst.hub_link_caps[j]:
            violated.append(("links", f"hub {j}: {count} links > cap "
                                      f"{int(inst.hub_link_caps[j])}"))

    multi = [i for i in range(n) if sum(entries[i]) > 1]
    if multi:
        violated.append(("single-assoc", f"cells {multi} associated more than once"))
    return not violated, violated


def case_matrices(inst, rng):
    """The greedy's matrix, random 0/1 matrices, and the greedy's matrix with
    a multi-association row, a sub-threshold link and an over-cap hub
    injected."""
    n, m = inst.n_cells, inst.n_hubs
    greedy, _ = solve_greedy(inst)
    yield greedy
    for density in (0.05, 0.5):
        yield (rng.random((n, m)) < density).astype(np.int8)
    a = greedy.copy()
    i = int(rng.integers(n))
    a[i] = 0
    a[i, rng.choice(m, size=min(m, 2), replace=False)] = 1
    low = np.argwhere(inst.link_table.sinr_db < inst.sinr_min_db)
    if len(low):
        a[tuple(low[rng.integers(len(low))])] = 1
    j = int(rng.integers(m))
    a[rng.choice(n, size=min(n, int(inst.hub_link_caps[j]) + 1), replace=False), j] = 1
    yield a


def assert_matches_reference(inst, a):
    want_ok, want_violated = reference_check(inst, a)
    verdict = check_feasible(inst, a)
    assert verdict.ok == want_ok
    assert verdict.violated == want_violated

    report = solve_report(inst, a, "greedy", 0.0, 0)
    assert report.sum_rate_bps == math.fsum((inst.rates * a.sum(axis=1)).tolist())
    assert report.n_associated == int((a.sum(axis=1) > 0).sum())
    assert report.per_hub_links == tuple(int(k) for k in a.sum(axis=0))
    assert report.hubs_in_use == int((a.sum(axis=0) > 0).sum())
    assert report.feasible == want_ok


def test_matches_reference_on_oracle_instances():
    for seed in range(300):
        inst = oracle_instance(seed)
        rng = np.random.default_rng(seed)
        for a in case_matrices(inst, rng):
            assert_matches_reference(inst, a)


@pytest.mark.parametrize("seed", [0, 1])
def test_matches_reference_at_3000_by_40(seed):
    inst = random_instance(seed, 3000, 40, tight=True)
    rng = np.random.default_rng(seed)
    verdicts = []
    for a in case_matrices(inst, rng):
        assert_matches_reference(inst, a)
        verdicts.append({c for c, _ in check_feasible(inst, a).violated})
    # the injected matrix breaks all five constraints at this size
    assert verdicts[0] == set()
    assert verdicts[-1] == {"backhaul", "bandwidth", "sinr", "links", "single-assoc"}


def test_no_hubs():
    inst = make_instance(np.zeros((3, 0)), np.zeros((3, 0)), [30e6, 60e6, 90e6])
    a = np.zeros((3, 0), dtype=np.int8)
    assert_matches_reference(inst, a)
    assert check_feasible(inst, a).ok
