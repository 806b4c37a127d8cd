"""The link-list feasibility checker and solve report against slow
loop-by-loop references over the dense matrix.

`reference_check` transcribes the checker as the matrix form states it: the
backhaul total as math.fsum of each rate times its row sum, each hub's
bandwidth as an fsum down its column, the first sub-threshold link in
row-major order, and per-hub and per-cell link counts. The verdict and every
violation message must match exactly.
"""

import dataclasses
import math

import numpy as np
import pytest

from _builders import make_instance
from skyhaul.association import check_feasible, solve_greedy, solve_report
from skyhaul.instances import random_instance
from test_greedy_oracle import oracle_instance

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        if not used <= cap:
            violated.append(("bandwidth", f"hub {j}: {used:.6g} Hz > cap {cap:.6g} Hz"))

    bad = [(i, j) for i in range(n) for j in range(m)
           if entries[i][j] == 1 and not sinr[i][j] >= inst.sinr_min_db]
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

    report = solve_report(inst, *np.nonzero(a), "greedy", 0.0, 0)
    assert report.sum_rate_bps == math.fsum((inst.rates * a.sum(axis=1)).tolist())
    assert report.n_associated == int((a.sum(axis=1) > 0).sum())
    assert report.per_hub_links == tuple(int(k) for k in a.sum(axis=0))
    assert report.hubs_in_use == int((a.sum(axis=0) > 0).sum())


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


@pytest.fixture
def fsum_calls(monkeypatch):
    """The argument list of every math.fsum call made during the test."""
    calls = []
    fsum = math.fsum

    def counted(values):
        values = list(values)
        calls.append(values)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    return calls


ULP_BELOW = math.nextafter(0.6, -math.inf)
ULP_ABOVE = math.nextafter(0.6, math.inf)


@pytest.mark.parametrize("bandwidths, cap, ok, fallback", [
    # fsum is 0.6, the left-to-right float sum 0.6000000000000001
    ([0.1, 0.2, 0.3], 0.6, True, True),
    ([0.1, 0.2, 0.3], ULP_BELOW, False, True),
    ([0.1, 0.2, 0.3], ULP_ABOVE, True, True),
    ([0.1, 0.2, 0.3], 1.0, True, False),
    # the left-to-right float sum is 1.0 and fits; fsum is one ulp above
    ([1.0, 2.0**-53, 2.0**-53], 1.0, False, True),
    # the float sum 1.0 lies below the cap, fsum 1 + 2**-51 above it
    ([1.0] + [2.0**-53] * 4, 1.0 + 2.0**-52, False, True),
    ([math.inf, 1.0], 1e6, False, True),
    ([math.inf, 1.0], math.inf, True, True),
], ids=["at-fsum", "ulp-below", "ulp-above", "far-below", "float-sum-fits",
        "float-sum-under-cap", "inf-finite-cap", "inf-infinite-cap"])
def test_near_cap_bandwidth_verdict(fsum_calls, bandwidths, cap, ok, fallback):
    # hub 0 carries the links under test; hub 1 one link far below its cap
    n = len(bandwidths) + 1
    bw = np.ones((n, 2))
    bw[:-1, 0] = bandwidths
    inst = make_instance([[10.0, 10.0]] * n, bw, [30e6] * n)
    inst = dataclasses.replace(inst, hub_bandwidth_caps=np.array([cap, 1e6]))
    a = np.zeros((n, 2), dtype=np.int8)
    a[:-1, 0] = 1
    a[-1, 1] = 1
    want_ok, want_violated = reference_check(inst, a)
    fsum_calls.clear()
    verdict = check_feasible(inst, a)
    assert (verdict.ok, verdict.violated) == (want_ok, want_violated)
    assert verdict.ok == ok
    # only a hub the rounding-error bound cannot clear is summed by fsum
    assert fsum_calls == ([bandwidths] if fallback else [])
