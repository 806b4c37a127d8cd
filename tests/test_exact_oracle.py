"""The stack-driven branch and bound against the recursive search it
replaced.

`reference_exact` is that recursive `solve_exact`, unedited apart from its
name, its report call, which now passes the matrix's links, and its
bandwidth probe: one nested `dfs` per assigned cell, the backhaul compared
as a float, and a link fitting its hub when math.fsum of the hub's accepted
bandwidths plus its own is at most the cap (a sum past the double range
reading as inf), so no bandwidth verdict uses the solvers' grid code.
Matrix, node count, sum rate and any NodeBudgetExceeded (count,
incumbent, value) must match exactly, at several budgets, on edge instances
and on placed seeds of the default preset. Each solver's report must also
be the one `solve_report` builds from its matrix's links.
"""

import dataclasses
import math
import time
from itertools import accumulate

import numpy as np
import pytest

from skyhaul.association import (AssociationMatrix, ProblemInstance,
                                 empty_association, solve_greedy, solve_report)
from skyhaul.config import ScenarioConfig
from skyhaul.deployment import PlacementError
from skyhaul.exact import DEFAULT_NODE_BUDGET, NodeBudgetExceeded, solve_exact
from skyhaul.harness import prepare_scenario, relax_to_qos_only
from skyhaul.instances import random_instance
from skyhaul.report import SolveReport
from test_greedy_oracle import oracle_instance

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_exact(inst: ProblemInstance,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[AssociationMatrix, SolveReport]:
    """Globally optimal association by depth-first branch and bound.

    Cells are visited highest demand first (ties: lower index); for each cell
    the admissible hubs are tried in ascending index before the unassigned
    branch. The incumbent starts as the empty association at value 0, which
    is always feasible, and only strictly better completions replace it.
    Leaves, bound cuts and rejected probes count one node each. On reaching
    node_budget nodes, even as the search finishes, it raises
    NodeBudgetExceeded carrying the best association found so far.
    Recursion nests once per assigned cell, not once per cell, so the depth
    is the number of cells assigned on the current path plus one.
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
    admissible = [np.flatnonzero(row).tolist()
                  for row in inst.link_table.sinr_db >= inst.sinr_min_db]
    bw = inst.link_table.bandwidth_hz
    link_caps = inst.hub_link_caps.tolist()
    band_caps = inst.hub_bandwidth_caps.tolist()

    assign = [-1] * n  # hub per cell, -1 for unassigned
    links = [0] * m
    accepted = [[] for _ in range(m)]  # each hub's accepted bandwidths, Hz
    nodes = 0
    best = assign[:]
    best_value = 0

    def incumbent() -> AssociationMatrix:
        a = empty_association(n, m)
        for i, j in enumerate(best):
            if j >= 0:
                a[i, j] = 1
        return a

    def fits(j: int, b: float) -> bool:
        try:
            used = math.fsum(accepted[j] + [b])
        except OverflowError:  # past the double range: fits only an infinite cap
            used = math.inf
        return used <= band_caps[j]  # a NaN total never fits

    def dfs(depth: int, running: int):
        nonlocal nodes, best, best_value
        # one pass per cell; "leave cell i unassigned" continues the loop
        # rather than recursing, so the nesting grows only per assigned cell
        while True:
            if nodes >= node_budget:
                raise NodeBudgetExceeded(nodes, incumbent(), best_value)
            if depth == n:
                nodes += 1
                if running > best_value:
                    best, best_value = assign[:], running
                return
            headroom = cap - running
            if headroom <= 0:
                gain = 0
            elif headroom >= suffix_sum[depth]:
                gain = suffix_sum[depth]
            else:
                gain = math.floor(headroom / suffix_gcd[depth]) * suffix_gcd[depth]
            if running + gain <= best_value:
                nodes += 1
                return

            i = order[depth]
            rate = rates[i]
            for j in admissible[i]:
                b = float(bw[i, j])
                if not (links[j] < link_caps[j] and running + rate <= cap and fits(j, b)):
                    nodes += 1
                    continue
                accepted[j].append(b)
                assign[i] = j
                links[j] += 1
                dfs(depth + 1, running + rate)
                accepted[j].pop()
                links[j] -= 1
                assign[i] = -1
            depth += 1

    dfs(0, 0)
    if nodes >= node_budget:
        raise NodeBudgetExceeded(nodes, incumbent(), best_value)
    a = incumbent()
    return a, solve_report(inst, *np.nonzero(a), "exact", time.perf_counter() - t0,
                           nodes, nodes)


def solve_or_budget(solve, inst, node_budget):
    """("ok", matrix, node count, sum rate) or ("budget", incumbent, node
    count, incumbent value)."""
    try:
        a, report = solve(inst, node_budget)
    except NodeBudgetExceeded as err:
        return "budget", err.incumbent, err.node_count, err.incumbent_value
    return "ok", a, report.node_count, report.sum_rate_bps


def assert_matches_reference(inst, budgets=(1, 3, 7, DEFAULT_NODE_BUDGET)):
    for budget in budgets:
        want = solve_or_budget(reference_exact, inst, budget)
        got = solve_or_budget(solve_exact, inst, budget)
        assert got[0] == want[0] and got[2:] == want[2:], budget
        assert np.array_equal(got[1], want[1]), budget


def with_bandwidth(inst, value, k):
    """`inst` with flat bandwidth entry k set to value, on an admissible
    link where there is one."""
    bw = inst.link_table.bandwidth_hz.copy()
    admissible = np.flatnonzero(inst.link_table.sinr_db >= inst.sinr_min_db)
    if admissible.size:
        k = int(admissible[k % admissible.size])
    bw.reshape(-1)[k] = value
    table = dataclasses.replace(inst.link_table, bandwidth_hz=bw)
    return dataclasses.replace(inst, link_table=table)


def edge_instance(seed: int, family: str):
    inst = random_instance(seed, 2 + seed % 9, 1 + seed % 4, tight=seed % 2 == 0)
    if family == "all":
        return inst
    if family == "qos-only":
        return relax_to_qos_only(inst)
    if family == "inf-backhaul":
        return dataclasses.replace(inst, backhaul_cap_bps=math.inf)
    if family == "zero-backhaul":
        return dataclasses.replace(inst, backhaul_cap_bps=0.0)
    if family == "zero-hub-cap":
        caps = inst.hub_bandwidth_caps.copy()
        caps[seed % inst.n_hubs] = 0.0
        return dataclasses.replace(inst, hub_bandwidth_caps=caps)
    if family == "zero-link-cap":
        link_caps = inst.hub_link_caps.copy()
        link_caps[seed % inst.n_hubs] = 0
        return dataclasses.replace(inst, hub_link_caps=link_caps)
    if family == "zero-bw-zero-cap":
        # zero-bandwidth links on a hub whose cap is 0 fit it, 0 <= 0; the
        # hub's other links never do
        j = seed % inst.n_hubs
        caps = inst.hub_bandwidth_caps.copy()
        caps[j] = 0.0
        bw = inst.link_table.bandwidth_hz.copy()
        bw[::2, j] = 0.0
        table = dataclasses.replace(inst.link_table, bandwidth_hz=bw)
        return dataclasses.replace(inst, link_table=table, hub_bandwidth_caps=caps)
    if family == "one-inf-hub-cap":
        # an infinite cap beside finite ones, with an inf bandwidth that
        # fits only that cap
        caps = inst.hub_bandwidth_caps.copy()
        caps[seed % inst.n_hubs] = math.inf
        return with_bandwidth(dataclasses.replace(inst, hub_bandwidth_caps=caps),
                              math.inf, seed)
    if family == "wide-bw":
        # a subnormal and a 1e300 Hz bandwidth: units past the double range
        return with_bandwidth(with_bandwidth(inst, 5e-324, seed), 1e300, seed + 1)
    value = {"inf-bw": math.inf, "nan-bw": math.nan, "zero-bw": 0.0}[family]
    return with_bandwidth(inst, value, seed)


FAMILIES = ["all", "qos-only", "inf-backhaul", "zero-backhaul", "zero-hub-cap",
            "inf-bw", "nan-bw", "zero-bw", "zero-link-cap", "zero-bw-zero-cap",
            "one-inf-hub-cap", "wide-bw"]


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_reference_on_edge_instances(family):
    for seed in range(150):
        assert_matches_reference(edge_instance(seed, family))


@pytest.mark.parametrize("family", ["inf-bw", "nan-bw", "zero-bw", "wide-bw"])
def test_matches_reference_on_relaxed_edge_instances(family):
    # under an infinite hub cap an inf or zero bandwidth fits and adds
    # nothing; NaN still never fits; a unit past the double range fits
    for seed in range(100):
        assert_matches_reference(relax_to_qos_only(edge_instance(seed, family)))


def test_matches_reference_on_placed_seeds():
    placed = 0
    for seed in range(60):
        try:
            inst = prepare_scenario(ScenarioConfig(seed=seed)).instance
        except PlacementError:
            continue
        placed += 1
        assert_matches_reference(inst)
        assert_matches_reference(relax_to_qos_only(inst), budgets=(7, 5_000))
    assert placed >= 40


def assert_report_from_matrix(inst, solve, *args):
    a, report = solve(inst, *args)
    assert report == solve_report(inst, *np.nonzero(a), report.method,
                                  report.wall_time_s, report.op_count,
                                  report.node_count)


@pytest.mark.parametrize("family", FAMILIES)
def test_reports_come_from_the_matrix_on_edge_instances(family):
    for seed in range(150):
        inst = edge_instance(seed, family)
        for solve in (solve_greedy, solve_exact):
            assert_report_from_matrix(inst, solve)


def test_exact_report_comes_from_the_matrix_on_greedy_oracle_instances():
    # the greedy's is checked in test_greedy_oracle; the search runs where it
    # finishes within 10,000 nodes (257 of the 300)
    finished = 0
    for seed in range(300):
        inst = oracle_instance(seed)
        try:
            assert_report_from_matrix(inst, solve_exact, 10_000)
        except NodeBudgetExceeded:
            continue
        finished += 1
    assert finished >= 250
