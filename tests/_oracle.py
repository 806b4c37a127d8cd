"""Brute-force oracle for the exact search: every single-association
candidate of a small instance, judged in vectorised chunks.

It has no capacity logic of its own beyond vectorised sums: its rate sums
are exact, and a candidate whose float bandwidth sum lands near a hub's cap
is re-judged by `check_feasible`.
"""

import math

import numpy as np

from skyhaul.association import (AssociationMatrix, ProblemInstance,
                                 check_feasible, empty_association, objective)
from skyhaul.exact import SizeGuardError

ENUMERATION_GUARD = 10_000_000
_ENUM_CHUNK = 1 << 15


def enumerate_all(inst: ProblemInstance) -> tuple[AssociationMatrix, float]:
    """Brute force over every single-association candidate, for cross-checks.

    Each cell independently picks one of the hubs or stays out, giving
    (n_hubs + 1) ** n_cells candidates; refuses to run past the guard.
    Candidates are judged in vectorised chunks. Their rate sums are exact
    (whole bps below 2**53), so the backhaul test is the checker's verdict;
    a hub's bandwidth sum may round, though for nonnegative terms by far
    less than a relative 1e-9, so a candidate whose sum lands within that
    band of the cap of a hub it picks gets check_feasible's verdict instead
    (a hub it leaves empty sums to exactly 0).
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

    # the empty candidate, the last code, is always feasible and replaces these
    best_val, best_choice = -1.0, None
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
                near = np.abs(used - cap_j) <= 1e-9 * max(1.0, cap_j)
                band |= near & picked.any(axis=1)
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
